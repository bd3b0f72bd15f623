"""Type equivalence: bisimilarity of grammar words via an expansion tree.

The search alternates two phases. Expansion steps every pair of words in a
node through the grammar; a node whose pairs disagree on available actions
fails to expand, killing that branch. Simplification shrinks the expanded
node with the reflexivity, congruence, and word-decomposition rules, branching
into sibling nodes where a decomposition must guess a witness. The tree is
walked best-first over one heap: the smallest node, by the total length of
its words, is processed next, and nodes of equal size in the order they were
pushed. The search stays complete, because a visited set keeps every
node from being pushed twice and a grammar has only finitely many nodes at or
below any key, so every pushed node is eventually popped. Reaching an empty
node decides positively, exhausting the frontier decides negatively, and
blowing the node budget, which the nodes processed and the simplification
work items draw on alike, is reported as inconclusive rather than silently as
a verdict.

Reflexivity applies to the root first: one object, or equal start words,
answer a query before norms, pruning and search. The refutation probe skips
reflexive pairs.

Functional types compare structurally, descending into session components
with the same machinery. A `Session` answers all the queries of one program:
it kinds each type once per kind env and grows one grammar across queries;
`equivalent` is a session of one query.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Mapping, Optional

from . import kinds as K
from . import syntax as S
# `build` is not called here; it stays an attribute of this module because
# the benchmark's tracer wraps `equiv.build`
from .grammar import (  # noqa: F401
    Grammar, Word, _Builder, build, compute_norms, prune, step, truncate, word_norm,
)
from .syntax import (
    Basic, Arrow, Pair, DataRef, TVar, Kind, Type, SESSION,
)

WordPair = tuple[Word, Word]
Node = frozenset[WordPair]

# The work one search may do before it is `Inconclusive`. It bounds time,
# never a verdict. The most any recorded query spends is 8,055 units, on the
# `deep` suite of the verdict corpus (10,619 on the deep pair of seed 2, left
# out of that suite for time), against 9 on the rest of the verdict corpus
# and 38 on the TreeC ladder; 100,000 leaves about ten times that. The budget
# stays per query inside a `Session`: each search draws on its own.
DEFAULT_BUDGET = 100_000


class Inconclusive(Exception):
    """The node budget ran out before either verdict was reached."""


@dataclass
class Budget:
    """One query's work: each search node processed and each simplification
    work item draws one unit, and running out raises `Inconclusive`."""

    limit: int = DEFAULT_BUDGET
    spent: int = 0

    def draw(self, where: str) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise Inconclusive(f"node budget of {self.limit} exhausted in {where}")


TraceFn = Callable[[int, int, str], None]  # depth, pair count, action


# ---------------------------------------------------------------------------
# Expansion


def expand(g: Grammar, pairs: Iterable[WordPair]) -> Optional[Node]:
    """Step every pair through the grammar. Returns the successor node, or
    None when some pair offers mismatched action sets (including a terminated
    word against a live one)."""
    out: set[WordPair] = set()
    for w1, w2 in pairs:
        s1 = step(g, w1)
        s2 = step(g, w2)
        if s1.keys() != s2.keys():
            return None
        for a in s1:
            out.add((s1[a], s2[a]))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Congruence test

# Directed rules (lhs, rhs, source pair) keyed by the head symbols of their
# two sides, `(lhs[:1], rhs[:1])`; an empty side has the empty key.
RuleIndex = dict[tuple[Word, Word], list[tuple[Word, Word, WordPair]]]


def index_rules(rel: Iterable[WordPair]) -> RuleIndex:
    """Both directions of every pair of `rel` other than ((), ())."""
    index: RuleIndex = {}
    for pair in rel:
        p, q = pair
        if p or q:
            index.setdefault((p[:1], q[:1]), []).append((p, q, pair))
            index.setdefault((q[:1], p[:1]), []).append((q, p, pair))
    return index


def congruent(pair: WordPair, own: RuleIndex, history: RuleIndex,
              live: Container[WordPair]) -> bool:
    """Membership test for the congruence (over concatenation) generated by
    a relation: peel equal head symbols or matching rule prefixes from both
    sides until the pair is reflexive. Only ever answers True when a
    derivation exists, so deleting a pair it approves is always sound.

    The relation is the rules of the `own` index whose source pair is in
    `live`, plus every rule of the `history` index. `_reduce` indexes a
    node's pairs once per round and deletes pairs from `live` without
    reindexing; `simplify` indexes its history once per call. A word pair
    (u, v) can only use rules keyed (u[:1], v[:1]), ((), v[:1]) or
    (u[:1], ()), so each step looks up those keys instead of scanning every
    rule. The depth-first search with its visited set answers whether a
    reflexive pair is reachable, which does not depend on the order it tries
    the rules in."""
    sources = ((own, live), (history, None))
    seen: set[WordPair] = set()

    def go(u: Word, v: Word) -> bool:
        if u == v:
            return True
        if (u, v) in seen:
            return False
        seen.add((u, v))
        hu, hv = u[:1], v[:1]
        if not hu:
            keys = (((), hv),)
        elif not hv:
            keys = ((hu, ()),)
        else:
            if hu == hv and go(u[1:], v[1:]):
                return True
            keys = ((hu, hv), ((), hv), (hu, ()))
        for index, alive in sources:
            for key in keys:
                for p, q, source in index.get(key, ()):
                    if ((alive is None or source in alive)
                            and u[: len(p)] == p and v[: len(q)] == q
                            and go(u[len(p):], v[len(q):])):
                        return True
        return False

    return go(*pair)


# ---------------------------------------------------------------------------
# Simplification


def _canon_pairs(g: Grammar, pairs: Iterable[WordPair]) -> Node:
    # Words are cut behind their first unnormed symbol (unreachable suffixes);
    # pairs that become identical dissolve by reflexivity later.
    return frozenset((truncate(g, a), truncate(g, b)) for a, b in pairs)


def _b2_candidates(g: Grammar, y: int, steps: int) -> list[Word]:
    """Words reachable from Y by norm-reducing transition sequences of the
    given length, sorted; every witness of a decomposition must be among
    them."""
    frontier: set[Word] = {(y,)}
    for _ in range(steps):
        nxt: set[Word] = set()
        for w in frontier:
            n = word_norm(g, w)
            for w2 in step(g, w).values():
                if word_norm(g, w2) == (n or 0) - 1:
                    nxt.add(w2)
        frontier = nxt
    return sorted(frontier)


def simplify(g: Grammar, pairs: Iterable[WordPair], history: Iterable[WordPair],
             budget: Budget) -> set[Node]:
    """Shrink a node with the reflexivity (R), congruence (C), and
    decomposition (B1/B2) rules to a fixed point.
    B2 branches: one sibling per candidate witness plus one keeping the pair
    untouched, so the result is a set of alternative nodes.

    B2 decomposes a pair (X gamma, Y delta), norm(X) <= norm(Y), only when
    gamma is non-empty. With gamma empty, every witness child holds the pair
    ((), beta delta): if beta delta is non-empty, that pair is not bisimilar
    (the empty word has no transition), so the child never reaches the empty
    node; if it is empty, the child only turns (X, Y) into (Y, X), which the
    untouched sibling already covers.

    R, C and B1 read only the node and the history, which is fixed for the
    call, so each distinct node is reduced once and the result reused when
    the node comes back (as the untouched B2 sibling, or as a witness child
    that coincides with a node already seen). Each work item popped draws on
    the query's `budget`."""
    hist = frozenset(history)
    hist_rules = index_rules(hist)
    reduced: dict[Node, Node] = {}
    results: set[Node] = set()
    work: list[tuple[Node, frozenset[WordPair]]] = [(_canon_pairs(g, pairs), frozenset())]
    seen: set[tuple[Node, frozenset[WordPair]]] = set()
    while work:
        P, b2done = work.pop()
        budget.draw("simplification")
        if (P, b2done) in seen:
            continue
        seen.add((P, b2done))
        node = reduced.get(P)
        if node is None:
            node = reduced[P] = _reduce(g, P, hist, hist_rules)
        changed = node != P

        # (B2) decompose one pair with distinct normed heads whose
        # smaller-norm side is longer than one symbol, guessing the witness
        # among the norm-reducing reachables
        target = None
        for p in sorted(node):
            u, v = p
            if p in b2done or not u or not v:
                continue
            nu, nv = g.norms.get(u[0]), g.norms.get(v[0])
            if (u[0] != v[0] and nu is not None and nv is not None
                    and len(u if nu <= nv else v) > 1):
                target = p
                break
        if target is not None:
            u, v = target
            if g.norms[u[0]] > g.norms[v[0]]:  # type: ignore[operator]
                u, v = v, u
            x, gamma = u[0], u[1:]
            y, delta = v[0], v[1:]
            base = node - {target}
            done = b2done | {target}
            for beta in _b2_candidates(g, y, g.norms[x]):  # type: ignore[arg-type]
                child = base | {((y,), (x,) + beta), (gamma, beta + delta)}
                work.append((_canon_pairs(g, child), done))
            work.append((node, done))
            continue

        if changed:
            work.append((node, b2done))
        else:
            results.add(node)
    return results


def _reduce(g: Grammar, P: Node, hist: frozenset[WordPair], hist_rules: RuleIndex) -> Node:
    """The R, C and B1 rules, applied once to a node."""
    # (R) drop reflexive pairs
    P1 = frozenset(p for p in P if p[0] != p[1])

    # (C) drop pairs derivable from the surviving pairs plus the history;
    # one at a time, so every deletion is justified by what remains.
    # A pair leaves `kept` while it is tested and for good once deleted,
    # which takes its rules out of `own`.
    kept = set(P1)
    own = index_rules(P1 - hist)
    for p in sorted(P1):
        kept.discard(p)
        if not congruent(p, own, hist_rules, kept):
            kept.add(p)

    # (B1) cancel equal normed head symbols
    P2: set[WordPair] = set()
    for u, v in kept:
        while u and v and u[0] == v[0] and g.norms.get(u[0]) is not None:
            u, v = u[1:], v[1:]
        if u != v:
            P2.add((u, v))
    return frozenset(P2)


# ---------------------------------------------------------------------------
# Search


@dataclass
class _Entry:
    pairs: Node
    history: frozenset[WordPair]
    depth: int


# Refutation probe: a bounded chain of pure expansions from a single pair. An
# action mismatch at any depth is definitive evidence the pair is not
# bisimilar, and a node containing such a pair can never reach the empty node,
# so the whole subtree (including every decomposition sibling sharing the
# pair) dies at once. Inconclusive probes change nothing.
#
# Depth: a probe that does not refute walks every level, so the depth is
# most of its cost. The deepest refutation seen is at level 6 (the seventh
# expansion): two pairs of the 10,500-pair verdict corpus and one of the
# benchmark corpus (seed 901) refute there, and every ladder refutation is
# at level 3. Depths 14, 10, 8 and 6 leave every recorded verdict and search
# unchanged, while depth 4 adds nodes to a perturbed-pair search. Depth 8
# keeps one level of margin over the deepest refutation and cuts a ladder
# pass's `step` calls from about 111,000 to 17,500.
#
# Width: no recorded probe comes near the cap (the widest level is 14 pairs
# on the ladder, 15 on the verdict corpus and 39 on its deep suite), but it
# is load-bearing. Levels grow as n^depth on an equivalent recursion with n
# labels whose branches distribute a trailing message; at n = 4 the query
# makes about 1,400 `step` calls with the cap and 233,000 without it.
_PROBE_DEPTH = 8
_PROBE_WIDTH = 192


def _pair_refuted(g: Grammar, pair: WordPair, cache: dict[WordPair, bool]) -> bool:
    if pair in cache:
        return cache[pair]
    current: Node = frozenset({pair})
    refuted = False
    for _ in range(_PROBE_DEPTH):
        nxt = expand(g, current)
        if nxt is None:
            refuted = True
            break
        if not nxt or len(nxt) > _PROBE_WIDTH or nxt == current:
            break
        current = nxt
    cache[pair] = refuted
    return refuted


def _node_size(pairs: Node) -> int:
    return sum(len(a) + len(b) for a, b in pairs)


_Queued = tuple[int, int, _Entry]


def _push(frontier: list[_Queued], entry: _Entry, order: int) -> None:
    """Queue `entry` keyed (node size, `order`), where the size is the total
    length of its words. Orders are distinct, so equal sizes come out first
    in, first out and entries are never compared."""
    heapq.heappush(frontier, (_node_size(entry.pairs), order, entry))


def search(g: Grammar, w1: Word, w2: Word, budget: int = DEFAULT_BUDGET,
           trace: TraceFn | None = None) -> bool:
    """Decide bisimilarity of two start words over a pruned grammar."""
    root = frozenset({(truncate(g, w1), truncate(g, w2))})
    frontier: list[_Queued] = []
    pushes = itertools.count()
    _push(frontier, _Entry(root, frozenset(), 0), next(pushes))
    visited = {root}
    probe_cache: dict[WordPair, bool] = {}
    quota = Budget(budget)

    while frontier:
        entry = heapq.heappop(frontier)[-1]
        quota.draw("search")

        expanded = expand(g, entry.pairs)
        if expanded is None:
            if trace:
                trace(entry.depth, len(entry.pairs), "expansion failed")
            continue
        if any(p[0] != p[1] and _pair_refuted(g, p, probe_cache) for p in expanded):
            if trace:
                trace(entry.depth, len(entry.pairs), "refuted by expansion probe")
            continue

        assumed = entry.history | entry.pairs
        siblings = simplify(g, expanded, assumed, quota)
        child_history = assumed | expanded

        pushed = 0
        for sib in siblings:
            if not sib:
                if trace:
                    trace(entry.depth + 1, 0, "empty: equivalent")
                return True
            if sib in visited:
                continue
            visited.add(sib)
            _push(frontier, _Entry(sib, child_history, entry.depth + 1), next(pushes))
            pushed += 1
        if trace:
            trace(entry.depth, len(entry.pairs), f"expanded, {pushed} new siblings")

    return False


# ---------------------------------------------------------------------------
# The public decision procedure


def _is_session(t: Type, env: K.KindEnv, datakinds: K.NameKinds) -> bool:
    """The prekind of a part of a well-kinded type, read off its syntax: a
    variable's from `env`, a name's from `datakinds`."""
    match t:
        case Basic() | Arrow() | Pair():
            return False
        case TVar(name):
            return env[name].prekind == SESSION
        case DataRef(name):
            return datakinds[name].prekind == SESSION  # type: ignore[union-attr]
    return True


class Session:
    """The equivalence queries of one program, over its tables of name kinds
    (`datakinds`) and abbreviation bodies (`abbrevs`).

    Kinds are kept per (type object, kind env object); both objects are
    held, so their ids stay theirs. A `KindError` is raised again on every
    query, never kept. Session components of every query are translated into
    one grammar that grows across queries, so a name or type translated
    before costs a memo lookup, and norms and pruning run only on the
    nonterminals that each search adds. Each search has its own budget."""

    __slots__ = ("datakinds", "abbrevs", "grammar", "_kinds", "_builder", "_done")

    def __init__(self, datakinds: K.NameKinds, abbrevs: Mapping[str, Type]) -> None:
        self.datakinds = datakinds
        self.abbrevs = abbrevs
        self._kinds: dict[tuple[int, int], tuple[Type, K.KindEnv, Kind]] = {}
        self._restart()

    def _restart(self) -> None:
        self._builder = _Builder(self.abbrevs)
        # the grammar grown so far, normed and pruned up to the last search
        self.grammar = Grammar(self._builder.productions)
        self._done = 0  # nonterminals whose norms and pruned tails are final

    def kind_of(self, env: K.KindEnv, t: Type) -> Kind:
        key = (id(t), id(env))
        hit = self._kinds.get(key)
        if hit is not None:
            return hit[2]
        kind = K.synth_kind(env, t, self.datakinds)
        self._kinds[key] = (t, env, kind)
        return kind

    def equivalent(self, t1: Type, t2: Type, env: K.KindEnv) -> bool:
        """`equivalent` for two types of the program, kinded under `env`."""
        self.kind_of(env, t1)
        self.kind_of(env, t2)
        return self._descend(t1, t2, env, DEFAULT_BUDGET, None)

    def _descend(self, a: Type, b: Type, env: K.KindEnv, budget: int,
                 trace: TraceFn | None) -> bool:
        """Equivalence of two kinded types: session types by their grammar
        words, functional types structurally. One object is equivalent to
        itself at every level, traced as reflexivity at the root is."""
        if a is b:
            if trace:
                trace(0, 0, "empty: equivalent")
            return True
        on_session = _is_session(a, env, self.datakinds)
        if on_session != _is_session(b, env, self.datakinds):
            return False
        if on_session:
            return self._bisimilar(a, b, budget, trace)
        match (a, b):
            case (Basic(x), Basic(y)):
                return x == y
            case (TVar(x), TVar(y)):
                return x == y
            case (DataRef(x), DataRef(y)):
                return x == y
            case (Arrow(m1, d1, c1), Arrow(m2, d2, c2)):
                return (m1 == m2 and self._descend(d1, d2, env, budget, trace)
                        and self._descend(c1, c2, env, budget, trace))
            case (Pair(f1, s1), Pair(f2, s2)):
                return (self._descend(f1, f2, env, budget, trace)
                        and self._descend(s1, s2, env, budget, trace))
            case _:
                return False

    def _bisimilar(self, a: Type, b: Type, budget: int, trace: TraceFn | None) -> bool:
        try:
            wa, wb = self._builder.words(a, b)
        except BaseException:
            self._restart()  # a nonterminal may be left half filled
            raise
        if wa == wb:
            # (R) at the root: equal words of one grammar are bisimilar
            if trace:
                trace(0, 0, "empty: equivalent")
            return True
        g = self.grammar
        compute_norms(g, self._done)
        prune(g, self._done)
        self._done = len(g.productions)
        return search(g, wa, wb, budget, trace)


def equivalent(t1: Type, t2: Type, env: K.KindEnv | None = None, *,
               datakinds: dict[str, S.Kind | None] | None = None,
               abbrevs: Mapping[str, Type] | None = None,
               budget: int = DEFAULT_BUDGET,
               trace: TraceFn | None = None) -> bool:
    """Sound-and-complete equivalence of kinded types. Session types go
    through the grammar pipeline; functional types descend structurally,
    comparing session components the same way. Comparing a session type
    against a functional one is False, not an error. `datakinds` and
    `abbrevs` are the program's tables of name kinds and abbreviation bodies.
    This is a session of one query, kinded directly."""
    env = env or {}
    dk = datakinds or {}
    K.synth_kind(env, t1, dk)
    if t2 is not t1:
        K.synth_kind(env, t2, dk)
    return Session(dk, abbrevs or {})._descend(t1, t2, env, budget, trace)
