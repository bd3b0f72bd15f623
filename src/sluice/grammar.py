"""Types as deterministic grammars in Greibach normal form.

Every type maps to a word of nonterminals; the empty word is the terminated
protocol. Each nonterminal owns at most one production per terminal, so
words form a deterministic labelled transition system and type equivalence
becomes bisimilarity of start words.

Functional types are nonterminals too, as in Almeida, Mordido and
Vasconcelos (TACAS 2020). Kinding keeps them out of `;`, `rec` and choices,
so a functional word is one nonterminal, and two are bisimilar exactly when
the types agree level by level and their session components are bisimilar.

The pipeline is: `build` (Skip-normalize and translate any number of types
over one shared grammar, walking a shared subterm once, and reading each
session nonterminal's productions off `syntax.head`; each
abbreviation name is one nonterminal, as each equation of a system is in
Almeida, Mordido and Vasconcelos, TACAS 2020),
`compute_norms` (least fixed point of the shortest-termination measure), and
`prune` (truncate production tails that sit behind an unnormed symbol and can
never be reached).

An equivalence session (`equiv.Session`) keeps one `_Builder` for a whole
program and translates each query's types into the grammar it has grown so
far, so a name or type translated before costs a memo lookup. Norms and
pruning then run on the nonterminals added since the last search only:
`compute_norms` and `prune` take the count of nonterminals already done. A
nonterminal added by a finished translation reaches only nonterminals that
existed when that translation ended, so its norm and its truncated tails are
final. Within one translation an earlier nonterminal does refer to later
ones, which is why the new ones are normed together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from . import syntax as S
from .syntax import (
    Basic, Arrow, Pair, DataRef, Skip, Semi, Message, Choice, Rec, TVar, Terminal, Type,
)

Word = tuple[int, ...]
EPSILON: Word = ()

Norm = int | None  # None means unnormed (no path to the empty word)


@dataclass
class Grammar:
    productions: dict[int, dict[Terminal, Word]]
    norms: dict[int, Norm] = field(default_factory=dict)

    def nonterminals(self) -> list[int]:
        return sorted(self.productions)


def step(g: Grammar, w: Word) -> dict[Terminal, Word]:
    """One-step transitions of a word: rewrite the head nonterminal."""
    if not w:
        return {}
    head, tail = w[0], w[1:]
    return {a: delta + tail for a, delta in g.productions[head].items()}


# ---------------------------------------------------------------------------
# Translation


# A key identifies a type up to alpha-equivalence: a short tuple for a leaf,
# an interned int for a composite type.
Key = object


class _Builder:
    """Translates closed types (free variables are rigid) into
    productions. Every type other than Skip and `;` becomes one nonterminal
    whose productions are its head normal form, so recursion bodies are
    entered only by unfolding and head actions are always computable even
    when an inner recursion starts by running an outer one. A name is keyed
    by itself, so it is one nonterminal however often it occurs. `word`
    queues each new nonterminal with its head actions on `pending`, for
    `words` to fill in, so only a `;` spine costs Python stack. A type with
    an empty head (a name for Skip) is the empty word. One builder can
    translate any number of batches of types: what an earlier batch
    translated is reused, and each batch only adds nonterminals."""

    def __init__(self, names: Mapping[str, Type]) -> None:
        self.names = names
        self.productions: dict[int, dict[Terminal, Word]] = {}
        self._memo: dict[Key, Word] = {}
        self.pending: list[tuple[dict[Terminal, Word], dict[Terminal, Type]]] = []
        # id of a composite subterm outside every binder -> (the subterm, its
        # normal form, the key of that). The subterm is held so its id is not
        # reused during the build.
        self._seen: dict[int, tuple[Type, Type, Key]] = {}
        # composite key -> a small int, so hashing a key costs its arity
        self._interned: dict[tuple, int] = {}

    def _intern(self, key: tuple) -> int:
        n = self._interned.get(key)
        if n is None:
            n = self._interned[key] = len(self._interned)
        return n

    def normal(self, t: Type, bound: tuple[str, ...] = ()) -> tuple[Type, Key, int]:
        """The Skip-normal form of `t` under the `rec` binders `bound`
        (outermost first), its key, and the bit set of the levels of `bound`
        that its free variables refer to. A bound variable is keyed by its
        de Bruijn index and a free one by its name. A `rec` is vacuous when
        its body does not refer to its level; it is dropped, and its body is
        keyed again without the binder only when the body refers to outer
        ones. Outside every binder the result depends on the subterm alone,
        so it is computed once per object: a subterm shared along several
        paths (as `subst` leaves an unfolding) is walked once, not once per
        path."""
        match t:
            case Skip():
                return t, ("skip",), 0
            case Message(polarity, payload):
                return t, ("msg", polarity, payload), 0
            case TVar(name):
                for level in range(len(bound) - 1, -1, -1):
                    if bound[level] == name:
                        return t, ("bvar", len(bound) - 1 - level), 1 << level
                return t, ("rigid", name), 0
            case DataRef(name):
                return t, ("name", name), 0
        if not bound:
            hit = self._seen.get(id(t))
            if hit is not None:
                return hit[1], hit[2], 0
        out: tuple[Type, Key, int]
        match t:
            case Semi(lhs, rhs):
                lhs2, k1, r1 = self.normal(lhs, bound)
                rhs2, k2, r2 = self.normal(rhs, bound)
                if isinstance(lhs2, Skip):
                    out = rhs2, k2, r2
                elif isinstance(rhs2, Skip):
                    out = lhs2, k1, r1
                else:
                    same = lhs2 is lhs and rhs2 is rhs
                    out = (t if same else Semi(lhs2, rhs2)), self._intern(("semi", k1, k2)), r1 | r2
            case Choice(view, branches):
                key: list[object] = ["choice", view]
                branches2 = []
                refs, same = 0, True
                for lab, ty in branches:
                    ty2, k, r = self.normal(ty, bound)
                    branches2.append((lab, ty2))
                    key += (lab, k)
                    refs |= r
                    same = same and ty2 is ty
                out = (t if same else Choice(view, tuple(branches2))), self._intern(tuple(key)), refs
            case Rec(var, body):
                level = len(bound)
                body2, k, refs = self.normal(body, bound + (var,))
                if refs >> level & 1:
                    rec = t if body2 is body else Rec(var, body2)
                    out = rec, self._intern(("rec", k)), refs & ~(1 << level)
                elif refs:
                    out = self.normal(body2, bound)
                else:
                    out = body2, k, 0
            case _:
                out = self._functional(t, bound)
        if not bound:
            self._seen[id(t)] = (t, out[0], out[1])
        return out

    def _functional(self, t: Type, bound: tuple[str, ...]) -> tuple[Type, Key, int]:
        """`normal` for a basic type, an arrow or a pair (never under a `rec`):
        the type itself, keyed by its components' keys. An arrow or pair
        component is walked here, not through `normal`: one frame per level."""
        match t:
            case Basic(name) if not bound:
                return t, ("basic", name), 0
            case Arrow(mult, a, b) if not bound:
                key: list[object] = ["arrow", mult]
            case Pair(a, b) if not bound:
                key = ["pair"]
            case _:
                raise TypeError(f"not a session type: {t!r}")
        for part in (a, b):
            hit = self._seen.get(id(part))
            if hit is None and isinstance(part, (Arrow, Pair)):
                hit = self._seen[id(part)] = (part, *self._functional(part, bound)[:2])
            key.append(hit[2] if hit else self.normal(part)[1])
        return t, self._intern(tuple(key)), 0

    def word(self, t: Type) -> Word:
        match t:
            case Skip():
                return EPSILON
            case Semi(lhs, rhs):
                return self.word(lhs) + self.word(rhs)
        t2, key, _ = self.normal(t)
        if t2 is not t:  # an input, or part of a name's body, not yet normal
            return self.word(t2)
        w = self._memo.get(key)
        if w is None:
            actions = _head(t, self.names)
            w = self._memo[key] = (len(self.productions),) if actions else EPSILON
            if w:
                prods = self.productions[w[0]] = {}
                self.pending.append((prods, actions))
        return w

    def words(self, *types: Type) -> list[Word]:
        """The start words of `types`, with every nonterminal they reach
        filled in. This one worklist loop fills in every nonterminal's
        productions."""
        word, pending = self.word, self.pending
        out = [word(t) for t in types]
        while pending:  # filling one nonterminal may queue more
            prods, actions = pending.pop()
            for a, k in actions.items():
                prods[a] = word(k)
        return out


def _head(t: Type, names: Mapping[str, Type]) -> dict[Terminal, Type]:
    """`syntax.head`, extended to functional types: an arrow or a pair has
    one action per component, and a basic type or a datatype name one with
    an empty continuation. No session action carries their tags."""
    match t:
        case Arrow(mult, dom, cod):
            tag = "-o" if mult == S.LINEAR else "->"
            return {Terminal(tag, "dom"): dom, Terminal(tag, "cod"): cod}
        case Pair(fst, snd):
            return {Terminal("*", "fst"): fst, Terminal("*", "snd"): snd}
        case Basic(name):
            return {Terminal("=", name): Skip()}
        case DataRef(name) if name not in names:
            return {Terminal("#", name): Skip()}
    return S.head(t, names)


def build(*types: Type, names: Mapping[str, Type] | None = None) -> tuple:
    """Translate types into one shared grammar, returning
    `(grammar, *start_words)`. Inputs must be contractive. `names` maps each
    abbreviation the types reach to its body. Structurally identical subterms
    share nonterminals, so building the same type twice yields the same start
    word."""
    b = _Builder(names or {})
    words = b.words(*types)
    return (Grammar(b.productions), *words)


# ---------------------------------------------------------------------------
# Norms


def word_norm(g: Grammar, w: Word) -> Norm:
    total = 0
    for nt in w:
        n = g.norms.get(nt)
        if n is None:
            return None
        total += n
    return total


def compute_norms(g: Grammar, done: int = 0) -> Grammar:
    """Least fixed point, starting from everything unnormed: a nonterminal's
    norm is one more than the cheapest norm among its production tails.
    The first `done` nonterminals, in the order they were added, keep the
    norms they have: their tails reach no later nonterminal."""
    fresh = list(itertools.islice(g.productions.items(), done, None))
    for nt, _ in fresh:
        g.norms[nt] = None
    changed = True
    while changed:
        changed = False
        for nt, prods in reversed(fresh):  # tails mostly name later nonterminals
            best: Norm = None
            for delta in prods.values():
                tail = word_norm(g, delta)
                if tail is None:
                    continue
                if best is None or 1 + tail < best:
                    best = 1 + tail
            if best is not None and best != g.norms[nt]:
                g.norms[nt] = best
                changed = True
    return g


def prune(g: Grammar, done: int = 0) -> Grammar:
    """Truncate every production tail: the symbols behind its first unnormed
    one can never be reached, so bisimilarity of all words is preserved.
    The first `done` nonterminals, in the order they were added, are pruned
    already."""
    for prods in itertools.islice(g.productions.values(), done, None):
        for a, delta in prods.items():
            prods[a] = truncate(g, delta)
    return g


def truncate(g: Grammar, w: Word) -> Word:
    """Cut a word just after its first unnormed symbol."""
    for i, nt in enumerate(w):
        if g.norms.get(nt) is None:
            return w[: i + 1]
    return w


def dump(g: Grammar, starts: list[Word] | None = None) -> str:
    """Line-oriented listing for debugging and golden tests."""
    lines = []
    if starts:
        for i, w in enumerate(starts):
            lines.append(f"start{i} = {format_word(w)}")
    for nt in g.nonterminals():
        for a in sorted(g.productions[nt]):
            rhs = g.productions[nt][a]
            tail = (" " + format_word(rhs)) if rhs else ""
            lines.append(f"X{nt} -> {a}{tail}")
    for nt in g.nonterminals():
        if g.norms:
            n = g.norms.get(nt)
            lines.append(f"norm(X{nt}) = {'inf' if n is None else n}")
    return "\n".join(lines)


def format_word(w: Word) -> str:
    return " ".join(f"X{nt}" for nt in w) if w else "()"
