"""Types as deterministic grammars in Greibach normal form.

Every type maps to a word of nonterminals; the empty word is the terminated
protocol. Each nonterminal owns at most one production per terminal, so
words form a deterministic labelled transition system and type equivalence
becomes bisimilarity of start words.

Functional types are nonterminals too, as in Almeida, Mordido and
Vasconcelos (TACAS 2020). Kinding keeps them out of `;`, `rec` and choices,
so a functional word is one nonterminal, and two are bisimilar exactly when
the types agree level by level and their session components are bisimilar.

The pipeline is: `build` (translate any number of types over one shared
grammar, keying each subterm up to the Skip laws and renaming of binders
without building a normal copy, and walking a shared subterm once; each
abbreviation name is one nonterminal, as each equation of a system is in
Almeida, Mordido and Vasconcelos, TACAS 2020),
`compute_norms` (least fixed point of the shortest-termination measure), and
`prune` (truncate production tails that sit behind an unnormed symbol and can
never be reached). Translation is two steps: `_Builder.word` gives a type's
start word, allocating a nonterminal for each key it meets first, and
`_Builder.fill` writes the productions of every nonterminal allocated since,
reading only a `rec`'s and a name's off `syntax.head`. `build` takes both.

An equivalence session (`equiv.Session`) keeps one `_Builder` for a whole
program and translates each query's types into the grammar it has grown so
far, so a name or type translated before costs a memo lookup. A query whose
two start words are equal is answered before the fill, and leaves its new
nonterminals unfilled until a later query searches. Before a search the
session fills every nonterminal, then norms and prunes the ones added since
the last search only: `compute_norms` and `prune` take the count of
nonterminals already done. After a fill every nonterminal reaches only
nonterminals that existed when it ended, so the norm and truncated tails of
one normed then are final. Within one fill an earlier nonterminal does refer
to later ones, which is why the new ones are normed together.
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
_SKIP: Key = ("skip",)


class _Builder:
    """Translates closed types (free variables are rigid) into
    productions. Every type other than Skip and `;` becomes one nonterminal
    per key (see `normal`), whose productions are the head normal form of
    the type as given, so recursion bodies are entered only by unfolding
    and head actions are always computable even when an inner recursion
    starts by running an outer one. A name is keyed by itself, so it is one
    nonterminal however often it occurs. `word` queues each new nonterminal
    on `pending` with the type it stands for, and `fill` writes its
    productions, so only a `;` spine costs Python stack. A type with an
    empty head (a name for Skip) is the empty word. One builder can
    translate any number of batches of types: what an earlier batch
    translated is reused, and each batch only adds nonterminals. Once `fill`
    returns, every nonterminal has its productions."""

    def __init__(self, names: Mapping[str, Type]) -> None:
        self.names = names
        self.productions: dict[int, dict[Terminal, Word]] = {}
        self._memo: dict[Key, Word] = {}
        # nonterminals allocated but not filled yet, each with its (empty)
        # productions and what to fill them from: a type, or a name's head
        self.pending: list[tuple[dict[Terminal, Word], Type | dict[Terminal, Type]]] = []
        # id of a composite subterm outside every binder -> (the subterm, the
        # subterm to translate in its place, its key). The subterm is held so
        # its id is not reused during the build.
        self._seen: dict[int, tuple[Type, Type, Key]] = {}
        # composite key -> a small int, so hashing a key costs its arity
        self._interned: dict[tuple, int] = {}

    def _intern(self, key: tuple) -> int:
        n = self._interned.get(key)
        if n is None:
            n = self._interned[key] = len(self._interned)
        return n

    def normal(self, t: Type, bound: tuple[str, ...] = ()) -> tuple[Type, Key, int]:
        """The subterm to translate in place of `t`, the key of `t` under the
        `rec` binders `bound` (outermost first), and the bit set of the levels
        of `bound` that its free variables refer to. Keys are taken up to the
        Skip laws (`;` drops an operand keyed as Skip) and renaming: a bound
        variable is keyed by its de Bruijn index and a free one by its name.
        A `rec` is vacuous when its body does not refer to its level; it keys
        as its body, keyed again without the binder only when the body refers
        to outer ones, and its body is translated in its place. Any other
        subterm is translated as itself, so this walk builds no type. Outside
        every binder the result depends on the subterm alone, so it is
        computed once per object: a subterm shared along several paths (as
        `subst` leaves an unfolding) is walked once, not once per path. An
        arrow or pair level costs one Python frame."""
        match t:
            case Skip():
                return t, _SKIP, 0
            case Message(polarity, payload):
                return t, ("msg", polarity, payload), 0
            case TVar(name):
                for level in range(len(bound) - 1, -1, -1):
                    if bound[level] == name:
                        return t, ("bvar", len(bound) - 1 - level), 1 << level
                return t, ("rigid", name), 0
            case DataRef(name):
                return t, ("name", name), 0
            case Basic(name):
                return t, ("basic", name), 0
        if not bound:
            hit = self._seen.get(id(t))
            if hit is not None:
                return hit[1], hit[2], 0
        out: tuple[Type, Key, int]
        match t:
            case Semi(lhs, rhs):
                _, k1, r1 = self.normal(lhs, bound)
                _, k2, r2 = self.normal(rhs, bound)
                if k1 == _SKIP:
                    out = t, k2, r2
                elif k2 == _SKIP:
                    out = t, k1, r1
                else:
                    out = t, self._intern(("semi", k1, k2)), r1 | r2
            case Choice(view, branches):
                key: list[object] = ["choice", view]
                refs = 0
                for lab, ty in branches:
                    _, k, r = self.normal(ty, bound)
                    key += (lab, k)
                    refs |= r
                out = t, self._intern(tuple(key)), refs
            case Rec(var, body):
                level = len(bound)
                sub, k, refs = self.normal(body, bound + (var,))
                if refs >> level & 1:
                    out = t, self._intern(("rec", k)), refs & ~(1 << level)
                elif refs:
                    out = self.normal(sub, bound)
                else:
                    out = sub, k, 0
            case Arrow(mult, a, b):
                (_, ka, ra), (_, kb, rb) = self.normal(a, bound), self.normal(b, bound)
                out = t, self._intern(("arrow", mult, ka, kb)), ra | rb
            case Pair(a, b):
                (_, ka, ra), (_, kb, rb) = self.normal(a, bound), self.normal(b, bound)
                out = t, self._intern(("pair", ka, kb)), ra | rb
            case _:
                raise TypeError(f"not a type: {t!r}")
        if not bound:
            self._seen[id(t)] = (t, out[0], out[1])
        return out

    def word(self, t: Type) -> Word:
        """The start word of `t`. A nonterminal met for the first time is
        allocated and queued with the type to fill it from, for `fill`; only
        an abbreviation name has its head read at once, since a name for Skip
        is the empty word."""
        match t:
            case Skip():
                return EPSILON
            case Semi(lhs, rhs):
                return self.word(lhs) + self.word(rhs)
        sub, key, _ = self.normal(t)
        if sub is not t:  # a vacuous `rec`: translate its body
            return self.word(sub)
        w = self._memo.get(key)
        if w is None:
            todo: Type | dict[Terminal, Type] = t
            if isinstance(t, DataRef) and t.name in self.names:
                todo = S.head(t, self.names)  # empty for a name for Skip
            w = self._memo[key] = (len(self.productions),) if todo else EPSILON
            if w:
                prods = self.productions[w[0]] = {}
                self.pending.append((prods, todo))
        return w

    def fill(self) -> None:
        """Write the productions of every queued nonterminal, last queued
        first. A message, a choice, a free variable, a functional type and a
        datatype name give theirs directly; a `rec` reads its head normal
        form off `syntax.head`. No session action carries a functional tag:
        an arrow or a pair has one action per component, and a basic type or
        a datatype name one with an empty continuation. This one worklist
        loop fills in every nonterminal's productions."""
        word, pending = self.word, self.pending
        while pending:  # filling one nonterminal may queue more
            prods, t = pending.pop()
            match t:
                case Message(polarity, payload):
                    prods[Terminal(polarity, payload)] = EPSILON
                case Choice(view, branches):
                    for lab, ty in branches:
                        prods[Terminal(view, lab)] = word(ty)
                case TVar(name):
                    prods[Terminal(S.VAR, name)] = EPSILON
                case Arrow(mult, dom, cod):
                    tag = "-o" if mult == S.LINEAR else "->"
                    prods[Terminal(tag, "dom")] = word(dom)
                    prods[Terminal(tag, "cod")] = word(cod)
                case Pair(fst, snd):
                    prods[Terminal("*", "fst")] = word(fst)
                    prods[Terminal("*", "snd")] = word(snd)
                case Basic(name):
                    prods[Terminal("=", name)] = EPSILON
                case DataRef(name):  # a datatype: names are queued as their heads
                    prods[Terminal("#", name)] = EPSILON
                case _:  # a `rec`, or the head of an abbreviation name
                    actions = S.head(t, self.names) if isinstance(t, Rec) else t
                    for a, k in actions.items():
                        prods[a] = word(k)

    def words(self, *types: Type) -> list[Word]:
        """The start words of `types`, with every nonterminal they reach
        filled in."""
        out = [self.word(t) for t in types]
        self.fill()
        return out


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
