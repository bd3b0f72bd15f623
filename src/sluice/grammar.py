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
without building a normal copy; each abbreviation name is one nonterminal,
as each equation of a system is in Almeida, Mordido and Vasconcelos, TACAS
2020),
`compute_norms` (least fixed point of the shortest-termination measure), and
`prune` (truncate production tails that sit behind an unnormed symbol and can
never be reached). Translation is two steps: `_Builder.word` gives a type's
start word, allocating a nonterminal for each key it meets first, and
`_Builder.fill` writes the productions of every nonterminal allocated since,
reading only a `rec`'s and a name's off `syntax.head`. `build` takes both.
The keys come from the walk that kinds types (`kinds.Walk`), which visits a
shared subterm once.

An equivalence session (`equiv.Session`) keeps one `_Builder` for a whole
program and translates each query's types into the grammar it has grown so
far, so a name or type translated before costs a memo lookup. The builder
reads the session's walk, under the kind env of the query, so a type the
session has kinded is keyed without a second walk. A query whose
two start words are equal is answered before the fill, and leaves its new
nonterminals unfilled until a later query searches. Before a search the
session fills every nonterminal. The search walks from its root pair over
the grammar as filled, since pruning changes no action set along any path;
`truncate` cuts a word there only after a symbol an earlier search normed
as unnormed, never at one not normed yet. Only a search that gets past its
root then norms and prunes the nonterminals added since the last one did:
`compute_norms` and `prune` take the count of nonterminals already done,
which is `len(norms)`.
After a fill every nonterminal reaches only nonterminals that existed when it
ended, so the norm and truncated tails of one normed then are final. Within
one fill an earlier nonterminal does refer to later ones, which is why the
new ones are normed together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from . import kinds as K
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

class _Builder:
    """Translates closed types (free variables are rigid) into
    productions. Every type other than Skip and `;` becomes one nonterminal
    per key, which the builder's `walk` gives (see `kinds.Walk.facts`), and
    its productions are the head normal form of the type as given, so
    recursion bodies are entered only by unfolding and head actions are
    always computable even when an inner recursion starts by running an
    outer one. A name is keyed by itself, so it is one nonterminal however
    often it occurs. `word` queues each new nonterminal on `pending` with
    the type it stands for and the kind env it was reached under, and `fill`
    writes its productions, so only a `;` spine costs Python stack. A type
    with an empty head (a name for Skip) is the empty word. One builder can
    translate any number of batches of types: what an earlier batch
    translated is reused, and each batch only adds nonterminals. Once `fill`
    returns, every nonterminal has its productions."""

    def __init__(self, names: Mapping[str, Type], walk: K.Walk) -> None:
        self.names = names
        self.walk = walk
        self.productions: dict[int, dict[Terminal, Word]] = {}
        self._memo: dict[K.Key, Word] = {}
        # nonterminals allocated but not filled yet, each with its (empty)
        # productions, what to fill them from (a type, or a name's head) and
        # the kind env of the query, under which the walk has seen its parts
        self.pending: list[tuple[dict[Terminal, Word], Type | dict[Terminal, Type],
                                 K.KindEnv]] = []

    def word(self, t: Type, env: K.KindEnv) -> Word:
        """The start word of `t`, keyed under the kind env `env`. A
        nonterminal met for the first time is allocated and queued with the
        type to fill it from, for `fill`; only an abbreviation name has its
        head read at once, since a name for Skip is the empty word."""
        cls = t.__class__
        if cls is Semi:
            return self.word(t.lhs, env) + self.word(t.rhs, env)
        if cls is Skip:
            return EPSILON
        _, _, _, _, _, sub, key, _ = self.walk.facts(t, env)
        if sub is not t:  # a vacuous `rec`: translate its body
            return self.word(sub, env)
        w = self._memo.get(key)
        if w is None:
            todo: Type | dict[Terminal, Type] = t
            if cls is DataRef and t.name in self.names:
                todo = S.head(t, self.names)  # empty for a name for Skip
            w = self._memo[key] = (len(self.productions),) if todo else EPSILON
            if w:
                prods = self.productions[w[0]] = {}
                self.pending.append((prods, todo, env))
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
            prods, t, env = pending.pop()
            cls = t.__class__
            if cls is Message:
                prods[t.polarity, t.payload] = EPSILON
            elif cls is Choice:
                view = t.view
                for lab, ty in t.branches:
                    prods[view, lab] = word(ty, env)
            elif cls is TVar:
                prods[S.VAR, t.name] = EPSILON
            elif cls is DataRef:  # a datatype: names are queued as their heads
                prods["#", t.name] = EPSILON
            elif cls is Basic:
                prods["=", t.name] = EPSILON
            elif cls is Arrow:
                tag = "-o" if t.mult == S.LINEAR else "->"
                prods[tag, "dom"] = word(t.dom, env)
                prods[tag, "cod"] = word(t.cod, env)
            elif cls is Pair:
                prods["*", "fst"] = word(t.fst, env)
                prods["*", "snd"] = word(t.snd, env)
            else:  # a `rec`, or the head of an abbreviation name
                actions = S.head(t, self.names) if cls is Rec else t
                for a, k in actions.items():
                    prods[a] = word(k, env)


def build(*types: Type, names: Mapping[str, Type] | None = None) -> tuple:
    """Translate types into one shared grammar, returning
    `(grammar, *start_words)`. Inputs must be contractive. `names` maps each
    abbreviation the types reach to its body. Structurally identical subterms
    share nonterminals, so building the same type twice yields the same start
    word."""
    b, env = _Builder(names or {}, K.Walk({})), {}  # no name is kinded here
    words = [b.word(t, env) for t in types]
    b.fill()
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
    """Cut a word just after its first symbol known to be unnormed: one whose
    norm is None. A nonterminal not normed yet is never cut at."""
    for i, nt in enumerate(w):
        if g.norms.get(nt, 0) is None:
            return w[: i + 1]
    return w


def dump(g: Grammar, starts: list[Word] | None = None) -> str:
    """Line-oriented listing for debugging and golden tests."""
    lines = []
    if starts:
        for i, w in enumerate(starts):
            lines.append(f"start{i} = {format_word(w)}")
    for nt in g.nonterminals():
        for (tag, arg), rhs in sorted(g.productions[nt].items()):
            tail = (" " + format_word(rhs)) if rhs else ""
            lines.append(f"X{nt} -> {tag}{arg}{tail}")
    for nt in g.nonterminals():
        if g.norms:
            n = g.norms.get(nt)
            lines.append(f"norm(X{nt}) = {'inf' if n is None else n}")
    return "\n".join(lines)


def format_word(w: Word) -> str:
    return " ".join(f"X{nt}" for nt in w) if w else "()"
