"""Session types as deterministic grammars in Greibach normal form.

Every session type maps to a word of nonterminals; the empty word is the
terminated protocol. Each nonterminal owns at most one production per
terminal, so words form a deterministic labelled transition system and type
equivalence becomes bisimilarity of start words.

The pipeline is: `build` (translate any number of types over one shared
grammar, reading each nonterminal's productions off `syntax.head`; each
abbreviation name is one nonterminal, as each equation of a system is in
Almeida, Mordido and Vasconcelos, TACAS 2020),
`compute_norms` (least fixed point of the shortest-termination measure), and
`prune` (truncate production tails that sit behind an unnormed symbol and can
never be reached).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import syntax as S
from .syntax import DataRef, Skip, Semi, Message, Choice, Rec, TVar, Terminal, Type

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


def normalize(t: Type) -> Type:
    """Skip-normalization: quotient by the monoid laws so the empty word is
    the unique image of terminated behavior, and drop vacuous recursion.
    A subterm that is already normal comes back as the same object, so a
    subterm shared along several paths stays shared for `_Builder`."""
    match t:
        case Semi(lhs, rhs):
            lhs2, rhs2 = normalize(lhs), normalize(rhs)
            if (lhs2 is lhs and rhs2 is rhs
                    and not isinstance(lhs, Skip) and not isinstance(rhs, Skip)):
                return t
            return S.seq(lhs2, rhs2)
        case Choice(view, branches):
            branches2 = tuple((lab, normalize(ty)) for lab, ty in branches)
            for (_, ty2), (_, ty) in zip(branches2, branches):
                if ty2 is not ty:
                    return Choice(view, branches2)
            return t
        case Rec(var, body):
            body2 = normalize(body)
            if var not in S.free_tvars(body2):
                return body2
            return t if body2 is body else Rec(var, body2)
        case _:
            return t


class _Builder:
    """Translates closed session types (free variables are rigid) into
    productions. Every type other than Skip and `;` becomes one nonterminal
    whose productions are its head normal form, so recursion bodies are
    entered only by unfolding and head actions are always computable even
    when an inner recursion starts by running an outer one. A name is keyed
    by itself, so it is one nonterminal however often it occurs; `build`
    fills in its productions later, so a chain of names costs no Python
    stack. A type with an empty head (a name for Skip) is the empty word."""

    def __init__(self, names: Mapping[str, Type]) -> None:
        self.names = names
        self.productions: dict[int, dict[Terminal, Word]] = {}
        self._memo: dict[object, Word] = {}
        self.deferred: list[tuple[dict[Terminal, Word], dict[Terminal, Type]]] = []
        # id of a composite subterm outside every binder -> (the subterm, its
        # key). The subterm is held so its id is not reused during the build.
        self._keys: dict[int, tuple[Type, object]] = {}

    def _canon(self, t: Type, bound: tuple[str, ...] = ()) -> object:
        """Hashable key identifying a subterm up to alpha-equivalence. Outside
        every binder a composite subterm's key depends on the subterm alone,
        so it is computed once per object: a subterm shared along several
        paths (as `subst` leaves an unfolding) is walked once, not once per
        path. Leaves are keyed directly, which is cheaper than a lookup."""
        match t:
            case Skip():
                return ("skip",)
            case Message(polarity, payload):
                return ("msg", polarity, payload)
            case TVar(name):
                for depth, b in enumerate(reversed(bound)):
                    if b == name:
                        return ("bvar", depth)
                return ("rigid", name)
        if bound:
            return self._composite_key(t, bound)
        hit = self._keys.get(id(t))
        if hit is None:
            hit = self._keys[id(t)] = (t, self._composite_key(t, bound))
        return hit[1]

    def _composite_key(self, t: Type, bound: tuple[str, ...]) -> object:
        match t:
            case Semi(lhs, rhs):
                return ("semi", self._canon(lhs, bound), self._canon(rhs, bound))
            case Choice(view, branches):
                return ("choice", view,
                        tuple((lab, self._canon(ty, bound)) for lab, ty in branches))
            case Rec(var, body):
                return ("rec", self._canon(body, bound + (var,)))
            case DataRef(name):
                return ("name", name)
        raise TypeError(f"not a session type: {t!r}")

    def word(self, t: Type) -> Word:
        match t:
            case Skip():
                return EPSILON
            case Semi(lhs, rhs):
                return self.word(lhs) + self.word(rhs)
        key = self._canon(t)
        w = self._memo.get(key)
        if w is None:
            actions = S.head(t, self.names)
            w = self._memo[key] = (len(self.productions),) if actions else EPSILON
            if not w:
                return w
            prods = self.productions[w[0]] = {}
            if isinstance(t, DataRef):
                self.deferred.append((prods, actions))
            else:
                prods.update((a, self.word(k)) for a, k in actions.items())
        return w


def build(*types: Type, names: Mapping[str, Type] | None = None) -> tuple:
    """Translate session types into one shared grammar, returning
    `(grammar, *start_words)`. Inputs must be contractive. `names` maps each
    abbreviation the types reach to its body. Structurally identical subterms
    share nonterminals, so building the same type twice yields the same start
    word."""
    b = _Builder(names or {})
    words = [b.word(normalize(t)) for t in types]
    while b.deferred:  # the names met, and the names they meet in turn
        prods, actions = b.deferred.pop()
        prods.update((a, b.word(k)) for a, k in actions.items())
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


def compute_norms(g: Grammar) -> Grammar:
    """Least fixed point, starting from everything unnormed: a nonterminal's
    norm is one more than the cheapest norm among its production tails."""
    g.norms = {nt: None for nt in g.productions}
    changed = True
    while changed:
        changed = False
        for nt, prods in reversed(g.productions.items()):  # tails mostly name later nonterminals
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


def prune(g: Grammar) -> Grammar:
    """Truncate every production tail: the symbols behind its first unnormed
    one can never be reached, so bisimilarity of all words is preserved."""
    for prods in g.productions.values():
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
