"""The four-point kind lattice, and the one walk that kinds a type and keys
it for translation.

The lattice is the diamond with SU at the bottom and TL at the top: session
sits below functional in the prekind order, unrestricted below linear in the
multiplicity order, and TU, SL are incomparable.

A `Walk` visits a type once, bottom-up, and computes the facts of every
subterm (`Walk.facts`): its kind, first kind error, unguarded names and
contractivity, read off as the walk leaves each `rec`, and the key that
translation into a grammar (`grammar._Builder`) reads. Outside every binder
a subterm's facts depend on the subterm and the kind env alone, so a walk
keeps them by the identity of both: a subterm shared along several paths
(as `subst` leaves an unfolding) is walked once, not once per path, and an
equivalence session (`equiv.Session`) that kinds a type and then translates
it walks it once. `kinding`, `synth_kind` and `contractive` are views of a
fresh walk; the typechecker reads the unguarded names of a declaration off
`kinding` itself.
"""

from __future__ import annotations

from .diagnostics import TOO_DEEP, Diagnostic, DiagnosticError
from . import syntax as S
from .syntax import (
    Kind, SU, SL, TU, TL, SESSION, FUNCTIONAL, UNRESTRICTED, LINEAR,
    Basic, Arrow, Pair, DataRef, Skip, Semi, Message, Choice, Rec, TVar, Type,
)

KindEnv = dict[str, Kind]


def lub(k1: Kind, k2: Kind) -> Kind:
    pre = FUNCTIONAL if FUNCTIONAL in (k1.prekind, k2.prekind) else SESSION
    mult = LINEAR if LINEAR in (k1.mult, k2.mult) else UNRESTRICTED
    return Kind(pre, mult)


def subkind(k1: Kind, k2: Kind) -> bool:
    return lub(k1, k2) == k2


class KindError(DiagnosticError):
    pass


def _fail(msg: str) -> KindError:
    return KindError(Diagnostic(0, 0, msg))


# Kinds of declared type names; None marks a rejected declaration.
NameKinds = dict[str, Kind | None]

Unguarded = frozenset[str | DataRef]

Kinding = tuple[Kind | None, str | None, Unguarded, bool]

# A key identifies a type up to the Skip laws and alpha-equivalence: a short
# tuple for a leaf, an interned int for a composite type.
Key = object
_SKIP: Key = ("skip",)

# (kind, first error, unguarded, no action, loops, subterm to translate in
# its place, key, binder bits) of a subterm; see `Walk.facts`
Facts = tuple[Kind | None, str | None, Unguarded, bool, bool, Type, Key, int]

_NOTHING: Unguarded = frozenset()
_PLAIN = {UNRESTRICTED: TU, LINEAR: TL}


class Walk:
    """The facts of types under the kind envs they are walked with, over
    one table of name kinds. A walk keeps the facts of every subterm met
    outside every binder, by (kind env object, type object), for as long as
    it lives. The table must not change while the walk is in use."""

    __slots__ = ("names", "_scopes", "_interned")

    def __init__(self, names: NameKinds) -> None:
        self.names = names
        # id of a kind env -> the env, held so that its id stays its own, and
        # the facts of the types walked under it by the id of the type; the
        # facts hold the type as the subterm to translate, so its id stays
        # its own too
        self._scopes: dict[int, tuple[KindEnv, dict[int, Facts]]] = {}
        # composite key -> a small int, so hashing a key costs its arity
        self._interned: dict[tuple, int] = {}

    def facts(self, t: Type, env: KindEnv) -> Facts:
        """The facts of `t` under `env`:
        - its least kind, None only where an unbound variable or a bad name
          was met; past the first error a kind is no longer checked;
        - the first kind error in the order a depth-first check meets them;
        - the variables and names reachable from its head without an action;
        - whether it performs no action, and whether some `rec` in it loops;
        - the subterm to translate in its place, its key, and the bit set of
          the `rec` binders around it that its free variables refer to (none
          at the root).
        A type nested deeper than the walk can follow on the Python stack
        raises KindError(TOO_DEEP)."""
        scope = self._scopes.get(id(env))
        if scope is None:
            scope = self._scopes[id(env)] = env, {}
        hit = scope[1].get(id(t))  # a frame less for a type seen before
        if hit is not None:
            return hit
        try:
            return self._walk(t, env, scope[1], ())
        except RecursionError:
            raise _fail(TOO_DEEP) from None

    def _walk(self, t: Type, env: KindEnv, memo: dict[int, Facts],
              bound: tuple[str, ...]) -> Facts:
        """The facts of `t` under the `rec` binders `bound` (outermost
        first). A variable bound in `bound` is SU and keyed by its de Bruijn
        index; any other takes its kind from `env` and is keyed rigidly by
        its name. `;` drops an operand keyed as Skip. A `rec` is vacuous when
        its body does not refer to its level; it keys as its body, keyed
        again without the binder only when the body refers to outer ones,
        and its body is translated in its place. Any other subterm is
        translated as itself, so the walk builds no type.

        Outside every binder the facts depend on `t` and `env` alone, and
        `memo` keeps them, except a vacuous `rec`'s, which do not hold it.
        The memo is read before anything else, and each level costs one
        Python frame."""
        if not bound:
            hit = memo.get(id(t))
            if hit is not None:
                return hit
        out: Facts
        interned = self._interned
        cls = t.__class__
        if cls is Message:
            out = SL, None, _NOTHING, False, False, t, ("msg", t.polarity, t.payload), 0
        elif cls is Semi:
            lhs, rhs = t.lhs, t.rhs
            k1, e1, u1, n1, l1, _, y1, r1 = self._walk(lhs, env, memo, bound)
            k2, e2, u2, n2, l2, _, y2, r2 = self._walk(rhs, env, memo, bound)
            error = e1 or e2
            if error is None:
                if k1 is not None and k1.prekind != SESSION:
                    error = (f"sequential composition requires session types; "
                             f"left operand {S.pretty(lhs)} has kind {k1}")
                elif k2 is not None and k2.prekind != SESSION:
                    error = (f"sequential composition requires session types; "
                             f"right operand {S.pretty(rhs)} has kind {k2}")
            if n1 and u2:
                u1 = u1 | u2 if u1 else u2
            kind = None
            if k1 is not None and k2 is not None:
                kind = SU if k1.mult == UNRESTRICTED and k2.mult == UNRESTRICTED else SL
            if y1 == _SKIP:
                y1, r1 = y2, r2
            elif y2 != _SKIP:
                y1, r1 = interned.setdefault(("semi", y1, y2), len(interned)), r1 | r2
            out = kind, error, u1, n1 and n2, l1 or l2, t, y1, r1
        elif cls is Skip:
            out = SU, None, _NOTHING, True, False, t, _SKIP, 0
        elif cls is Choice:
            error, loops, refs = None, False, 0
            key: list[object] = ["choice", t.view]
            for lab, ty in t.branches:
                k, e, _, _, l, _, y, r = self._walk(ty, env, memo, bound)
                if error is None:
                    error = e
                    if e is None and k is not None and k.prekind != SESSION:
                        error = f"choice branch {lab} must be a session type, got kind {k}"
                loops = loops or l
                key += (lab, y)
                refs |= r
            y = interned.setdefault(tuple(key), len(interned))
            out = SL, error, _NOTHING, False, loops, t, y, refs
        elif cls is Rec:
            var, level = t.var, len(bound)
            k, error, u, n, loops, sub, y, refs = self._walk(t.body, env, memo, bound + (var,))
            if error is None and k is not None and k.prekind != SESSION:
                error = "only session types can be recursive"
            if var in u:
                loops, u = True, u - {var}
            if refs >> level & 1:
                y = interned.setdefault(("rec", y), len(interned))
                sub, refs = t, refs & ~(1 << level)
            elif refs:
                sub, y, refs = self._walk(sub, env, memo, bound)[5:]
            out = k, error, u, n, loops, sub, y, refs
        elif cls is TVar:
            name = t.name
            for level in range(len(bound) - 1, -1, -1):
                if bound[level] == name:  # recursion variables are session atoms
                    out = (SU, None, frozenset((name,)), True, False, t,
                           ("bvar", len(bound) - 1 - level), 1 << level)
                    break
            else:
                k = env.get(name)
                out = (k, None if k is not None else f"unbound type variable {name}",
                       frozenset((name,)), True, False, t, ("rigid", name), 0)
        elif cls is Basic:
            out = TU, None, _NOTHING, False, False, t, ("basic", t.name), 0
        elif cls is DataRef:
            name = t.name
            k = self.names.get(name)
            error = None
            if k is None:
                error = (f"type {name} is ill-formed" if name in self.names
                         else f"unknown type name {name}")
            out = k, error, frozenset((t,)), k == SU, False, t, ("name", name), 0
        elif cls is Arrow:
            _, e1, _, _, l1, _, y1, r1 = self._walk(t.dom, env, memo, bound)
            _, e2, _, _, l2, _, y2, r2 = self._walk(t.cod, env, memo, bound)
            out = (_PLAIN[t.mult], e1 or e2, _NOTHING, False, l1 or l2, t,
                   interned.setdefault(("arrow", t.mult, y1, y2), len(interned)), r1 | r2)
        elif cls is Pair:
            k1, e1, _, _, l1, _, y1, r1 = self._walk(t.fst, env, memo, bound)
            k2, e2, _, _, l2, _, y2, r2 = self._walk(t.snd, env, memo, bound)
            linear = k1 is not None and k2 is not None and LINEAR in (k1.mult, k2.mult)
            out = (TL if linear else TU, e1 or e2, _NOTHING, False, l1 or l2, t,
                   interned.setdefault(("pair", y1, y2), len(interned)), r1 | r2)
        else:
            raise TypeError(f"not a type: {t!r}")
        if not bound and out[5] is t:
            memo[id(t)] = out
        return out

    def kind(self, env: KindEnv, t: Type) -> Kind:
        """Least kind of `t` under `env`. Raises KindError on its first kind
        error, else on non-contractive recursion."""
        facts = self.facts(t, env)
        if facts[1] is not None:
            raise _fail(facts[1])
        if facts[4]:
            raise _fail(f"non-contractive recursive type {S.pretty(t)}")
        return facts[0]  # type: ignore[return-value]


def kinding(env: KindEnv, t: Type, names: NameKinds | None = None) -> Kinding:
    """Walk `t` once, returning `(kind, error, unguarded, contractive)`:
    the least kind, or None when `error`, the first kind error in the order
    a depth-first check meets them, is set; the variables and names
    reachable from the head of `t` without an action; and whether every
    `rec` in `t` is guarded. `names` maps declared type names (datatypes and
    abbreviations) to their kinds; a name missing from it is unknown, and a
    name of kind SU guards nothing. The walk does not stop at a kind error,
    so an ill-kinded type still gets its unguarded set and contractivity.
    A type nested too deep to walk raises KindError(TOO_DEEP)."""
    kind, error, unguarded, _, loops, _, _, _ = Walk(names or {}).facts(t, env)
    return (kind if error is None else None), error, unguarded, not loops


def synth_kind(env: KindEnv, t: Type, datatypes: NameKinds | None = None) -> Kind:
    """Least kind of a type. Raises KindError on the first ill-formed part
    or unbound variable a depth-first walk meets, else on non-contractive
    recursion. `datatypes` maps declared type names (datatypes and
    abbreviations) to their kinds; without it any DataRef is rejected as
    unknown."""
    return Walk(datatypes or {}).kind(env, t)


def contractive(env: KindEnv, t: Type, datatypes: NameKinds | None = None) -> bool:
    """True when every rec binder in `t` is guarded by at least one action;
    a name of kind SU in `datatypes` guards nothing. An ill-kinded or open
    type gets an answer too; only a type too deep to walk raises
    KindError(TOO_DEEP)."""
    return kinding(env, t, datatypes)[3]
