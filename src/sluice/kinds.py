"""The four-point kind lattice, and kind synthesis with the contractivity
check in one walk.

The lattice is the diamond with SU at the bottom and TL at the top: session
sits below functional in the prekind order, unrestricted below linear in the
multiplicity order, and TU, SL are incomparable.

`kinding` walks a type once, bottom-up, and computes three things for every
subterm: its least kind, the variables and names reachable from its head
without an action, and whether it performs no action of its own. A `rec` is
contractive when its variable is not among its body's unguarded ones, so the
contractivity check is read off as the walk leaves each `rec`. Outside every
binder a composite subterm's summary depends on the subterm alone, so it is
kept by object identity for the walk: a subterm shared along several paths
(as `subst` leaves an unfolding) is walked once, not once per path.
`synth_kind` and `contractive` are views of this one walk; the typechecker
reads the unguarded names of a declaration off `kinding` itself.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, DiagnosticError
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

_NOTHING: Unguarded = frozenset()

# (kind, unguarded, no action) of the subterms whose summary is fixed
_SKIP = (SU, _NOTHING, True)
_ACTION = (SL, _NOTHING, False)
_PLAIN = {UNRESTRICTED: (TU, _NOTHING, False), LINEAR: (TL, _NOTHING, False)}


def kinding(env: KindEnv, t: Type, names: NameKinds | None = None) -> Kinding:
    """Walk `t` once, returning `(kind, error, unguarded, contractive)`:
    the least kind, or None when `error`, the first kind error in the order
    a depth-first check meets them, is set; the variables and names
    reachable from the head of `t` without an action; and whether every
    `rec` in `t` is guarded. `names` maps declared type names (datatypes and
    abbreviations) to their kinds; a name missing from it is unknown, and a
    name of kind SU guards nothing. The walk does not stop at a kind error,
    so an ill-kinded type still gets its unguarded set and contractivity."""
    state: list = [None, False]  # the first kind error, and whether a rec loops
    kind, unguarded, _ = _walk(t, dict(env), names or {}, {}, 0, state)
    error, looping = state
    return (kind if error is None else None), error, unguarded, not looping


def _walk(t: Type, scope: KindEnv, names: NameKinds, memo: dict, binders: int,
          state: list) -> tuple[Kind | None, Unguarded, bool]:
    """(kind, unguarded, no action) of `t` under `binders` enclosing recs,
    whose variables `scope` binds; `memo` keeps the summaries of composite
    subterms outside every binder by object identity. A kind is None only
    where an unbound variable or a bad name was met, and past the first
    error a kind is no longer checked."""
    match t:
        case Message():
            return _ACTION
        case Skip():
            return _SKIP
        case TVar(name):
            k = scope.get(name)
            if k is None and state[0] is None:
                state[0] = f"unbound type variable {name}"
            return k, frozenset((name,)), True
        case DataRef(name):
            k = names.get(name)
            if k is None and state[0] is None:
                state[0] = (f"type {name} is ill-formed" if name in names
                            else f"unknown type name {name}")
            return k, frozenset((t,)), k == SU
        case Basic():
            return _PLAIN[UNRESTRICTED]
    if not binders:
        hit = memo.get(id(t))
        if hit is not None:
            return hit
    match t:
        case Semi(lhs, rhs):
            k1, u1, n1 = _walk(lhs, scope, names, memo, binders, state)
            k2, u2, n2 = _walk(rhs, scope, names, memo, binders, state)
            if k1 is not None and k1.prekind != SESSION and state[0] is None:
                state[0] = (f"sequential composition requires session types; "
                            f"left operand {S.pretty(lhs)} has kind {k1}")
            if k2 is not None and k2.prekind != SESSION and state[0] is None:
                state[0] = (f"sequential composition requires session types; "
                            f"right operand {S.pretty(rhs)} has kind {k2}")
            if n1 and u2:
                u1 = u1 | u2 if u1 else u2
            kind = None
            if k1 is not None and k2 is not None:
                kind = SU if k1.mult == UNRESTRICTED and k2.mult == UNRESTRICTED else SL
            out = kind, u1, n1 and n2
        case Choice(_, branches):
            for lab, ty in branches:
                k = _walk(ty, scope, names, memo, binders, state)[0]
                if k is not None and k.prekind != SESSION and state[0] is None:
                    state[0] = f"choice branch {lab} must be a session type, got kind {k}"
            out = _ACTION
        case Rec(var, body):
            outer = scope.get(var)
            scope[var] = SU  # recursion variables are monomorphic session atoms
            k, u, n = _walk(body, scope, names, memo, binders + 1, state)
            if outer is None:
                del scope[var]
            else:
                scope[var] = outer
            if k is not None and k.prekind != SESSION and state[0] is None:
                state[0] = "only session types can be recursive"
            if var in u:
                state[1] = True
                u = u - {var}
            out = k, u, n
        case Arrow(mult, dom, cod):
            _walk(dom, scope, names, memo, binders, state)
            _walk(cod, scope, names, memo, binders, state)
            out = _PLAIN[mult]
        case Pair(fst, snd):
            k1 = _walk(fst, scope, names, memo, binders, state)[0]
            k2 = _walk(snd, scope, names, memo, binders, state)[0]
            linear = k1 is not None and k2 is not None and LINEAR in (k1.mult, k2.mult)
            out = _PLAIN[LINEAR if linear else UNRESTRICTED]
        case _:
            raise TypeError(f"not a type: {t!r}")
    if not binders:
        memo[id(t)] = out
    return out


def synth_kind(env: KindEnv, t: Type, datatypes: NameKinds | None = None) -> Kind:
    """Least kind of a type. Raises KindError on the first ill-formed part
    or unbound variable a depth-first walk meets, else on non-contractive
    recursion. `datatypes` maps declared type names (datatypes and
    abbreviations) to their kinds; without it any DataRef is rejected as
    unknown."""
    kind, error, _, contractive = kinding(env, t, datatypes)
    if error is not None:
        raise _fail(error)
    if not contractive:
        raise _fail(f"non-contractive recursive type {S.pretty(t)}")
    return kind  # type: ignore[return-value]


def contractive(env: KindEnv, t: Type, datatypes: NameKinds | None = None) -> bool:
    """True when every rec binder in `t` is guarded by at least one action;
    a name of kind SU in `datatypes` guards nothing. Total: an ill-kinded or
    open type gets an answer too."""
    return kinding(env, t, datatypes)[3]
