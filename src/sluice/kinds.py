"""The four-point kind lattice, kind synthesis, and the contractivity check.

The lattice is the diamond with SU at the bottom and TL at the top: session
sits below functional in the prekind order, unrestricted below linear in the
multiplicity order, and TU, SL are incomparable.
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


def synth_kind(env: KindEnv, t: Type, datatypes: NameKinds | None = None) -> Kind:
    """Least kind of a type. Raises KindError on ill-formed types, unbound
    variables, and non-contractive recursion. `datatypes` maps declared type
    names (datatypes and abbreviations) to their kinds; without it any
    DataRef is rejected as unknown."""
    datatypes = datatypes or {}
    k = least_kind(env, t, datatypes)
    if not contractive(env, t, datatypes):
        raise _fail(f"non-contractive recursive type {S.pretty(t)}")
    return k


def least_kind(env: KindEnv, t: Type, datatypes: NameKinds) -> Kind:
    """`synth_kind` without the contractivity check."""
    match t:
        case Basic(_):
            return TU
        case Arrow(mult, dom, cod):
            least_kind(env, dom, datatypes)
            least_kind(env, cod, datatypes)
            return TU if mult == UNRESTRICTED else TL
        case Pair(fst, snd):
            k1 = least_kind(env, fst, datatypes)
            k2 = least_kind(env, snd, datatypes)
            return Kind(FUNCTIONAL, lub(k1, k2).mult)
        case DataRef(name):
            if name not in datatypes:
                raise _fail(f"unknown type name {name}")
            k = datatypes[name]
            if k is None:
                raise _fail(f"type {name} is ill-formed")
            return k
        case Skip():
            return SU
        case Semi(lhs, rhs):
            k1 = least_kind(env, lhs, datatypes)
            k2 = least_kind(env, rhs, datatypes)
            for side, k in (("left", k1), ("right", k2)):
                if k.prekind != SESSION:
                    raise _fail(f"sequential composition requires session types; "
                                f"{side} operand {S.pretty(lhs if side == 'left' else rhs)} has kind {k}")
            return SU if k1 == SU and k2 == SU else SL
        case Message(_, _):
            return SL
        case Choice(_, branches):
            for lab, ty in branches:
                k = least_kind(env, ty, datatypes)
                if k.prekind != SESSION:
                    raise _fail(f"choice branch {lab} must be a session type, got kind {k}")
            return SL
        case Rec(var, body):
            inner = dict(env)
            inner[var] = SU  # recursion variables are monomorphic session atoms
            k = least_kind(inner, body, datatypes)
            if k.prekind != SESSION:
                raise _fail("only session types can be recursive")
            return k
        case TVar(name):
            if name not in env:
                raise _fail(f"unbound type variable {name}")
            return env[name]
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Contractivity


def _no_action(t: Type, names: NameKinds | None) -> bool:
    """Does this session type contribute no communication action on its own?
    Skip, bare variables and names of kind SU (a closed type of kind SU has
    no action) guard nothing, and neither do compositions of them."""
    match t:
        case Skip() | TVar(_):
            return True
        case Semi(lhs, rhs):
            return _no_action(lhs, names) and _no_action(rhs, names)
        case Rec(_, body):
            return _no_action(body, names)
        case DataRef(name):
            return bool(names) and names.get(name) == SU
        case _:
            return False


def unguarded(t: Type, names: NameKinds | None) -> frozenset[str | DataRef]:
    """Variables and names reachable from the head of `t` without an action."""
    match t:
        case TVar(name):
            return frozenset({name})
        case Rec(var, body):
            return unguarded(body, names) - {var}
        case Semi(lhs, rhs):
            out = unguarded(lhs, names)
            if _no_action(lhs, names):
                out |= unguarded(rhs, names)
            return out
        case DataRef():
            return frozenset({t})
        case _:
            return frozenset()


def contractive(env: KindEnv, t: Type, datatypes: NameKinds | None = None) -> bool:
    """True when every rec binder in `t` is guarded by at least one action;
    a name of kind SU in `datatypes` guards nothing."""
    def go(t: Type) -> bool:
        match t:
            case Rec(var, body):
                return var not in unguarded(body, datatypes) and go(body)
            case Semi(lhs, rhs):
                return go(lhs) and go(rhs)
            case Choice(_, branches):
                return all(go(ty) for _, ty in branches)
            case Arrow(_, dom, cod):
                return go(dom) and go(cod)
            case Pair(fst, snd):
                return go(fst) and go(snd)
            case _:
                return True
    return go(t)
