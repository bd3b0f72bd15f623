"""Duality of session types: the view from the other end of the channel."""

from __future__ import annotations

from .syntax import (
    Type, DataRef, Skip, Semi, Message, Choice, Rec, TVar,
    OUT, IN, INTERNAL, EXTERNAL,
)

# The dual of abbreviation N is the name `dualof N`; its body is N's body's dual.
DUALOF = "dualof "


def dual(t: Type) -> Type:
    """Flip every message polarity and choice view, and dualise each name.
    Purely syntactic: message payloads are basic, so nothing inside them varies."""
    match t:
        case Skip() | TVar(_):
            return t
        case Semi(lhs, rhs):
            return Semi(dual(lhs), dual(rhs))
        case Message(polarity, payload):
            return Message(IN if polarity == OUT else OUT, payload)
        case Choice(view, branches):
            flipped = INTERNAL if view == EXTERNAL else EXTERNAL
            return Choice(flipped, tuple((lab, dual(ty)) for lab, ty in branches))
        case Rec(var, body):
            return Rec(var, dual(body))
        case DataRef(name):
            return DataRef(name[len(DUALOF):] if name.startswith(DUALOF) else DUALOF + name)
    raise TypeError(f"dual is defined on session types only: {t!r}")
