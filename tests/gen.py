"""Seeded random generators for session types and their perturbations."""

from __future__ import annotations

import random

from sluice import syntax as S
from sluice.syntax import Skip, Semi, Message, Choice, Rec, TVar, Type

from oracles import reference_contractive

BASICS = ["Int", "Bool", "Char", "Unit"]
LABELS = ["A", "B", "C", "Go", "Stop", "Leaf", "Node"]


def rand_basic(rng: random.Random) -> str:
    return rng.choice(BASICS)


def rand_message(rng: random.Random) -> Message:
    return Message(rng.choice([S.OUT, S.IN]), rand_basic(rng))


def _labels(rng: random.Random, n: int) -> list[str]:
    return rng.sample(LABELS, n)


def rand_session(rng: random.Random, depth: int, binders: tuple[str, ...] = ()) -> Type:
    """An arbitrary closed-if-binders-empty session type; retried until
    contractive (bare recursion guards nothing). Contractivity is judged by
    the reference walker, so a fault in `kinds` cannot steer the inputs of
    the tests that judge it."""
    for _ in range(60):
        t = _rand_session(rng, depth, binders)
        if reference_contractive(t) and S.free_tvars(t) <= set(binders):
            return t
    return rand_message(rng)


def _rand_session(rng: random.Random, depth: int, binders: tuple[str, ...]) -> Type:
    atoms = ["skip", "msg"] + (["var"] if binders else [])
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kind = rng.choices(
            ["msg", "semi", "choice", "rec", "skip", "var"],
            weights=[3, 4, 3, 2, 1, 1 if binders else 0],
        )[0]
    match kind:
        case "skip":
            return Skip()
        case "msg":
            return rand_message(rng)
        case "var":
            return TVar(rng.choice(binders))
        case "semi":
            return Semi(_rand_session(rng, depth - 1, binders),
                        _rand_session(rng, depth - 1, binders))
        case "choice":
            view = rng.choice([S.INTERNAL, S.EXTERNAL])
            labs = _labels(rng, rng.randint(1, 3))
            return Choice(view, tuple((lab, _rand_session(rng, depth - 1, binders))
                                      for lab in labs))
        case "rec":
            var = f"x{rng.randint(0, 3)}"
            body = _rand_session(rng, depth - 1, binders + (var,))
            return Rec(var, body)
    raise AssertionError


def rand_regular(rng: random.Random, depth: int, binders: tuple[str, ...] = ()) -> Type:
    """Tail-recursive session types: recursion variables appear only at the
    tail of message chains, and recursion bodies start with an action, so the
    result is contractive by construction."""
    if depth <= 0:
        return _regular_tail(rng, binders)
    kind = rng.choices(["chain", "choice", "rec", "tail"], weights=[4, 3, 2, 1])[0]
    match kind:
        case "chain":
            return Semi(rand_message(rng), rand_regular(rng, depth - 1, binders))
        case "choice":
            view = rng.choice([S.INTERNAL, S.EXTERNAL])
            labs = _labels(rng, rng.randint(1, 3))
            return Choice(view, tuple((lab, rand_regular(rng, depth - 1, binders))
                                      for lab in labs))
        case "rec":
            var = f"r{len(binders)}"
            body_kind = rng.choice(["chain", "choice"])
            if body_kind == "chain":
                body: Type = Semi(rand_message(rng), rand_regular(rng, depth - 1, binders + (var,)))
            else:
                view = rng.choice([S.INTERNAL, S.EXTERNAL])
                labs = _labels(rng, rng.randint(1, 3))
                body = Choice(view, tuple((lab, rand_regular(rng, depth - 1, binders + (var,)))
                                          for lab in labs))
            return Rec(var, body)
        case "tail":
            return _regular_tail(rng, binders)
    raise AssertionError


def _regular_tail(rng: random.Random, binders: tuple[str, ...]) -> Type:
    opts = ["skip", "msg"] + (["var"] if binders else [])
    match rng.choice(opts):
        case "skip":
            return Skip()
        case "msg":
            return rand_message(rng)
        case _:
            return TVar(rng.choice(binders))


# ---------------------------------------------------------------------------
# Equivalence-preserving rewrites (for positive test pairs)


def lawify(rng: random.Random, t: Type, rounds: int = 3) -> Type:
    """Apply a few random instances of the unit, associativity, distribution,
    and unfolding laws; the result is always equivalent to the input."""
    for _ in range(rounds):
        t = _rewrite_once(rng, t)
    return t


def _rewrite_once(rng: random.Random, t: Type) -> Type:
    spots = _spots(t)
    path = rng.choice(spots)
    return _apply_at(rng, t, path)


def _spots(t: Type, path: tuple = ()) -> list[tuple]:
    out = [path]
    match t:
        case Semi(l, r):
            out += _spots(l, path + (0,)) + _spots(r, path + (1,))
        case Choice(_, branches):
            for i, (_, ty) in enumerate(branches):
                out += _spots(ty, path + (i,))
        case Rec(_, body):
            out += _spots(body, path + (0,))
    return out


def _apply_at(rng: random.Random, t: Type, path: tuple) -> Type:
    if not path:
        return _law(rng, t)
    match t:
        case Semi(l, r):
            if path[0] == 0:
                return Semi(_apply_at(rng, l, path[1:]), r)
            return Semi(l, _apply_at(rng, r, path[1:]))
        case Choice(view, branches):
            i = path[0]
            new = list(branches)
            lab, ty = new[i]
            new[i] = (lab, _apply_at(rng, ty, path[1:]))
            return Choice(view, tuple(new))
        case Rec(var, body):
            return Rec(var, _apply_at(rng, body, path[1:]))
    return t


def _law(rng: random.Random, t: Type) -> Type:
    choices = ["skip_left", "skip_right"]
    if isinstance(t, Semi):
        choices.append("reassoc")
        if isinstance(t.lhs, Choice):
            choices.append("distribute")
    if isinstance(t, Rec):
        choices.append("unfold")
    match rng.choice(choices):
        case "skip_left":
            return Semi(Skip(), t)
        case "skip_right":
            return Semi(t, Skip())
        case "reassoc":
            assert isinstance(t, Semi)
            if isinstance(t.lhs, Semi):
                return Semi(t.lhs.lhs, Semi(t.lhs.rhs, t.rhs))
            if isinstance(t.rhs, Semi):
                return Semi(Semi(t.lhs, t.rhs.lhs), t.rhs.rhs)
            return t
        case "distribute":
            assert isinstance(t, Semi) and isinstance(t.lhs, Choice)
            return Choice(t.lhs.view,
                          tuple((lab, Semi(ty, t.rhs)) for lab, ty in t.lhs.branches))
        case "unfold":
            assert isinstance(t, Rec)
            return S.subst(t.body, {t.var: t})
    raise AssertionError


# ---------------------------------------------------------------------------
# Structural perturbations (for negative test pairs)


def perturb(rng: random.Random, t: Type) -> Type:
    """Flip one message polarity, change one payload, rename one label, or
    flip one choice view, somewhere in the type."""
    spots = [p for p in _spots(t) if True]
    rng.shuffle(spots)
    for path in spots:
        mutated = _mutate_at(rng, t, path)
        if mutated is not None:
            return mutated
    return Message(S.OUT, "Int") if isinstance(t, Skip) else Skip()


def _get_at(t: Type, path: tuple) -> Type:
    for i in path:
        match t:
            case Semi(l, r):
                t = l if i == 0 else r
            case Choice(_, branches):
                t = branches[i][1]
            case Rec(_, body):
                t = body
    return t


def _replace_at(t: Type, path: tuple, new: Type) -> Type:
    if not path:
        return new
    match t:
        case Semi(l, r):
            if path[0] == 0:
                return Semi(_replace_at(l, path[1:], new), r)
            return Semi(l, _replace_at(r, path[1:], new))
        case Choice(view, branches):
            bs = list(branches)
            lab, ty = bs[path[0]]
            bs[path[0]] = (lab, _replace_at(ty, path[1:], new))
            return Choice(view, tuple(bs))
        case Rec(var, body):
            return Rec(var, _replace_at(body, path[1:], new))
    return t


def _mutate_at(rng: random.Random, t: Type, path: tuple) -> Type | None:
    target = _get_at(t, path)
    match target:
        case Message(polarity, payload):
            if rng.random() < 0.5:
                new: Type = Message(S.IN if polarity == S.OUT else S.OUT, payload)
            else:
                alts = [b for b in BASICS if b != payload]
                new = Message(polarity, rng.choice(alts))
            return _replace_at(t, path, new)
        case Choice(view, branches):
            if rng.random() < 0.5:
                new = Choice(S.EXTERNAL if view == S.INTERNAL else S.INTERNAL, branches)
            else:
                i = rng.randrange(len(branches))
                bs = list(branches)
                lab, ty = bs[i]
                fresh = rng.choice([l for l in LABELS if l not in dict(branches)] or ["Zz"])
                bs[i] = (fresh, ty)
                new = Choice(view, tuple(bs))
            return _replace_at(t, path, new)
        case _:
            return None


def receive_bool(t: Type) -> Type:
    """The type with every ?Int replaced by ?Bool."""
    match t:
        case S.Message(S.IN, "Int"):
            return S.Message(S.IN, "Bool")
        case S.Semi(lhs, rhs):
            return S.Semi(receive_bool(lhs), receive_bool(rhs))
        case S.Choice(view, branches):
            return S.Choice(view, tuple((lab, receive_bool(ty)) for lab, ty in branches))
        case S.Rec(var, body):
            return S.Rec(var, receive_bool(body))
    return t
