"""The head normal form (`syntax.head`) against the oracle's type semantics."""

import random

import pytest

from sluice import syntax as S
from sluice.parser import parse_type
from sluice.syntax import Basic, Choice, Message, Rec, Semi, Skip, TVar, Terminal

from gen import lawify, rand_regular, rand_session
from oracles import _skip_elim, type_step

INT_OUT = Message(S.OUT, "Int")
DEPTH = 5000


def _alpha(t, bound=()):
    """The structure of a type with bound variables as de Bruijn indices."""
    match t:
        case Rec(var, body):
            return ("rec", _alpha(body, (var,) + bound))
        case TVar(name):
            return ("bound", bound.index(name)) if name in bound else ("free", name)
        case Semi(lhs, rhs):
            return ("semi", _alpha(lhs, bound), _alpha(rhs, bound))
        case Choice(view, branches):
            return ("choice", view, tuple((lab, _alpha(ty, bound)) for lab, ty in branches))
        case _:
            return t


def _up_to_laws(t):
    """Canonical form modulo the Skip laws, associativity of `;` and
    alpha-renaming."""
    return _alpha(S.reassoc_semi(_skip_elim(t)))


def _seeded_types():
    rng = random.Random(4242)
    out = []
    for i in range(500):
        binders = ("a",) if i % 5 == 0 else ()
        out.append(rand_session(rng, rng.randint(0, 5), binders))
        out.append(rand_regular(rng, rng.randint(0, 4), binders))
    return out + [lawify(rng, t) for t in out]


def test_head_agrees_with_the_oracle_semantics():
    for t in _seeded_types():
        mine = S.head(t)
        oracle = type_step(t)
        assert {(a.tag, a.arg) for a in mine} == set(oracle), S.pretty(t)
        for a, cont in mine.items():
            assert _up_to_laws(cont) == _up_to_laws(oracle[(a.tag, a.arg)]), (
                S.pretty(t), str(a))


def test_choice_continuations_are_composed():
    head = S.head(parse_type("(&{A: !Int, B: Skip};?Bool);!Char"))
    assert head == {Terminal(S.EXTERNAL, "A"): parse_type("!Int;?Bool;!Char"),
                    Terminal(S.EXTERNAL, "B"): parse_type("?Bool;!Char")}


def test_terminated_and_open_heads():
    assert S.head(parse_type("Skip;(rec x. Skip);Skip")) == {}
    assert S.head(Semi(TVar("a"), INT_OUT)) == {Terminal(S.VAR, "a"): INT_OUT}


@pytest.mark.parametrize("t", [
    Rec("x", TVar("x")),
    Rec("x", Rec("y", TVar("x"))),
    Rec("x", Semi(TVar("x"), INT_OUT)),
    Basic("Int"),
    Semi(Skip(), Basic("Int")),
])
def test_no_head_for_non_contractive_or_non_session_types(t):
    with pytest.raises(S.NoHead):
        S.head(t)


def test_head_of_a_deep_right_nested_spine():
    t = INT_OUT
    for _ in range(DEPTH):
        t = Semi(INT_OUT, t)
    head = S.head(t)
    assert list(head) == [Terminal(S.OUT, "Int")]
    assert head[Terminal(S.OUT, "Int")] is t.rhs


def test_head_of_a_deep_left_nested_spine():
    t = INT_OUT
    for _ in range(DEPTH):
        t = Semi(t, INT_OUT)
    (action, cont), = S.head(t).items()
    assert action == Terminal(S.OUT, "Int")
    # the continuation is the other DEPTH messages, walked without recursion
    semis = 0
    while isinstance(cont, Semi):
        assert cont.rhs == INT_OUT
        cont, semis = cont.lhs, semis + 1
    assert cont == INT_OUT and semis == DEPTH - 1


def test_names_unfold_through_their_table():
    names = {"A": parse_type("B"), "B": parse_type("!Int;A")}
    assert S.head(parse_type("A;?Bool"), names) == {
        Terminal(S.OUT, "Int"): parse_type("A;?Bool")}
    assert S.head(parse_type("A;?Bool"), {"A": Skip()}) == {
        Terminal(S.IN, "Bool"): Skip()}


def test_looping_names_run_out_of_fuel():
    with pytest.raises(S.NoHead, match="names do not reach an action"):
        S.head(parse_type("A"), {"A": parse_type("Skip;A")})
    with pytest.raises(S.NoHead, match="not a session type"):
        S.head(parse_type("A"))
