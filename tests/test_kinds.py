"""The kind lattice, kind synthesis, and contractivity."""

import random

import pytest

from sluice import syntax as S
from sluice.kinds import KindError, contractive, lub, subkind, synth_kind, unguarded
from sluice.parser import parse_type
from sluice.syntax import (
    SU, SL, TU, TL, ALL_KINDS,
    Skip, Semi, Message, Choice, Rec, TVar, Basic, Pair, DataRef,
)

from gen import rand_session

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")

# The diamond: SU below everything, TL above everything, TU and SL apart.
SUBKIND_TABLE = {
    (SU, SU): True,  (SU, SL): True,  (SU, TU): True,  (SU, TL): True,
    (SL, SU): False, (SL, SL): True,  (SL, TU): False, (SL, TL): True,
    (TU, SU): False, (TU, SL): False, (TU, TU): True,  (TU, TL): True,
    (TL, SU): False, (TL, SL): False, (TL, TU): False, (TL, TL): True,
}


class TestLattice:
    @pytest.mark.parametrize("k1,k2", list(SUBKIND_TABLE))
    def test_subkind_table(self, k1, k2):
        assert subkind(k1, k2) == SUBKIND_TABLE[(k1, k2)]

    def test_partial_order(self):
        for a in ALL_KINDS:
            assert subkind(a, a)
            for b in ALL_KINDS:
                if subkind(a, b) and subkind(b, a):
                    assert a == b
                for c in ALL_KINDS:
                    if subkind(a, b) and subkind(b, c):
                        assert subkind(a, c)

    def test_lub_is_join(self):
        for a in ALL_KINDS:
            for b in ALL_KINDS:
                j = lub(a, b)
                assert subkind(a, j) and subkind(b, j)
                for c in ALL_KINDS:
                    if subkind(a, c) and subkind(b, c):
                        assert subkind(j, c)

    def test_lub_examples(self):
        assert lub(SU, TU) == TU
        assert lub(TU, SL) == TL
        assert lub(SU, SU) == SU


class TestSynth:
    def test_skip(self):
        assert synth_kind({}, Skip()) == SU

    def test_all_messages_are_SL(self):
        for pol in (S.OUT, S.IN):
            for payload in ("Int", "Bool", "Char", "Unit"):
                assert synth_kind({}, Message(pol, payload)) == SL

    def test_choices_are_SL(self):
        for view in (S.INTERNAL, S.EXTERNAL):
            t = Choice(view, (("A", Skip()),))
            assert synth_kind({}, t) == SL

    def test_arrows(self):
        assert synth_kind({}, parse_type("Int -> Bool")) == TU
        assert synth_kind({}, parse_type("Int -o Bool")) == TL

    def test_basics(self):
        for b in ("Int", "Bool", "Char", "Unit"):
            assert synth_kind({}, Basic(b)) == TU

    def test_semi_with_variable(self):
        assert synth_kind({"alpha": SL}, parse_type("!Int;alpha")) == SL
        assert synth_kind({"alpha": SL}, parse_type("?Int;alpha")) == SL

    def test_tree_channel_is_SL(self):
        assert synth_kind({}, TREE_C) == SL

    def test_tree_channel_then_variable(self):
        t = Semi(TREE_C, Semi(Message(S.IN, "Int"), TVar("alpha")))
        assert synth_kind({"alpha": SL}, t) == SL

    def test_semi_rejects_functional_operand(self):
        bad = Semi(TREE_C, parse_type("Int -> Bool"))
        with pytest.raises(KindError, match="session"):
            synth_kind({}, bad)

    def test_skips_sequence_to_SU(self):
        assert synth_kind({}, parse_type("Skip;Skip")) == SU

    def test_pair_kinds(self):
        assert synth_kind({}, Pair(Basic("Int"), Basic("Bool"))) == TU
        assert synth_kind({}, Pair(Basic("Int"), Message(S.OUT, "Int"))) == TL
        assert synth_kind({}, Pair(Skip(), Skip())) == TU

    def test_unbound_variable(self):
        with pytest.raises(KindError, match="unbound"):
            synth_kind({}, TVar("alpha"))

    def test_rec_binder_kinded_SU(self):
        # the body uses the binder where an SU type is fine
        assert synth_kind({}, parse_type("rec x. +{A: x, B: Skip}")) == SL

    def test_only_session_recursion(self):
        with pytest.raises(KindError):
            synth_kind({}, Rec("x", Basic("Int")))


def _nested_rec(n: int, make_body) -> S.Type:
    t = make_body("x1")
    for i in range(n, 0, -1):
        t = Rec(f"x{i}", t)
    return t


class TestContractive:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bare_variable_not_contractive(self, n):
        t = _nested_rec(n, lambda v: TVar(v))
        assert not contractive({}, t)
        with pytest.raises(KindError, match="contractive"):
            synth_kind({}, t)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_head_variable_not_contractive(self, n):
        t = _nested_rec(n, lambda v: Semi(TVar(v), Message(S.OUT, "Int")))
        assert not contractive({}, t)

    def test_skip_does_not_guard(self):
        assert not contractive({}, parse_type("rec x. Skip;x"))

    def test_names_of_kind_su_do_not_guard(self):
        kinds = {"U": SU, "M": SL}
        assert not contractive({}, parse_type("rec x. U;x"), kinds)
        assert contractive({}, parse_type("rec x. M;x"), kinds)
        with pytest.raises(KindError, match="contractive"):
            synth_kind({}, parse_type("!Int;(rec x. U;U;x)"), kinds)

    def test_unguarded_names(self):
        kinds = {"U": SU, "M": SL}
        assert unguarded(parse_type("U;M;A"), kinds) == {DataRef("U"), DataRef("M")}
        assert unguarded(parse_type("rec x. U;x;A"), kinds) == {DataRef("U"), DataRef("A")}
        assert unguarded(parse_type("!Int;A"), kinds) == frozenset()

    def test_tree_channel_contractive(self):
        assert contractive({}, TREE_C)

    def test_guarded_by_message(self):
        assert contractive({}, parse_type("rec x. !Int;x"))

    def test_accepted_types_have_contractive_recs(self):
        rng = random.Random(5)
        for _ in range(300):
            t = rand_session(rng, rng.randint(0, 5))
            try:
                synth_kind({}, t)
            except KindError:
                continue
            def walk(u):
                match u:
                    case Rec(_, body):
                        assert contractive({}, u)
                        walk(body)
                    case Semi(l, r):
                        walk(l), walk(r)
                    case Choice(_, branches):
                        for _, ty in branches:
                            walk(ty)
                    case _:
                        pass
            walk(t)
