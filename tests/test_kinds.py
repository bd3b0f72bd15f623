"""The kind lattice, kind synthesis, and contractivity."""

import random

import pytest

from sluice import syntax as S
from sluice.equiv import Session
from sluice.grammar import build
from sluice.kinds import KindError, Walk, contractive, kinding, lub, subkind, synth_kind
from sluice.parser import parse_type
from sluice.syntax import (
    SU, SL, TU, TL, ALL_KINDS, UNRESTRICTED,
    Skip, Semi, Message, Choice, Rec, TVar, Basic, Pair, DataRef, Arrow,
)

from gen import _rand_session, _replace_at, _spots, perturb, rand_regular, rand_session, receive_bool
from oracles import (
    ReferenceKindError, reference_contractive, reference_kind, reference_unguarded,
)

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
        # a left `;` spine costs one Python frame per level
        spine = Skip()
        for _ in range(900):
            spine = Semi(spine, Skip())
        assert synth_kind({}, spine) == SU
        assert synth_kind({}, Semi(spine, Message(S.OUT, "Int"))) == SL

    def test_too_deep_a_spine_is_a_kind_error(self):
        spine = Skip()
        for _ in range(3000):
            spine = Semi(spine, Skip())
        with pytest.raises(KindError, match="^nesting too deep$"):
            synth_kind({}, spine)

    @pytest.mark.parametrize("entry", [
        lambda t: kinding({}, t),
        lambda t: contractive({}, t),
        build,
        lambda t: Session({}, {}).kind_of({}, t),
    ], ids=["kinding", "contractive", "build", "Session.kind_of"])
    def test_too_deep_a_nest_is_a_kind_error_at_every_entry_point(self, entry):
        t = Message(S.OUT, "Int")
        for _ in range(3000):
            t = Choice(S.INTERNAL, (("A", t),))
        with pytest.raises(KindError, match="^nesting too deep$"):
            entry(t)

    def test_a_non_type_is_a_type_error(self):
        # the walk dispatches on the exact class of a node; anything else
        # is not a type
        for bad in (42, "Int", (Skip(),), Semi(Skip(), 42)):
            with pytest.raises(TypeError, match="^not a type: "):
                Walk({}).facts(bad, {})

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
        assert kinding({}, parse_type("U;M;A"), kinds)[2] == {DataRef("U"), DataRef("M")}
        assert kinding({}, parse_type("rec x. U;x;A"), kinds)[2] == {DataRef("U"), DataRef("A")}
        assert kinding({}, parse_type("!Int;A"), kinds)[2] == frozenset()

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


# Names and variables the mutants refer to: U guards nothing, M is an action,
# Bad is a rejected declaration and Nope is not declared at all.
NAMES = {"U": SU, "M": SL, "Bad": None}
ENV = {"a": SL, "b": TU}
MUTANTS = [
    Basic("Int"), Arrow(UNRESTRICTED, Basic("Int"), Basic("Bool")),
    Pair(Basic("Int"), Message(S.OUT, "Int")),        # functional operands
    TVar("free"), TVar("a"), TVar("b"),                # unbound and bound variables
    Rec("z", TVar("z")), Rec("z", Semi(DataRef("U"), TVar("z"))),
    Rec("z", Semi(DataRef("M"), TVar("z"))),           # non-contractive and guarded recs
    Rec("z", Semi(Semi(Skip(), Message(S.OUT, "Int")), TVar("z"))),
    Rec("z", Semi(Semi(DataRef("U"), Skip()), TVar("z"))),
    Rec("z", Semi(Rec("w", Semi(Message(S.IN, "Int"), TVar("w"))), TVar("z"))),
    DataRef("U"), DataRef("M"), DataRef("Bad"), DataRef("Nope"),
]


def _outcome(kind_of):
    try:
        return kind_of()
    except KindError as err:
        return err.diag.message
    except ReferenceKindError as err:
        return err.args[0]


class TestFusedWalk:
    """The one kinding walk against the separate per-path walks it replaced."""

    def _types(self):
        rng = random.Random(17)
        out = [rand_session(rng, rng.randint(0, 5)) for _ in range(60)]
        out += [_rand_session(rng, rng.randint(1, 5), ()) for _ in range(30)]  # unfiltered
        out += [rand_regular(rng, rng.randint(1, 4)) for _ in range(30)]
        out += [perturb(rng, rand_session(rng, rng.randint(1, 4))) for _ in range(30)]
        unfolded = TREE_C
        for _ in range(6):  # DAGs: each unfolding holds the last one twice
            unfolded = S.subst(TREE_C.body, {TREE_C.var: unfolded})
            out += [unfolded, receive_bool(unfolded)]
        for v in "yb":  # one object inside the binder of its variable and outside it
            shared = Choice(S.INTERNAL, (("A", Semi(Message(S.OUT, "Int"), TVar(v))),))
            inner = Rec(v, Semi(Message(S.IN, "Int"), shared))
            out += [Semi(inner, shared), Semi(shared, inner)]
        for base in out[:100] + out[-12:]:
            for _ in range(2):
                t = base
                for _ in range(rng.randint(1, 2)):
                    t = _replace_at(t, rng.choice(_spots(t)), rng.choice(MUTANTS))
                out += [t, Pair(t, t), Arrow(UNRESTRICTED, t, base)]
        return out

    def test_same_kind_error_contractivity_and_unguarded_set(self):
        for t in self._types():
            assert (_outcome(lambda: synth_kind(ENV, t, NAMES))
                    == _outcome(lambda: reference_kind(ENV, t, NAMES))), S.pretty(t)
            assert contractive(ENV, t, NAMES) == reference_contractive(t, NAMES)
            assert kinding({}, t, NAMES)[2] == reference_unguarded(t, NAMES)
