"""Duality of session types."""

import random

from sluice import syntax as S
from sluice.dual import dual
from sluice.equiv import equivalent
from sluice.parser import parse_type
from sluice.syntax import DataRef, Message, Semi, Skip

from gen import lawify, rand_session

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
TREE_S = parse_type("rec x. &{Leaf: Skip, Node: ?Int;x;x;!Int}")


def test_tree_channel_duals():
    assert dual(TREE_C) == TREE_S
    assert dual(TREE_S) == TREE_C


def test_skip_self_dual():
    assert dual(Skip()) == Skip()


def test_involution_random():
    rng = random.Random(99)
    for _ in range(1000):
        t = rand_session(rng, rng.randint(0, 5))
        assert dual(dual(t)) == t


def test_dual_preserves_equivalence():
    rng = random.Random(100)
    for _ in range(60):
        t1 = rand_session(rng, rng.randint(0, 4))
        t2 = lawify(rng, t1)
        assert equivalent(t1, t2)
        assert equivalent(dual(t1), dual(t2))


def test_dual_flips_inequivalence_evidence():
    a = parse_type("!Int")
    b = parse_type("?Int")
    assert dual(a) == b and dual(b) == a
    assert not equivalent(a, b)
    assert not equivalent(dual(a), dual(b))


def test_a_name_dualises_to_its_derived_name():
    t = parse_type("!Int;A")
    assert dual(t) == Semi(Message(S.IN, "Int"), DataRef("dualof A"))
    assert dual(dual(t)) == t
