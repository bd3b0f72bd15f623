"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import os
import random
import time

import pytest

from sluice import syntax as S
from sluice.cli import main as cli_main
from sluice.dual import dual
from sluice.equiv import equivalent
from sluice.grammar import build, compute_norms, prune, word_norm
from sluice.kinds import contractive, subkind, synth_kind, KindError
from sluice.parser import parse_program, parse_type
from sluice.runtime import WatchdogAbort, pretty_value, run
from sluice.syntax import (
    SU, SL, TU, TL, ALL_KINDS, Rec, Semi, TVar, Message, Choice, Skip,
)
from sluice.typecheck import check_program

from conftest import PROGRAMS, checked_program
from gen import lawify, perturb, rand_regular, rand_session
from oracles import k_bisimilar_types, regular_equivalent

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
TREE_S = parse_type("rec x. &{Leaf: Skip, Node: ?Int;x;x;!Int}")

EXPECTED_TREE = ("Node 36 (Node 22 (Node 8 Leaf Leaf) "
                 "(Node 12 (Node 5 Leaf Leaf) (Node 4 Leaf Leaf))) "
                 "(Node 13 Leaf (Node 7 Leaf Leaf))")


def report(n: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {n} {status}: {desc}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {n} failed: {desc} {detail}"


# ---------------------------------------------------------------------------
# Shared suites (generated once, reused by criterion 9's stability check)


@pytest.fixture(scope="module")
def law_suite():
    rng = random.Random(2001)
    monoid, assoc, distrib = [], [], []
    for _ in range(500):
        s = rand_session(rng, rng.randint(0, 3))
        monoid.append((Semi(Skip(), s), s))
        monoid.append((Semi(s, Skip()), s))
        a, b, c = (rand_session(rng, rng.randint(0, 2)) for _ in range(3))
        assoc.append((Semi(a, Semi(b, c)), Semi(Semi(a, b), c)))
        view = rng.choice([S.INTERNAL, S.EXTERNAL])
        u = rand_session(rng, rng.randint(0, 2))
        labs = random.Random(rng.random()).sample(["L", "M", "N"], rng.randint(1, 3))
        branches = tuple((lab, rand_session(rng, rng.randint(0, 2))) for lab in labs)
        distrib.append((Semi(Choice(view, branches), u),
                        Choice(view, tuple((lab, Semi(t, u)) for lab, t in branches))))
    return monoid, assoc, distrib


@pytest.fixture(scope="module")
def perturbed_suite():
    rng = random.Random(2002)
    out = []
    for _ in range(500):
        t1 = rand_session(rng, rng.randint(1, 4))
        t2 = perturb(rng, t1)
        out.append((t1, t2))
    return out


@pytest.fixture(scope="module")
def regular_suite():
    rng = random.Random(2003)
    out = []
    for _ in range(200):
        t1 = rand_regular(rng, rng.randint(0, 4))
        if rng.random() < 0.45:
            t2 = lawify(rng, t1)
        elif rng.random() < 0.5:
            t2 = perturb(rng, t1)
        else:
            t2 = rand_regular(rng, rng.randint(0, 4))
        out.append((t1, t2))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_end_to_end_tree(tree_source):
    prog = checked_program(tree_source)
    t0 = time.time()
    value = run(prog, seed=0)
    elapsed = time.time() - t0
    printed = pretty_value(value)
    report(1, "tree transform reproduces the summed tree",
           printed == EXPECTED_TREE and elapsed < 5.0,
           f"{elapsed:.2f}s")


def test_criterion_2_deadlock_pair(cross_source, cross_doubled_source):
    cross = checked_program(cross_source)
    doubled = checked_program(cross_doubled_source)
    ok_cross = all(run(cross, seed=seed, quiescence=1.0) is False for seed in range(5))
    deadlocks = 0
    for seed in range(100):
        try:
            run(doubled, seed=seed, quiescence=0.1)
        except WatchdogAbort:
            deadlocks += 1
    exit_code = cli_main(["run", os.path.join(PROGRAMS, "cross_doubled.fst"),
                          "--seed", "0", "--quiescence", "0.1"])
    report(2, "cross write-read completes; doubled variant deadlocks 100/100 (exit 3)",
           ok_cross and deadlocks == 100 and exit_code == 3,
           f"deadlocks={deadlocks}/100")


def _within_oracle_bound(t1, t2):
    g, w1, w2 = build(t1, t2)
    compute_norms(g)
    prune(g)
    norms = list(g.norms.values())
    small = len(g.productions) <= 6 and all(n is not None and n <= 4 for n in norms)
    n1, n2 = word_norm(g, w1), word_norm(g, w2)
    if n1 is not None and n2 is not None:
        depth = 2 * (n1 + n2) + 4
    else:
        depth = 16
    return small, depth


def test_criterion_3_equivalence_laws(law_suite, perturbed_suite):
    monoid, assoc, distrib = law_suite
    failures = []
    for name, suite in (("monoid", monoid), ("associativity", assoc),
                        ("distributivity", distrib)):
        for t1, t2 in suite:
            if not equivalent(t1, t2):
                failures.append((name, S.pretty(t1), S.pretty(t2)))
    oracle_disagreements = 0
    not_equiv = 0
    for t1, t2 in perturbed_suite:
        small, depth = _within_oracle_bound(t1, t2)
        verdict = equivalent(t1, t2)
        oracle_says_equal = k_bisimilar_types(t1, t2, depth)
        if not verdict:
            not_equiv += 1
        if verdict and not oracle_says_equal:
            oracle_disagreements += 1
        if not verdict and oracle_says_equal and small:
            oracle_disagreements += 1
    report(3, "law schemas hold on 500 instantiations each; perturbed pairs match the oracle",
           not failures and oracle_disagreements == 0,
           f"laws_failed={len(failures)} oracle_disagreements={oracle_disagreements} "
           f"perturbed_not_equivalent={not_equiv}/500")


def test_criterion_4_regular_fragment(regular_suite):
    mismatches = 0
    for t1, t2 in regular_suite:
        if equivalent(t1, t2) != regular_equivalent(t1, t2):
            mismatches += 1
    report(4, "200 tail-recursive pairs match the fixed-point oracle exactly",
           mismatches == 0, f"mismatches={mismatches}")


def test_criterion_5_kinding():
    claims = [synth_kind({}, Skip()) == SU]
    for pol in (S.OUT, S.IN):
        for payload in ("Int", "Bool", "Char", "Unit"):
            claims.append(synth_kind({}, Message(pol, payload)) == SL)
    for view in (S.INTERNAL, S.EXTERNAL):
        claims.append(synth_kind({}, Choice(view, (("A", Skip()),))) == SL)
    claims.append(synth_kind({}, parse_type("Int -> Bool")) == TU)
    claims.append(synth_kind({}, parse_type("Int -o Bool")) == TL)
    claims.append(synth_kind({"alpha": SL},
                             Semi(TREE_C, Semi(Message(S.IN, "Int"), TVar("alpha")))) == SL)
    diamond = {
        (SU, SU): True, (SU, SL): True, (SU, TU): True, (SU, TL): True,
        (SL, SL): True, (SL, TL): True, (TU, TU): True, (TU, TL): True,
        (TL, TL): True,
    }
    lattice_ok = all(subkind(a, b) == diamond.get((a, b), False)
                     for a in ALL_KINDS for b in ALL_KINDS)
    report(5, "kind claims and all 16 subkind pairs match the lattice",
           all(claims) and lattice_ok)


def test_criterion_6_contractivity():
    rejected = []
    for n in (1, 2, 3):
        bare = TVar("x1")
        headed: S.Type = Semi(TVar("x1"), Message(S.OUT, "Int"))
        for i in range(n, 0, -1):
            bare = Rec(f"x{i}", bare)
            headed = Rec(f"x{i}", headed)
        rejected.append(not contractive({}, bare))
        rejected.append(not contractive({}, headed))
        for t in (bare, headed):
            try:
                synth_kind({}, t)
                rejected.append(False)
            except KindError:
                rejected.append(True)
    accepted = contractive({}, TREE_C)
    report(6, "non-contractive schemas rejected for n in {1,2,3}; TreeC accepted",
           all(rejected) and accepted)


def test_criterion_7_duality():
    rng = random.Random(2007)
    involution = all(dual(dual(t)) == t
                     for t in (rand_session(rng, rng.randint(0, 5)) for _ in range(1000)))
    exact = dual(TREE_C) == TREE_S and dual(TREE_S) == TREE_C
    report(7, "duality is an involution on 1000 random types; TreeC <-> TreeS exact",
           involution and exact)


MUTATIONS = [
    ("dropped rebinding of c after send",
     "let c   = send x c in", "let _   = send x c in"),
    ("stale channel used after rebinding elsewhere",
     "let y,c = receive c in", "let y,d = receive c in"),
    ("instantiation forces discarding a linear residual",
     "transform[Skip] aTree w", "transform[TreeC] aTree w"),
    ("select the wrong label in the leaf branch",
     "(Leaf, select Leaf c)", "(Leaf, select Node c)"),
    ("flip a polarity inside the channel abbreviation",
     "type TreeC = +{Leaf: Skip, Node: !Int;TreeC;TreeC;?Int}",
     "type TreeC = +{Leaf: Skip, Node: !Int;TreeC;TreeC;!Int}"),
    ("match a channel with case",
     "match c with", "case c of"),
    ("fork the writer end into the reader",
     "fork (treeSum[Skip] r)", "fork (treeSum[Skip] w)"),
    ("create a channel at a functional type",
     "new TreeC in", "new Tree in"),
    ("use the reader end in the writer call",
     "let t,_ = transform[Skip] aTree w in", "let t,_ = transform[Skip] aTree r in"),
    ("instantiate at a functional kind",
     "treeSum[TreeS;!Int;alpha] c", "treeSum[Int] c"),
    ("declare main at a session type",
     "main : Tree", "main : TreeC"),
    ("send a channel instead of an integer",
     "let c   = send x c in", "let c   = send c x in"),
]


def test_criterion_8_linearity_mutations(tree_source):
    failures = []
    for desc, old, new in MUTATIONS:
        assert old in tree_source, f"mutation anchor missing: {old!r}"
        mutated = tree_source.replace(old, new, 1)
        prog, parse_diags = parse_program(mutated)
        diags = list(parse_diags) + (check_program(prog) if prog else [])
        if not diags:
            failures.append(desc)
    report(8, f"{len(MUTATIONS)} single-token mutations each raise a diagnostic",
           not failures, f"undetected={failures}")


def test_criterion_9_performance_and_stability(law_suite, perturbed_suite, regular_suite):
    unfolded = TREE_C
    for _ in range(3):
        unfolded = S.subst(TREE_C.body, {TREE_C.var: unfolded})
    t0 = time.time()
    verdict = equivalent(TREE_C, unfolded)  # default budget
    elapsed = time.time() - t0
    fast = verdict and elapsed < 1.0

    monoid, assoc, distrib = law_suite
    everything = monoid + assoc + distrib + perturbed_suite + regular_suite
    changed = sum(equivalent(t2, t1) != equivalent(t1, t2) for t1, t2 in everything)
    report(9, "TreeC vs 3-level unfolding under 1s; no verdict changes when "
              "the two sides of a pair are swapped",
           fast and changed == 0,
           f"unfold_time={elapsed:.3f}s suite={len(everything)} changed={changed}")
