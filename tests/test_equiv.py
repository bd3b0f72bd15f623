"""The expansion-tree equivalence decision procedure."""

import heapq
import random
import time

import pytest

from sluice import equiv as E
from sluice import kinds as K
from sluice import syntax as S
from sluice.kinds import KindError
from sluice.equiv import (
    Budget, Inconclusive, _Entry, _push, congruent, equivalent,
    expand, index_rules, search, simplify,
)
from sluice.grammar import Grammar, Terminal, build, compute_norms, prune, step, word_norm
from sluice.parser import parse_type
from sluice.syntax import Basic, DataRef, Pair, Rec, Semi, TVar, SL, TU

from gen import lawify, perturb, rand_regular, rand_session, receive_bool
from oracles import (
    congruence_closure, k_bisimilar_types, pairwise_congruence_closure,
    regular_equivalent, scanning_congruent,
)
from verdict_corpus import SEED, SUITES, ladder_queries, search_line, unfoldings

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
TREE_CHANNEL = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x}")


def congruent_in(pair, rel):
    """`congruent` against a plain relation: every pair live, no history."""
    rel = set(rel)
    return congruent(pair, index_rules(rel), {}, rel)


def simplify_alone(g, pairs, history):
    """`simplify` outside a search, with a fresh default budget."""
    return simplify(g, pairs, history, Budget())


def tree_grammar():
    g, w = build(TREE_C)
    compute_norms(g)
    prune(g)
    return g, w


class TestExpand:
    def test_terminated_pair(self):
        g, _ = tree_grammar()
        assert expand(g, {((), ())}) == frozenset()

    def test_tree_channel_root(self):
        g, w = tree_grammar()
        (t,) = w
        succ = expand(g, {(w, w)})
        node_word = g.productions[t][Terminal("+", "Node")]
        assert succ == frozenset({((), ()), (node_word, node_word)})
        assert len(node_word) == 4

    def test_mismatched_actions_fail(self):
        g, w1, w2 = build(parse_type("!Int"), parse_type("?Int"))
        compute_norms(g)
        prune(g)
        assert expand(g, {(w1, w2)}) is None

    def test_terminated_against_live_fails(self):
        g, w1, w2 = build(parse_type("Skip"), parse_type("!Int"))
        compute_norms(g)
        assert expand(g, {(w1, w2)}) is None


class TestCongruent:
    def test_reflexive(self):
        assert congruent_in(((1, 2), (1, 2)), [])

    def test_member(self):
        assert congruent_in(((1,), (2,)), [((1,), (2,))])

    def test_common_prefix_then_member(self):
        # (T R, T R') from (R, R') under the reflexive head T
        assert congruent_in(((0, 1), (0, 2)), [((1,), (2,))])

    def test_concatenation_of_members(self):
        assert congruent_in(((1, 3), (2, 4)), [((1,), (2,)), ((3,), (4,))])

    def test_unjustified(self):
        assert not congruent_in(((1,), (2,)), [((3,), (4,))])

    def test_sound_vs_brute_force(self):
        rng = random.Random(17)
        alphabet = (0, 1, 2)
        for _ in range(120):
            rel = set()
            for _ in range(rng.randint(0, 3)):
                u = tuple(rng.choices(alphabet, k=rng.randint(0, 2)))
                v = tuple(rng.choices(alphabet, k=rng.randint(0, 2)))
                rel.add((u, v))
            closure = congruence_closure(rel, alphabet, max_len=3)
            for _ in range(10):
                u = tuple(rng.choices(alphabet, k=rng.randint(0, 3)))
                v = tuple(rng.choices(alphabet, k=rng.randint(0, 3)))
                if congruent_in((u, v), rel):
                    assert (u, v) in closure, (u, v, rel)

    def test_union_find_closure_equals_pairwise_closure(self):
        rng = random.Random(23)
        for alphabet, max_len in (((0, 1), 3), ((0, 1, 2), 2)):
            for _ in range(40):
                rel = set()
                for _ in range(rng.randint(0, 3)):
                    u = tuple(rng.choices(alphabet, k=rng.randint(0, 2)))
                    v = tuple(rng.choices(alphabet, k=rng.randint(0, 2)))
                    rel.add((u, v))
                assert (congruence_closure(rel, alphabet, max_len)
                        == pairwise_congruence_closure(rel, alphabet, max_len)), rel

    def test_index_agrees_with_rule_scanning(self):
        # The index may leave out only rules that cannot match, so every
        # answer equals the reference's, called as simplify calls it: the
        # node's own rules indexed once, the pair under test and the pairs
        # already deleted dropped through `live`, the history always counted.
        rng = random.Random(29)
        alphabet = (0, 1, 2)

        def word(longest):
            return tuple(rng.choices(alphabet, k=rng.randint(0, longest)))

        def nonempty(longest):
            return tuple(rng.choices(alphabet, k=rng.randint(1, longest)))

        answers = {True: 0, False: 0}
        for _ in range(300):
            node = {(word(2), word(2)) for _ in range(rng.randint(1, 4))}
            node.add(((), nonempty(2)))  # one empty side
            hist = {(word(2), word(2)) for _ in range(rng.randint(0, 2))}
            hist.add((nonempty(2), ()))
            if rng.random() < 0.3:
                hist.add(rng.choice(sorted(node)))  # a candidate also in the history
            own, hist_rules = index_rules(node - hist), index_rules(hist)
            kept = set(node)
            for p in sorted(node):
                kept.discard(p)
                expected = scanning_congruent(p, kept | hist)
                assert congruent(p, own, hist_rules, kept) == expected, (p, node, hist)
                answers[expected] += 1
                if not expected:
                    kept.add(p)
            for _ in range(4):
                pair = (word(4), word(4))
                expected = scanning_congruent(pair, node | hist)
                assert congruent_in(pair, node | hist) == expected, (pair, node, hist)
                answers[expected] += 1
        assert min(answers.values()) > 300, answers


class TestSimplify:
    def test_reflexive_pair_dissolves(self):
        g, w = tree_grammar()
        out = simplify_alone(g, {(w, w)}, [])
        assert out == {frozenset()}

    def test_congruence_uses_history(self):
        g, w = tree_grammar()
        (t,) = w
        r = next(nt for nt in g.productions
                 if Terminal("?", "Int") in g.productions[nt])
        m = next(nt for nt in g.productions
                 if Terminal("!", "Int") in g.productions[nt])
        pair_small = ((r,), (r, m))
        pair_big = ((t, r), (t, r, m))
        out = simplify_alone(g, {pair_big, pair_small}, [])
        assert any(pair_big not in node for node in out)
        out_hist = simplify_alone(g, {pair_big}, [pair_small])
        assert frozenset() in out_hist

    def test_b1_cancels_normed_head(self):
        g, w = tree_grammar()
        (t,) = w
        m = next(nt for nt in g.productions
                 if Terminal("!", "Int") in g.productions[nt])
        r = next(nt for nt in g.productions
                 if Terminal("?", "Int") in g.productions[nt])
        assert g.norms[m] == 1
        out = simplify_alone(g, {((m, t), (m, r))}, [])
        assert any(((t,), (r,)) in node for node in out)

    def test_unnormed_head_not_cancelled(self):
        g, w = build(parse_type("rec x. !Int;x"))
        compute_norms(g)
        prune(g)
        (x,) = w
        out = simplify_alone(g, {((x, x), (x,))}, [])
        # words are truncated behind the unnormed head instead
        assert out == {frozenset()}

    def test_b2_keeps_an_unchanged_sibling(self):
        t1 = parse_type("!Int;?Bool;!Char")
        t2 = parse_type("!Int;?Char")
        g, w1, w2 = build(t1, t2)
        compute_norms(g)
        prune(g)
        out = simplify_alone(g, {(w1, w2)}, [])
        # the shared normed head cancels first; the decomposed pair survives
        # untouched in one sibling, next to the witness children
        reduced = (w1[1:], w2[1:])
        assert len(reduced[0]) == 2 and len(reduced[1]) == 1
        assert frozenset({reduced}) in out
        assert len(out) > 1
        assert all(isinstance(node, frozenset) for node in out)

    def test_b2_skips_a_single_symbol_side(self):
        # every witness child of (X, Y) is dead or the swapped pair (Y, X),
        # so the pair is left as it is
        g, w1, w2 = build(parse_type("!Int;?Bool"), parse_type("!Int;?Char"))
        compute_norms(g)
        prune(g)
        out = simplify_alone(g, {(w1, w2)}, [])
        assert out == {frozenset({(w1[1:], w2[1:])})}


class TestSearchBasics:
    def test_empty_root(self):
        g, _ = tree_grammar()
        assert search(g, (), ()) is True

    def test_immediate_fail(self):
        g, w1, w2 = build(parse_type("!Int"), parse_type("?Int"))
        compute_norms(g)
        prune(g)
        assert search(g, w1, w2) is False

    def test_budget_exhaustion_is_inconclusive(self):
        t2 = parse_type("rec y. +{Leaf: Skip, Node: !Int;y;y;?Int}")
        g, w1, w2 = build(TREE_C, S.subst(t2.body, {"y": t2}))
        compute_norms(g)
        prune(g)
        with pytest.raises(Inconclusive):
            search(g, w1, w2, budget=0)

    def test_simplification_draws_on_the_node_budget(self):
        # One processed node decides this query, so a budget of one node
        # would do for the search alone; the node's simplification needs two
        # more work items from the same budget.
        t2 = parse_type("rec y. +{Leaf: Skip, Node: !Int;y;y;?Int}")
        g, w1, w2 = build(TREE_C, S.subst(t2.body, {"y": t2}))
        compute_norms(g)
        prune(g)
        events: list[str] = []
        assert search(g, w1, w2, trace=lambda depth, count, action: events.append(action))
        assert events == ["empty: equivalent"]
        with pytest.raises(Inconclusive, match="exhausted in simplification"):
            search(g, w1, w2, budget=1)
        assert search(g, w1, w2, budget=3) is True


class TestRootReflexivity:
    """`equivalent` answers a session query whose two start words coincide
    before computing norms, pruning or searching."""

    def test_identical_ill_kinded_types_still_raise(self):
        for t in (TVar("x"), Rec("x", TVar("x"))):
            with pytest.raises(KindError):
                equivalent(t, t)

    def test_short_cut_traces_one_line(self):
        for t1, t2 in (("!Int;?Bool", "!Int;?Bool"),
                       ("(!Int;Skip);?Bool", "!Int;(?Bool;Skip)"),
                       ("rec x. &{A: ?Int;x, B: Skip}", "rec y. &{A: ?Int;y, B: Skip}")):
            events = []
            assert equivalent(parse_type(t1), parse_type(t2),
                              trace=lambda *e: events.append(e))
            assert events == [(0, 0, "empty: equivalent")], (t1, t2)

    def test_search_agrees_on_corpus_pairs_with_equal_start_words(self):
        rng = random.Random(61)
        coinciding = 0
        for name, draw in SUITES:
            for t1, t2 in draw(random.Random(f"{SEED}:{name}")):
                if rng.random() >= 0.1:
                    continue
                g, w1, w2 = build(t1, t2)
                if w1 != w2:
                    continue
                compute_norms(g)
                prune(g)
                assert search(g, w1, w2), (name, S.pretty(t1), S.pretty(t2))
                coinciding += 1
        assert coinciding >= 300


def walk_to_mismatch(g, pair, levels):
    """Walk the pairs reachable from `pair` level by level, as the probe
    does, for up to `levels` levels. Returns `("refuted", i)` when the pairs
    reachable in exactly i steps offer mismatched actions, `("wide", i)` when
    level i would hold more than `_PROBE_WIDTH` pairs (where a probe of any
    depth gives up), and `("safe", i)` when the walk ends at level i without
    either."""
    level = {pair}
    for i in range(levels):
        nxt = set()
        for w1, w2 in level:
            s1, s2 = step(g, w1), step(g, w2)
            if s1.keys() != s2.keys():
                return "refuted", i
            nxt.update((s1[a], s2[a]) for a in s1)
        if not nxt or nxt == level:
            return "safe", i
        if len(nxt) > E._PROBE_WIDTH:
            return "wide", i
        level = nxt
    return "safe", levels


class TestProbeDepth:
    """The probe's depth loses no refutation that a 32-level walk finds, on
    every pair the search probes for the TreeC ladder (k = 1..8) and the
    verdict corpus's perturbed suite, which holds the deepest refutations on
    record (level 6)."""

    def test_probe_refutes_whatever_a_long_walk_refutes(self, monkeypatch):
        probed = {}
        probe = E._pair_refuted

        def record(g, pair, cache):
            probed[id(g), pair] = g, pair
            return probe(g, pair, cache)

        monkeypatch.setattr(E, "_pair_refuted", record)
        queries = [pair for _, pair in ladder_queries()]
        queries += dict(SUITES)["perturbed"](random.Random(f"{SEED}:perturbed"))
        for t1, t2 in queries:
            equivalent(t1, t2)
        monkeypatch.undo()

        deepest = 0
        for g, pair in probed.values():
            outcome, level = walk_to_mismatch(g, pair, 32)
            if outcome == "refuted":
                deepest = max(deepest, level)
                assert E._pair_refuted(g, pair, {}), (pair, level)
            elif outcome == "wide":
                # the probe itself never reaches its width guard
                assert level >= E._PROBE_DEPTH, (pair, level)
        assert len(probed) > 1000
        assert deepest == 6


class TestProbeWidth:
    """The width cap is load-bearing: on this equivalent pair, the probe's
    levels grow as n^depth with n labels."""

    def test_the_cap_keeps_a_widening_probe_small(self, monkeypatch):
        msgs = ("!Int", "?Int", "!Char", "?Bool")
        t1 = parse_type("rec x. +{" + "".join(
            f"L{i}: x;+{{A: {m}, B: ?Char}};!Bool, " for i, m in enumerate(msgs)) + "End: Skip}")
        t2 = parse_type("rec x. +{" + "".join(
            f"L{i}: x;+{{A: {m};!Bool, B: ?Char;!Bool}}, " for i, m in enumerate(msgs))
            + "End: Skip}")
        calls = 0

        def counting(g, w):
            nonlocal calls
            calls += 1
            return step(g, w)

        monkeypatch.setattr(E, "step", counting)
        assert equivalent(t1, t2)
        # about 1,400 with the cap, 233,000 without it
        assert calls < 5_000


class TestFrontierOrder:
    def drain(self, nodes):
        frontier = []
        for order, pairs in enumerate(nodes):
            _push(frontier, _Entry(frozenset(pairs), frozenset(), 1), order)
        return [heapq.heappop(frontier)[-1].pairs for _ in nodes]

    def test_smaller_nodes_first_whatever_their_pair_count(self):
        long_pair = {((1, 2, 3), (4, 5, 6))}
        two_pairs = {((1,), (2,)), ((3,), (4,))}
        short_pair = {((1,), (2, 3))}
        assert self.drain([long_pair, two_pairs, short_pair]) == [
            short_pair, two_pairs, long_pair]

    def test_a_deep_lawified_pair_takes_the_small_nodes(self):
        # A tree recursion against a lawified 5-fold unfolding: a key that
        # takes the node with fewer pairs first processes 10 nodes here, one
        # that takes the smaller node first 6.
        tree = parse_type("rec x. +{Leaf: Skip, Node: !Int;!Int;x;x;?Int;?Int}")
        *_, unfolded = unfoldings(tree, 5)
        lawified = lawify(random.Random(9), unfolded)
        _, letter, nodes, _ = search_line("deep", tree, lawified).rsplit(" ", 3)
        assert (letter, int(nodes)) == ("E", 6)

    def test_equal_keys_come_out_in_push_order(self):
        nodes = [{((1,), (2,))}, {((3,), (4,))}, {((2,), (1,))}, {((5,), (6,))}]
        assert self.drain(nodes) == nodes


class TestEquivalentLaws:
    def test_monoid(self):
        assert equivalent(parse_type("Skip;!Int"), parse_type("!Int"))
        assert equivalent(parse_type("!Int;Skip"), parse_type("!Int"))

    def test_distributivity_instance(self):
        lhs = parse_type("+{L: !Int, M: ?Bool};!Char")
        rhs = parse_type("+{L: !Int;!Char, M: ?Bool;!Char}")
        assert equivalent(lhs, rhs)
        lhs2 = parse_type("&{L: !Int, M: ?Bool};!Char")
        rhs2 = parse_type("&{L: !Int;!Char, M: ?Bool;!Char}")
        assert equivalent(lhs2, rhs2)

    def test_associativity_instance(self):
        assert equivalent(parse_type("!Int;(?Bool;!Char)"),
                          parse_type("(!Int;?Bool);!Char"))

    def test_polarities_differ(self):
        assert not equivalent(parse_type("!Int"), parse_type("?Int"))

    def test_unfolding(self):
        unfolded = S.subst(TREE_CHANNEL.body, {TREE_CHANNEL.var: TREE_CHANNEL})
        assert k_bisimilar_types(TREE_CHANNEL, unfolded, 20)
        assert equivalent(TREE_CHANNEL, unfolded)

    def test_functional_structure(self):
        assert equivalent(parse_type("Int -> Bool"), parse_type("Int -> Bool"))
        assert not equivalent(parse_type("Int -> Bool"), parse_type("Int -o Bool"))
        assert not equivalent(parse_type("Int"), parse_type("Bool"))
        assert equivalent(parse_type("(Int, Skip;!Int)"), parse_type("(Int, !Int)"))

    def test_kind_mismatch_is_false_not_an_error(self):
        assert not equivalent(parse_type("!Int"), parse_type("Int -> Bool"))
        assert not equivalent(parse_type("Skip"), parse_type("Int"))

    def test_open_types_compare_rigidly(self):
        env = {"a": SL, "b": SL}
        assert equivalent(parse_type("!Int;a"), parse_type("!Int;a"), env)
        assert not equivalent(parse_type("!Int;a"), parse_type("!Int;b"), env)
        assert equivalent(parse_type("(Skip;a);Skip"), parse_type("a"), env)
        assert equivalent(TVar("a"), TVar("a"), env)

    def test_functional_variables(self):
        env = {"f": TU}
        assert equivalent(TVar("f"), TVar("f"), env)
        assert not equivalent(TVar("f"), Basic("Int"), env)

    def test_functional_descent_kinds_only_the_roots(self, monkeypatch):
        # a component is a session or a functional type by its syntax: a
        # variable by `env`, a name by `datakinds`
        kinded = []
        synth_kind = K.synth_kind
        monkeypatch.setattr(K, "synth_kind", lambda *args: kinded.append(args) or synth_kind(*args))
        env, names, bodies = {"s": SL, "f": TU}, {"D": TU, "A": SL}, {"A": parse_type("!Int")}

        def chain():
            out = parse_type("!Int;?Bool")
            for _ in range(50):
                out = S.Arrow(S.UNRESTRICTED, Pair(TVar("s"), DataRef("D")), out)
            return out

        # only root objects are kinded, and one object once
        c1, c2 = chain(), chain()
        assert equivalent(c1, c2, env, datakinds=names)
        assert equivalent(c1, c1, env, datakinds=names)
        assert len(kinded) == 3 and all(a[1] is b for a, b in zip(kinded, (c1, c2, c1)))
        # a session kinds each (object, env) pair once over all its queries
        kinded.clear()
        session = E.Session(names, {})
        for _ in range(3):
            assert session.equivalent(c1, c2, env)
            assert session.equivalent(c2, c1, env)
        assert len(kinded) == 2 and kinded[0][1] is c1 and kinded[1][1] is c2
        assert not equivalent(Pair(TVar("s"), TVar("f")), Pair(TVar("f"), TVar("f")), env)
        assert not equivalent(Pair(DataRef("A"), DataRef("D")), Pair(DataRef("D"), DataRef("D")),
                              datakinds=names, abbrevs=bodies)
        assert equivalent(Pair(DataRef("A"), TVar("f")), Pair(DataRef("A"), TVar("f")), env,
                          datakinds=names, abbrevs=bodies)


class TestLadder:
    def test_tree_c_against_its_unfoldings(self):
        # An unfolding is equivalent by the fixed-point law; its ?Bool variant
        # receives a Bool where TreeC receives an Int, so it is not.
        unfolded = TREE_C
        for k in range(1, 7):
            unfolded = S.subst(TREE_C.body, {TREE_C.var: unfolded})
            assert equivalent(TREE_C, unfolded), k
            assert not equivalent(TREE_C, receive_bool(unfolded)), k

    def test_each_rung_processes_one_node_per_unfolding(self):
        # smallest node first: one single-pair node per unfolding on the way
        # to the empty node
        for k, unfolded in enumerate(unfoldings(TREE_C, 10), 1):
            name, letter, nodes, _ = search_line(f"ladder {k}", TREE_C, unfolded).rsplit(" ", 3)
            assert (letter, int(nodes)) == ("E", k), name

    def test_shared_rungs_grow_linearly(self):
        # The 20-fold unfolding has 2^20 paths to its innermost copy but four
        # objects per fold, and so does the ?Bool variant built by `subst`
        # from a ?Bool body: kinding, translation and search follow objects.
        bool_c = receive_bool(TREE_C)
        unfolded, variant = TREE_C, bool_c
        sizes = []
        for _ in range(20):
            unfolded = S.subst(TREE_C.body, {TREE_C.var: unfolded})
            variant = S.subst(bool_c.body, {bool_c.var: variant})
            sizes.append([len(build(TREE_C, t)[0].productions) for t in (unfolded, variant)])
        assert {(b[0] - a[0], b[1] - a[1]) for a, b in zip(sizes, sizes[1:])} == {(1, 1)}
        start = time.perf_counter()
        assert equivalent(TREE_C, unfolded)
        assert not equivalent(TREE_C, variant)
        assert time.perf_counter() - start < 1.0


class TestSession:
    def test_one_growing_grammar_decides_as_fresh_queries(self):
        # the corpus pairs and the ladder, in turn, through one session: each
        # search norms and prunes only the nonterminals its query added
        pairs = [pair for name, draw in SUITES
                 for pair in list(draw(random.Random(f"{SEED}:{name}")))[:150]]
        pairs += [pair for _, pair in ladder_queries()]
        session = E.Session({}, {})
        verdicts = [session.equivalent(t1, t2, {}) for t1, t2 in pairs]
        assert verdicts == [equivalent(t1, t2) for t1, t2 in pairs]
        assert 100 < verdicts.count(False) < len(pairs) - 100
        g = session.grammar
        assert g.norms == compute_norms(Grammar(dict(g.productions))).norms


class TestEquivalenceRelation:
    def test_reflexive_symmetric(self):
        rng = random.Random(41)
        for _ in range(80):
            t1 = rand_session(rng, rng.randint(0, 4))
            t2 = lawify(rng, t1) if rng.random() < 0.5 else rand_session(rng, rng.randint(0, 4))
            assert equivalent(t1, t1)
            assert equivalent(t1, t2) == equivalent(t2, t1)

    def test_transitive_on_random_triples(self):
        rng = random.Random(42)
        for _ in range(60):
            t1 = rand_session(rng, rng.randint(0, 3))
            t2 = lawify(rng, t1)
            t3 = lawify(rng, t2)
            assert equivalent(t1, t2) and equivalent(t2, t3) and equivalent(t1, t3)


def small_instances(rng, count):
    """Pairs whose pruned grammar has at most 6 nonterminals, all norms
    finite and at most 4."""
    out = []
    while len(out) < count:
        t1 = rand_session(rng, rng.randint(0, 3))
        t2 = (lawify(rng, t1) if rng.random() < 0.4 else
              perturb(rng, t1) if rng.random() < 0.7 else
              rand_session(rng, rng.randint(0, 3)))
        g, w1, w2 = build(t1, t2)
        compute_norms(g)
        prune(g)
        if len(g.productions) > 6:
            continue
        norms = list(g.norms.values())
        if any(n is None or n > 4 for n in norms):
            continue
        out.append((t1, t2, g, w1, w2))
    return out


class TestDifferential:
    def test_small_instances_vs_product_bfs(self):
        rng = random.Random(51)
        for t1, t2, g, w1, w2 in small_instances(rng, 150):
            total = (word_norm(g, w1) or 0) + (word_norm(g, w2) or 0)
            depth = 2 * total + 4
            want = k_bisimilar_types(t1, t2, depth)
            assert equivalent(t1, t2) == want, (S.pretty(t1), S.pretty(t2))

    def test_regular_fragment_vs_fixed_point_oracle(self):
        rng = random.Random(52)
        for _ in range(100):
            t1 = rand_regular(rng, rng.randint(0, 4))
            t2 = (lawify(rng, t1) if rng.random() < 0.5 else
                  rand_regular(rng, rng.randint(0, 4)))
            assert equivalent(t1, t2) == regular_equivalent(t1, t2)

    def test_heavy_rewrites_stay_equivalent(self):
        # chains of unit/associativity/distribution/unfolding rewrites,
        # including recursion bodies whose head runs an enclosing recursion
        rng = random.Random(31337)
        for _ in range(250):
            t1 = rand_session(rng, rng.randint(1, 5))
            t3 = lawify(rng, lawify(rng, t1, rounds=8), rounds=8)
            assert equivalent(t1, t3), (S.pretty(t1), S.pretty(t3))

    def test_inner_recursion_running_outer_recursion(self):
        t = parse_type(
            "rec y. +{Leaf: rec z. (y;y);!Char;z, Node: +{Stop: Skip, Go: y}}")
        assert equivalent(t, t)
        unfolded = S.subst(t.body, {t.var: t})
        assert equivalent(t, unfolded)

    def test_decomposition_of_balanced_counters(self):
        # n sends then n receives per round, grouped differently on each side
        c = parse_type("rec c. +{I: !Int;c;?Int, Z: Skip}")
        unrolled = parse_type(
            "+{I: !Int;(rec c. +{I: !Int;c;?Int, Z: Skip});?Int, Z: Skip}")
        assert equivalent(c, unrolled)
        assert equivalent(Semi(c, parse_type("?Int")), Semi(unrolled, parse_type("?Int")))
        assert not equivalent(c, Semi(c, parse_type("?Int")))

    def test_deep_corruption_refuted_quickly(self):
        # a single flipped payload buried in a 5-level unfolding must be
        # refuted without exploring the decomposition siblings
        tc = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
        unfolded = tc
        for _ in range(5):
            unfolded = S.subst(tc.body, {tc.var: unfolded})

        state = {"done": False}

        def flip(t):
            match t:
                case S.Message("?", "Int") if not state["done"]:
                    state["done"] = True
                    return S.Message("?", "Bool")
                case S.Semi(l, r):
                    return S.Semi(flip(l), flip(r))
                case S.Choice(v, bs):
                    return S.Choice(v, tuple((lab, flip(b)) for lab, b in bs))
                case S.Rec(v, b):
                    return S.Rec(v, flip(b))
                case _:
                    return t

        corrupted = flip(unfolded)
        assert state["done"]
        import time
        t0 = time.time()
        assert equivalent(tc, unfolded)
        assert not equivalent(tc, corrupted)
        assert time.time() - t0 < 2.0

    def test_simplification_never_changes_verdicts(self):
        # the search, simplification rules included, against bounded
        # bisimulation of the types, on a second seeded sample
        rng = random.Random(53)
        for t1, t2, g, w1, w2 in small_instances(rng, 80):
            total = (word_norm(g, w1) or 0) + (word_norm(g, w2) or 0)
            want = k_bisimilar_types(t1, t2, 2 * total + 4)
            assert equivalent(t1, t2) == want, (S.pretty(t1), S.pretty(t2))
