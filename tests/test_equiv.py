"""The expansion-tree equivalence decision procedure."""

import functools
import heapq
import random
import time

import pytest

from sluice import equiv as E
from sluice import syntax as S
from sluice.diagnostics import DiagnosticError
from sluice.kinds import KindError
from sluice.equiv import (
    Budget, Inconclusive, _push, congruent, equivalent,
    expand, index_rules, search, simplify,
)
from sluice.grammar import (
    Grammar, Terminal, build, compute_norms, prune, step, truncate, word_norm,
)
from sluice.parser import parse_type
from sluice.syntax import Basic, DataRef, Pair, Rec, Semi, TVar, SL, TU

from gen import lawify, perturb, rand_regular, rand_session, receive_bool
from oracles import (
    congruence_closure, k_bisimilar_types, pairwise_congruence_closure,
    regular_equivalent, scanning_congruent,
)
from verdict_corpus import (
    DEEP_FOLDS, DEEP_SEEDS, DEEP_TREES, SUITES, drawn, ladder_queries, read_golden,
    search_line, unfoldings,
)

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
TREE_CHANNEL = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x}")


def congruent_in(pair, rel):
    """`congruent` against a plain relation: every pair live, no history."""
    rel = set(rel)
    return congruent(pair, index_rules(rel), {}, rel)


def simplify_alone(g, pairs, history):
    """`simplify` outside a search, with the history indexed and a fresh
    default budget."""
    return simplify(g, pairs, index_rules(history), Budget())


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
        for name, _ in SUITES:
            for t1, t2 in drawn(name):
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
    """Walk the pairs reachable from `pair` level by level, as the refutation
    walk does, for up to `levels` levels and with twice its pair cap.
    Returns `("refuted", d)` when a pair d steps from `pair` offers
    mismatched actions, `("wide", d)` when more than `2 * _WALK_PAIRS`
    pairs are seen by level d, and `("safe", d)` when the walk ends at level
    d without either."""
    seen, level = {pair}, {pair}
    for depth in range(levels):
        nxt = set()
        for w1, w2 in level:
            s1, s2 = step(g, w1), step(g, w2)
            if s1.keys() != s2.keys():
                return "refuted", depth
            nxt.update((truncate(g, s1[a]), truncate(g, s2[a])) for a in s1)
        level = {p for p in nxt if p[0] != p[1]} - seen
        seen |= level
        if not level:
            return "safe", depth
        if len(seen) > 2 * E._WALK_PAIRS:
            return "wide", depth
    return "safe", levels


class TestProbeDepth:
    """The root walk's level bound loses no refutation that a 32-level walk
    finds within the bound's reach, on every root pair of the TreeC ladder
    (k = 1..8), the verdict corpus's perturbed suite and its deep suite,
    which holds the deepest refutations on record."""

    def test_probe_refutes_whatever_a_long_walk_refutes(self, monkeypatch):
        # The root walk runs on the grammar as filled, before the query norms
        # and prunes it, so each root pair is replayed on a copy of the
        # grammar taken when the walk ran.
        walked = []
        walk = E._pair_refuted

        def record(g, root, quota, levels):
            refuted = walk(g, root, quota, levels)
            if levels is not None:
                copy = Grammar({n: dict(prods) for n, prods in g.productions.items()},
                               dict(g.norms))
                walked.append((copy, root, refuted, len(verdicts)))
            return refuted

        monkeypatch.setattr(E, "_pair_refuted", record)
        queries = [pair for _, pair in ladder_queries()]
        queries += drawn("perturbed") + drawn("deep")
        verdicts = []
        for t1, t2 in queries:
            verdicts.append(equivalent(t1, t2))
        monkeypatch.undo()

        depths, beyond = [], []
        for g, root, refuted, query in walked:
            outcome, depth = walk_to_mismatch(g, root, 32)
            assert refuted == (outcome == "refuted" and depth < E._ROOT_LEVELS), (root, depth)
            if refuted:
                depths.append(depth)
            elif outcome == "refuted":
                # too deep for the root walk: the query is still refuted
                # below the root, by the search or by the walk at its
                # `_WALK_AFTER`th node
                assert not verdicts[query], (root, depth)
                beyond.append(depth)
            elif outcome == "wide":
                # the long walk gave up here, which costs no refutation only
                # because the query is equivalent
                assert verdicts[query], (root, depth)
        assert len(walked) > 3000
        # deep pair 37 is refuted at depth 8: the bound keeps no margin
        assert max(depths) == E._ROOT_LEVELS - 1 == 8
        # eleven deep pairs, each refuted below the root
        assert sorted(beyond) == [10, 10, 10, 11, 11, 13, 15, 16, 16, 17, 17]


class TestProbeWidth:
    """The pair cap is load-bearing: on this equivalent pair, the pairs the
    root walk reaches at each depth grow as n^depth with n labels."""

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
        # about 1,500 with the cap, 233,000 without it
        assert calls < 5_000


@functools.cache
def deep_pairs():
    """The 12 deep pairs: the three-`x` tree recursion against its perturbed
    5-fold unfolding, perturbed with seeds 0-11."""
    tree = parse_type(DEEP_TREES[-1])
    *_, unfolded = unfoldings(tree, DEEP_FOLDS)
    return tuple((tree, perturb(random.Random(seed), unfolded)) for seed in range(12))


class TestBreadthFirstWalk:
    """The walk's trigger and cap each sit above a measurement, the deep
    pairs end where it runs, and it draws on the query's budget."""

    def test_the_trigger_sits_above_every_equivalent_search(self):
        # the most nodes a recorded equivalent query processes: 8 on the
        # ladder, 7 among the deep suite's equivalent pairs
        most = {}
        queries = [(name, pair) for name, pair in ladder_queries() if name.startswith("ladder ")]
        queries += [("deep", pair) for pair, letter in zip(drawn("deep"), read_golden()["deep"])
                    if letter == "E"]
        for name, (t1, t2) in queries:
            _, letter, nodes, _ = search_line(name, t1, t2).rsplit(" ", 3)
            assert letter == "E", name
            name = name.split()[0]
            most[name] = max(most.get(name, 0), int(nodes))
        assert most == {"ladder": 8, "deep": 7}
        assert max(most.values()) < E._WALK_AFTER

    def test_the_cap_sits_above_every_recorded_refutation(self, monkeypatch):
        # the most pairs a recorded refutation sees is 899, at seed 2, and
        # the next most 875, at seed 0; a walk steps a pair only while it has
        # seen fewer than the cap (every deep pair refutes under the real cap,
        # see the next test)
        pairs = deep_pairs()

        def refuted(seed, cap):
            monkeypatch.setattr(E, "_WALK_PAIRS", cap)
            g, w1, w2 = build(*pairs[seed])
            compute_norms(g)
            prune(g)
            return E._pair_refuted(g, (truncate(g, w1), truncate(g, w2)), Budget(), None)

        assert E._WALK_PAIRS > 2 * 899
        assert refuted(2, 900) and not refuted(2, 899)
        assert refuted(0, 876) and not refuted(0, 875)

    def test_every_deep_pair_ends_where_the_walk_runs(self):
        for t1, t2 in deep_pairs():
            events = []
            assert not equivalent(t1, t2, trace=lambda *e: events.append(e))
            assert len(events) <= E._WALK_AFTER
            assert events[-1][2] in ("refuted by breadth-first walk",
                                     "refuted by expansion probe")

    def test_a_small_budget_stops_the_walk(self):
        # seed 0 spends 384 units on its first 50 nodes and 704 in the walk,
        # 1,088 in all
        t1, t2 = deep_pairs()[0]
        walk = "^node budget of 500 exhausted in breadth-first walk$"
        with pytest.raises(Inconclusive, match=walk):
            equivalent(t1, t2, budget=500)


class TestTruncatedNodes:
    """`simplify` truncates the expanded node once and queues B2 witness
    children as built, because their words are truncated already."""

    def test_every_simplified_word_is_truncated(self, monkeypatch):
        simplify_, candidates = E.simplify, E._b2_candidates
        nodes = unnormed = children = 0

        def checked(g, pairs, history, budget):
            nonlocal nodes, unnormed
            result = simplify_(g, pairs, history, budget)
            for node in result:
                words = [word for pair in node for word in pair]
                for word in words:
                    assert word == truncate(g, word), (node, word)
                unnormed += any(g.norms.get(nt) is None for word in words for nt in word)
            nodes += len(result)
            return result

        def counted(g, y, steps):
            nonlocal children
            found = candidates(g, y, steps)
            children += len(found)
            return found

        monkeypatch.setattr(E, "simplify", checked)
        monkeypatch.setattr(E, "_b2_candidates", counted)
        # the ladder; the deep pair of seed 3, which makes most of the B2
        # children on record; and a perturbed TreeC unfolding followed by an
        # unnormed stream, whose B2 children hold unnormed symbols. The last
        # two are not equivalent, and the breadth-first walk would end them
        # at node 50 with 362 nodes in all; 355 is the earliest trigger
        # that still meets all three bounds.
        monkeypatch.setattr(E, "_WALK_AFTER", 355)
        deep = drawn("deep")[DEEP_SEEDS.index(3) - len(DEEP_SEEDS)]
        queries = [pair for _, pair in ladder_queries()] + [deep]
        stream = parse_type("rec y. !Bool;y")
        *_, unfolded = unfoldings(TREE_C, 5)
        queries.append((Semi(TREE_C, stream), Semi(perturb(random.Random(3), unfolded), stream)))
        for t1, t2 in queries:
            equivalent(t1, t2)
        assert nodes > 1000
        assert unnormed > 100
        assert children > 2000


class TestFrontierOrder:
    def drain(self, nodes):
        frontier = []
        for order, pairs in enumerate(nodes):
            _push(frontier, frozenset(pairs), {}, 1, order)
        return [heapq.heappop(frontier)[2] for _ in nodes]

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

    def test_too_deep_a_nest_is_a_diagnostic(self):
        t = S.Message(S.OUT, "Int")
        for _ in range(3000):
            t = S.Choice(S.INTERNAL, (("A", t),))
        with pytest.raises(DiagnosticError, match="^nesting too deep$"):
            equivalent(t, Semi(t, S.Skip()))

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

    def test_functional_query_kinds_only_the_roots(self, root_walks):
        # a query walks its two roots once, and translates their parts into
        # grammar nonterminals off that walk, session and functional alike
        env, names, bodies = {"s": SL, "f": TU}, {"D": TU, "A": SL}, {"A": parse_type("!Int")}

        def chain(last="!Int;?Bool"):
            out = parse_type(last)
            for _ in range(50):
                out = S.Arrow(S.UNRESTRICTED, Pair(TVar("s"), DataRef("D")), out)
            return out

        # only root objects are walked, and one object once
        c1, c2, c3 = chain(), chain(), chain("!Int;?Int")
        assert equivalent(c1, c2, env, datakinds=names)
        assert equivalent(c1, c1, env, datakinds=names)
        assert not equivalent(c1, c3, env, datakinds=names)  # fills every arrow
        assert len(root_walks) == 5 and all(
            a[0] is b for a, b in zip(root_walks, (c1, c2, c1, c1, c3)))
        # a session walks each (object, env) pair once over all its queries
        root_walks.clear()
        session = E.Session(names, {})
        for _ in range(3):
            assert session.equivalent(c1, c2, env)
            assert session.equivalent(c2, c1, env)
        assert len(root_walks) == 2 and root_walks[0][0] is c1 and root_walks[1][0] is c2
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
    def test_one_growing_grammar_decides_as_fresh_queries(self, checked_searches):
        # the corpus pairs and the ladder, in turn, through one session: a
        # query refuted at its root norms nothing, and one that gets past it
        # norms and prunes only the nonterminals added since the last one did
        pairs = [pair for name, _ in SUITES for pair in drawn(name)[:150]]
        pairs += [pair for _, pair in ladder_queries()]
        session = E.Session({}, {})
        verdicts = [session.equivalent(t1, t2, {}) for t1, t2 in pairs]
        outcomes = checked_searches[:]
        assert verdicts == [equivalent(t1, t2) for t1, t2 in pairs]
        assert 100 < verdicts.count(False) < len(pairs) - 100
        assert outcomes.count("root") > 100 and outcomes.count("past") > 10, outcomes

    def test_an_interrupted_norm_step_is_not_taken_as_done(self, monkeypatch):
        # the mismatch lies deeper than the root walk reaches, so the query gets
        # past its root; left with provisional norms, the session would cut
        # every word to its first symbol and answer True
        deep = parse_type("!Int;" * 10 + "?Int"), parse_type("!Int;" * 10 + "?Bool")
        unfolded = S.subst(TREE_C.body, {TREE_C.var: TREE_C})
        compute = E.compute_norms

        def interrupted(g, done=0):
            monkeypatch.setattr(E, "compute_norms", compute)
            g.norms.update((nt, None) for nt in list(g.productions)[done:])
            raise KeyboardInterrupt

        monkeypatch.setattr(E, "compute_norms", interrupted)
        session = E.Session({}, {})
        with pytest.raises(KeyboardInterrupt):
            session.equivalent(*deep, {})
        queries = [deep, (TREE_C, unfolded), deep[::-1]]
        verdicts = [session.equivalent(t1, t2, {}) for t1, t2 in queries]
        assert verdicts == [equivalent(t1, t2) for t1, t2 in queries] == [False, True, False]


def root_outcome(g, root):
    """The root step of `search` on a grammar as it stands: "failed",
    "refuted" or "goes on". The root walk's pair cap may cost no
    refutation: a walk with twice the cap agrees with it."""
    if expand(g, {root}) is None:
        return "failed"
    refuted = E._pair_refuted(g, root, None, E._ROOT_LEVELS)
    outcome, _ = walk_to_mismatch(g, root, E._ROOT_LEVELS)
    assert outcome != "wide" and refuted == (outcome == "refuted"), root
    return "refuted" if refuted else "goes on"


class TestRootStep:
    """`search` walks from the root pair over the grammar as filled, and
    norms and prunes only when the query gets past its root."""

    def test_a_root_refutation_norms_nothing(self):
        variant = receive_bool(next(unfoldings(TREE_C, 1)))
        for t1, t2, line in ((parse_type("!Int"), parse_type("?Int"), "expansion failed"),
                             (TREE_C, variant, "refuted by expansion probe")):
            session, events = E.Session({}, {}), []
            assert not session.equivalent(t1, t2, {}, trace=lambda *e: events.append(e))
            assert events == [(0, 1, line)]
            assert session.grammar.norms == {}

    def test_the_root_draws_its_unit_before_it_expands(self):
        with pytest.raises(Inconclusive):
            equivalent(parse_type("!Int"), parse_type("?Int"), budget=0)

    def test_the_root_outcome_is_the_same_before_norms_and_after(self):
        # exactness of the root step: pruning cuts only tails no transition
        # reaches, so the unpruned grammar fails or refutes the same roots
        rng = random.Random(71)
        queries = [pair for _, pair in ladder_queries()]
        queries += [pair for name in ("perturbed", "regular") for pair in drawn(name)
                    if rng.random() < 0.2]
        outcomes = []
        for t1, t2 in queries:
            g, w1, w2 = build(t1, t2)
            before = root_outcome(g, (w1, w2))
            compute_norms(g)
            prune(g)
            assert root_outcome(g, (truncate(g, w1), truncate(g, w2))) == before, (
                S.pretty(t1), S.pretty(t2))
            outcomes.append(before)
        assert min(outcomes.count(o) for o in ("failed", "refuted", "goes on")) > 200, outcomes


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
