"""Grammar translation, norms, pruning, and word transitions."""

import random
from collections import deque

from sluice import syntax as S
from sluice.equiv import equivalent
from sluice.grammar import (
    Grammar, _Builder, build, compute_norms, dump, prune, step,
    truncate, word_norm, EPSILON,
)
from sluice.kinds import Walk
from sluice.parser import parse_type
from sluice.syntax import Choice, Message, Rec, Semi, Skip, TVar

from gen import rand_session
from oracles import bfs_norm, k_bisimilar_type_word

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")
LOOP = parse_type("rec x. !Int;x")


def keyed_alike(*types):
    """Whether one walk gives the types one key: equal up to the Skip laws,
    vacuous recursion and renaming of binders."""
    walk, env = Walk({}), {}
    return len({walk.facts(t, env)[6] for t in types}) == 1


def _is_plain_pair(a) -> bool:
    return a.__class__ is tuple and len(a) == 2 and all(x.__class__ is str for x in a)


def canonical_shape(g: Grammar, start):
    """Renaming-independent description of the part of the grammar reachable
    from a start word: nonterminals are numbered in breadth-first discovery
    order and each is listed with its sorted productions."""
    order: dict[int, int] = {}
    queue = deque(start)
    while queue:
        nt = queue.popleft()
        if nt in order:
            continue
        order[nt] = len(order)
        for a in sorted(g.productions[nt]):
            queue.extend(g.productions[nt][a])
    shape = []
    for nt in sorted(order, key=order.get):
        prods = tuple(
            (a, tuple(order[x] for x in g.productions[nt][a]))
            for a in sorted(g.productions[nt]))
        shape.append(prods)
    return tuple(order[x] for x in start), tuple(shape)


def unshare(t):
    """A copy of a session type in which every path reaches its own object."""
    match t:
        case Semi(lhs, rhs):
            return Semi(unshare(lhs), unshare(rhs))
        case Choice(view, branches):
            return Choice(view, tuple((lab, unshare(ty)) for lab, ty in branches))
        case Rec(var, body):
            return Rec(var, unshare(body))
        case Message(polarity, payload):
            return Message(polarity, payload)
        case TVar(name):
            return TVar(name)
        case Skip():
            return Skip()
    raise TypeError(t)


def objects(t, seen=None):
    """The distinct objects of a type, by identity."""
    seen = {} if seen is None else seen
    if id(t) not in seen:
        seen[id(t)] = t
        match t:
            case Semi(lhs, rhs):
                objects(lhs, seen)
                objects(rhs, seen)
            case Choice(_, branches):
                for _, ty in branches:
                    objects(ty, seen)
            case Rec(_, body):
                objects(body, seen)
    return seen


def built(*types):
    """`grammar.dump` of the types' shared grammar, normed and pruned."""
    g, *starts = build(*types)
    compute_norms(g)
    prune(g)
    return dump(g, starts)


class TestBuild:
    def test_tree_channel_shape(self):
        g, w = build(TREE_C)
        # T -> +Leaf eps | +Node M T T R;  M -> !Int eps;  R -> ?Int eps
        start, shape = canonical_shape(g, w)
        assert start == (0,)
        assert shape == (
            ((("+", "Leaf"), ()), (("+", "Node"), (1, 0, 0, 2))),
            ((("!", "Int"), ()),),
            ((("?", "Int"), ()),),
        )

    def test_tree_channel_behaves_like_its_type(self):
        g, w = build(TREE_C)
        assert k_bisimilar_type_word(TREE_C, g, w, 12)

    def test_skip_is_the_empty_word(self):
        g, w = build(parse_type("Skip"))
        assert w == EPSILON
        assert g.productions == {}

    def test_monoid_laws_collapse_to_one_word(self):
        g, w1, w2 = build(parse_type("Skip;!Int"), parse_type("!Int;Skip"))
        assert w1 == w2 and len(w1) == 1

    def test_loop_shape(self):
        g, w = build(LOOP)
        start, shape = canonical_shape(g, w)
        assert start == (0,)
        assert shape == (((("!", "Int"), (0,)),),)
        assert step(g, w) == {("!", "Int"): w}

    def test_random_translation_matches_type_semantics(self):
        rng = random.Random(11)
        for _ in range(200):
            t = rand_session(rng, rng.randint(0, 5))
            g, w = build(t)
            assert k_bisimilar_type_word(t, g, w, 10), t

    def test_memoized_rebuild_gives_identical_start(self):
        rng = random.Random(12)
        for _ in range(100):
            t = rand_session(rng, rng.randint(0, 4))
            g, w1, w2 = build(t, t)
            assert w1 == w2

    def test_shared_subterms_build_as_unshared_copies(self):
        # An unfolding holds the previous one at both `x` sites as one
        # object. `rigid` reaches the choices `on_y` and `on_z` inside the
        # binders of their variables and again outside them, where `y` and
        # `z` are two different rigid actions.
        unfolded = TREE_C
        for _ in range(5):
            unfolded = S.subst(TREE_C.body, {TREE_C.var: unfolded})
        on_y, on_z = (Choice(S.INTERNAL, (("A", TVar(v)),)) for v in "yz")

        def loop(var, choice):
            body = Choice(S.INTERNAL, (("A", Semi(Message(S.OUT, "Int"), choice)),
                                       ("B", Skip())))
            return Rec(var, body)

        rigid = Semi(loop("y", on_y), Semi(loop("z", on_z), Semi(on_y, on_z)))
        rng = random.Random(14)
        cases = [(TREE_C, unfolded), (rigid, on_y), (on_z, rigid)]
        cases += [(t, Semi(t, t)) for t in (rand_session(rng, 4) for _ in range(30))]
        for t1, t2 in cases:
            c1, c2 = unshare(t1), unshare(t2)
            assert len(objects(Semi(c1, c2))) > len(objects(Semi(t1, t2)))
            assert built(t1, t2) == built(c1, c2), (S.pretty(t1), S.pretty(t2))

    def test_normal_types_come_back_as_themselves(self):
        unfolded = TREE_C
        for _ in range(4):
            unfolded = S.subst(TREE_C.body, {TREE_C.var: unfolded})
        for t in (TREE_C, unfolded, parse_type("!Int;x"), parse_type("!Int;Skip")):
            assert Walk({}).facts(t, {})[5] is t
        assert keyed_alike(parse_type("!Int;Skip"), parse_type("!Int"))

    def test_translation_builds_no_type(self):
        # keys are taken up to the Skip laws, so translating a type that is
        # not Skip-normal makes no normal copy of it: every subterm kept by
        # identity belongs to the type itself
        t = parse_type("+{A: Skip;!Int, B: rec y. ?Int}")
        walk, env = Walk({}), {}
        b = _Builder({}, walk)
        b.word(t, env)
        b.fill()
        mine = objects(t)
        (_, memo), = walk._scopes.values()
        assert memo
        for key, facts in memo.items():
            assert mine.get(key) is facts[5]

    def test_vacuous_rec_keys_as_its_body(self):
        # `rec y` binds nothing; once it is dropped, `x` is one binder out
        vacuous = parse_type("rec x. +{A: rec y. !Int;x, B: Skip}")
        plain = parse_type("rec x. +{A: !Int;x, B: Skip}")
        assert keyed_alike(vacuous, plain)
        g, w1, w2 = build(vacuous, plain)
        assert w1 == w2

    def test_each_name_is_one_nonterminal(self):
        names = {"A": parse_type("!Int;B"), "B": parse_type("+{More: ?Int;A, Done: U}"),
                 "U": parse_type("Skip;Skip")}
        g, wa, wb, wu = build(*map(S.DataRef, "ABU"), names=names)
        # A and B are one nonterminal each, whatever their bodies unfold to;
        # U names a terminated protocol, so it is the empty word
        assert (wa, wb, wu) == ((0,), (1,), EPSILON)
        assert g.productions == {
            0: {("!", "Int"): (1,)},
            1: {("+", "More"): (2, 0), ("+", "Done"): EPSILON},
            2: {("?", "Int"): EPSILON},
        }

    def test_functional_nonterminals(self):
        # an arrow has one production per component, tagged with its
        # multiplicity, a pair one per component, and a basic type or a
        # datatype name (a name that abbreviates nothing) one with an empty
        # tail; each nonterminal is filled last queued first
        g, w = build(parse_type("(Int, D) -> Bool -o !Int"), names={"E": parse_type("?Int")})
        assert w == (0,)
        assert g.productions == {
            0: {("->", "dom"): (1,), ("->", "cod"): (2,)},
            1: {("*", "fst"): (5,), ("*", "snd"): (6,)},
            2: {("-o", "dom"): (3,), ("-o", "cod"): (4,)},
            3: {("=", "Bool"): EPSILON},
            4: {("!", "Int"): EPSILON},
            5: {("=", "Int"): EPSILON},
            6: {("#", "D"): EPSILON},
        }

    def test_a_long_chain_of_names_costs_no_stack(self):
        n = 5000
        names = {f"A{i}": parse_type(f"!Int;A{i + 1}") for i in range(n)}
        names[f"A{n}"] = Skip()
        g, w = build(S.DataRef("A0"), names=names)
        compute_norms(g)
        assert word_norm(g, w) == n

    def test_a_deep_nest_of_choices_takes_one_frame_per_level(self):
        n = 900
        t = Message(S.OUT, "Int")
        for _ in range(n):
            t = Choice(S.INTERNAL, (("A", t),))
        g, w = build(t)
        compute_norms(g)
        assert len(g.productions) == n + 1
        assert word_norm(g, w) == n + 1
        # deciding it kinds the nest as well as translating it
        assert equivalent(t, Semi(t, Skip()))

    def test_gnf_and_determinism_by_construction(self):
        rng = random.Random(13)
        for _ in range(100):
            t = rand_session(rng, rng.randint(0, 5))
            g, _ = build(t)
            for nt, prods in g.productions.items():
                assert isinstance(nt, int)
                for a, delta in prods.items():
                    assert _is_plain_pair(a)
                    assert all(x in g.productions for x in delta)

    def test_first_actions_are_plain_pairs_of_strings(self):
        # every key of `syntax.head` and of `step` is a `(tag, arg)` tuple,
        # open types, names and functional types included
        rng = random.Random(29)
        names = {"A": parse_type("!Int;B"), "B": parse_type("+{More: ?Int;A, Done: Skip}")}
        types = [parse_type("(Int, D) -> Bool -o !Int"), S.DataRef("A")]
        types += [rand_session(rng, rng.randint(0, 5), ("a",)) for _ in range(100)]
        for t in types[1:]:
            assert all(_is_plain_pair(a) for a in S.head(t, names))
        g, *words = build(*types, names=names)
        for nt in g.productions:
            assert all(_is_plain_pair(a) for a in step(g, (nt,)))


class TestNorms:
    def test_tree_channel_norms(self):
        g, w = build(TREE_C)
        compute_norms(g)
        for nt in g.productions:
            assert g.norms[nt] == 1 == bfs_norm(g, (nt,))

    def test_loop_unnormed(self):
        g, w = build(LOOP)
        compute_norms(g)
        assert g.norms[w[0]] is None
        assert bfs_norm(g, w) is None

    def test_empty_grammar(self):
        g = Grammar({})
        compute_norms(g)
        assert g.norms == {}

    def test_norms_match_bfs_oracle(self):
        rng = random.Random(21)
        for _ in range(150):
            t = rand_session(rng, rng.randint(0, 5))
            g, w = build(t)
            compute_norms(g)
            for nt in g.productions:
                oracle = bfs_norm(g, (nt,), cap=24)
                mine = g.norms[nt]
                if oracle is not None:
                    assert mine == oracle
                else:
                    # within the oracle's horizon nothing terminated; a normed
                    # verdict must then exceed the horizon
                    assert mine is None or mine > 24

    def test_word_norm_additive(self):
        rng = random.Random(22)
        for _ in range(100):
            t = rand_session(rng, rng.randint(1, 5))
            g, w = build(t)
            compute_norms(g)
            nts = list(g.productions)
            if not nts:
                continue
            wa = tuple(rng.choices(nts, k=rng.randint(0, 3)))
            wb = tuple(rng.choices(nts, k=rng.randint(0, 3)))
            na, nb = word_norm(g, wa), word_norm(g, wb)
            total = word_norm(g, wa + wb)
            if na is None or nb is None:
                assert total is None or (na is not None and nb is None) or (na is None)
                if na is None:
                    assert total is None
            else:
                assert total == na + nb


def _hand_grammar(prods) -> Grammar:
    table = {}
    for nt, a, arg, rhs in prods:
        table.setdefault(nt, {})[(a, arg)] = tuple(rhs)
    return Grammar(table)


class TestPrune:
    def test_truncates_behind_unnormed(self):
        g = _hand_grammar([
            (0, "!", "Int", [0, 1]),   # X -> !Int X Y, X unnormed
            (1, "?", "Int", []),       # Y -> ?Int eps
        ])
        compute_norms(g)
        assert g.norms[0] is None and g.norms[1] == 1
        g0 = Grammar({nt: dict(p) for nt, p in g.productions.items()}, dict(g.norms))
        w_before = (0, 1)
        prune(g)
        assert g.productions[0][("!", "Int")] == (0,)
        assert truncate(g, w_before) == (0,)
        assert k_bisimilar(g0, w_before, g, truncate(g, w_before), 20)

    def test_truncate_cuts_only_after_a_symbol_known_to_be_unnormed(self):
        g = _hand_grammar([
            (0, "!", "Int", [0, 1]),   # X -> !Int X Y, X unnormed
            (1, "?", "Int", []),       # Y -> ?Int eps
        ])
        # nothing normed yet: no symbol is cut at
        assert truncate(g, (0, 1, 0, 1)) == (0, 1, 0, 1)
        g.norms[1] = 1
        assert truncate(g, (1, 0, 1)) == (1, 0, 1)
        g.norms[0] = None
        assert truncate(g, (1, 0, 1)) == (1, 0)

    def test_all_normed_unchanged(self):
        g, _ = build(TREE_C)
        compute_norms(g)
        snapshot = {nt: dict(p) for nt, p in g.productions.items()}
        prune(g)
        assert {nt: dict(p) for nt, p in g.productions.items()} == snapshot

    def test_keeps_first_unnormed(self):
        g = _hand_grammar([
            (0, "!", "Int", [1, 0, 0]),  # Z -> a Y Z Z with Y unnormed
            (1, "?", "Int", [1]),        # Y -> ?Int Y (unnormed)
        ])
        compute_norms(g)
        g0 = Grammar({nt: dict(p) for nt, p in g.productions.items()}, dict(g.norms))
        prune(g)
        assert g.productions[0][("!", "Int")] == (1,)
        assert k_bisimilar(g0, (0,), g, (0,), 20)

    def test_pruning_preserves_bisimilarity(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(600):
            t = rand_session(rng, rng.randint(1, 5))
            g, w = build(t)
            compute_norms(g)
            if all(n is not None for n in g.norms.values()):
                continue
            g0 = Grammar({nt: dict(p) for nt, p in g.productions.items()},
                         dict(g.norms))
            prune(g)
            # same word stepping through the pruned vs the original grammar
            assert k_bisimilar(g0, w, g, truncate(g, w), 12)
            checked += 1
        assert checked >= 20


def k_bisimilar(g1, w1, g2, w2, depth):
    from oracles import k_bisimilar as kb, _word_step
    return kb(_word_step(g1), w1, _word_step(g2), w2, depth)


class TestStep:
    def test_tree_channel_step(self):
        g, w = build(TREE_C)
        succ = step(g, w)
        start, shape = canonical_shape(g, w)
        leaf = succ[("+", "Leaf")]
        node = succ[("+", "Node")]
        assert leaf == EPSILON
        assert len(node) == 4 and node[1] == w[0] and node[2] == w[0]

    def test_terminated_word(self):
        g, _ = build(TREE_C)
        assert step(g, EPSILON) == {}

    def test_unfolding_through_tail(self):
        g, w = build(LOOP)
        assert step(g, w + w) == {("!", "Int"): w + w}
