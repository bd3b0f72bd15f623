"""Linear typechecking of expressions and programs."""

import random
import time

import pytest

from sluice import equiv as E
from sluice import kinds as K
from sluice import syntax as S
from sluice import typecheck as T
from sluice.diagnostics import TOO_DEEP, Diagnostic
from sluice.equiv import Session, equivalent
from sluice.kinds import KindError
from sluice.parser import parse_program, parse_type
from sluice.syntax import SL, Scheme, TVar, Basic, Pair, Terminal
from sluice.typecheck import (
    BUILTINS, CheckError, Ctx, GlobalEnv, build_global_env, check_against,
    check_program, dump_types, synth,
)

from conftest import parse_expr
from gen import rand_session
from verdict_corpus import frontend_inputs

TREE_C = parse_type("rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}")


def check_source(source: str):
    prog, diags = parse_program(source)
    assert not diags, [d.message for d in diags]
    return check_program(prog)


def fresh_env() -> GlobalEnv:
    prog, diags = parse_program(
        "type TreeC = +{Leaf: Skip, Node: !Int;TreeC;TreeC;?Int}\nmain : Int\nmain = 1\n")
    assert not diags
    return build_global_env(prog, [])


def linear_ctx(kenv=None, env=None, **bindings) -> Ctx:
    """A context over `env` (a fresh one by default) and `kenv` (alpha : SL
    by default) binding each keyword to the type its text parses to."""
    ctx = Ctx(env or fresh_env(), {"alpha": SL} if kenv is None else kenv)
    for name, text in bindings.items():
        ty = parse_type(text)
        ctx.bind(name, ty, ctx.env.kind_of(ctx.kenv, ty), None)
    return ctx


class TestPrograms:
    def test_tree_program_checks(self, tree_source):
        assert check_source(tree_source) == []

    def test_cross_program_checks(self, cross_source):
        assert check_source(cross_source) == []

    def test_cross_doubled_checks(self, cross_doubled_source):
        assert check_source(cross_doubled_source) == []

    def test_one_kind_env_per_polymorphic_signature(self, tree_source, monkeypatch):
        # the session's walk keeps one memo scope per kind env: one empty env
        # for every monomorphic type, and one per signature with binders
        # (`transform` and `treeSum`), reused by its definition
        envs = []

        def kept(p, diags):
            envs.append(build_global_env(p, diags))
            return envs[-1]

        monkeypatch.setattr(T, "build_global_env", kept)
        assert check_source(tree_source) == []
        scopes = [kenv for kenv, _ in envs[0].session.walk._scopes.values()]
        assert sorted(map(list, scopes)) == [[], ["alpha"], ["alpha"]]
        assert envs[0].kenvs["main"] is envs[0].no_binders

    def test_main_must_not_be_a_function(self):
        diags = check_source("main : Int -> Int\nmain x = x")
        assert any("non-function" in d.message for d in diags)

    def test_main_must_not_be_a_session(self):
        diags = check_source("main : Skip\nmain = new !Int\n")
        assert diags  # (Skip, ?Int) against Skip, and a session-typed main

    def test_missing_main(self):
        diags = check_source("f : Int\nf = 1")
        assert any("missing main" in d.message for d in diags)

    def test_type_error_is_reported_not_raised(self):
        diags = check_source("f : Int\nf = 1 + True\nmain : Int\nmain = f")
        assert any("f" in d.message for d in diags)

    def test_mutual_recursion(self):
        src = (
            "even : Int -> Bool\n"
            "even n = if n == 0 then True else odd (n - 1)\n"
            "odd : Int -> Bool\n"
            "odd n = if n == 0 then False else even (n - 1)\n"
            "main : Bool\nmain = even 10")
        assert check_source(src) == []


class TestLetSpine:
    """A chain of lets is checked in a loop with an O(1) scope per binding,
    so its depth is bounded by neither the Python stack nor quadratic
    copying."""

    def chain(self, lines: list[str]) -> str:
        return "main : Int\nmain =\n" + "\n".join(lines) + "\n"

    def test_ten_thousand_lets_check(self):
        body = ["  let x0 = 0 in"] + [f"  let x{i} = x{i - 1} + 1 in" for i in range(1, 10_000)]
        assert check_source(self.chain(body + ["  x9999"])) == []

    def test_unused_channels_report_the_innermost_scope(self):
        depth = 2000
        half = depth // 2
        body = ["  let c, d = new !Int in", "  let x = 0 in"]
        body += ["  let k, m = new ?Bool in" if i == half else "  let x = x + 1 in"
                 for i in range(depth)]
        diags = check_source(self.chain(body + ["  x"]))
        assert [(d.line, d.col, d.message) for d in diags] == [
            (5 + half, 3, "in main: linear variable k is not used")]

    def test_shadowed_binding_comes_back(self):
        # the inner x is a channel, used up before the outer Int x returns
        body = ["  let x = 1 in", "  let c, d = new !Int;Skip in", "  let _ = fork (send x c) in",
                "  let y = (let x = d in let v, e = receive x in v) in", "  x + y"]
        assert check_source(self.chain(body)) == []


class TestSend:
    def test_send_consumes_channel_not_int(self):
        env, kenv = fresh_env(), {"alpha": SL}
        ctx = linear_ctx(kenv, env, x="Int", c="!Int;alpha")
        ty = synth(ctx, parse_expr("send x c"))
        assert equivalent(ty, TVar("alpha"), kenv)
        assert "c" not in ctx.bindings and "c" in ctx.consumed
        assert "x" in ctx.bindings

    def test_send_against_input_head(self):
        ctx = linear_ctx(x="Int", c="?Int;alpha")
        with pytest.raises(CheckError, match="output"):
            synth(ctx, parse_expr("send x c"))

    def test_send_payload_mismatch(self):
        ctx = linear_ctx(x="Bool", c="!Int;alpha")
        with pytest.raises(CheckError, match="!Int"):
            synth(ctx, parse_expr("send x c"))


class TestSessionOps:
    def test_new_returns_dual_pair(self):
        env = fresh_env()
        ty = synth(Ctx(env, {}), parse_expr("new TreeC"))
        assert isinstance(ty, Pair)
        tree_s = parse_type("rec y. &{Leaf: Skip, Node: ?Int;y;y;!Int}")
        assert env.equivalent(ty.fst, TREE_C, {})
        assert env.equivalent(ty.snd, tree_s, {})

    def test_select_pushes_continuation(self):
        ctx = linear_ctx(c="+{Leaf: Skip, Node: !Int};alpha")
        ty = synth(ctx, parse_expr("select Leaf c"))
        assert equivalent(ty, TVar("alpha"), {"alpha": SL})
        ctx = linear_ctx(c="+{Leaf: Skip, Node: !Int};alpha")
        ty = synth(ctx, parse_expr("select Node c"))
        assert equivalent(ty, parse_type("!Int;alpha"), {"alpha": SL})

    def test_select_absent_label(self):
        ctx = linear_ctx(c="+{Leaf: Skip};alpha")
        with pytest.raises(CheckError, match="not offered"):
            synth(ctx, parse_expr("select Node c"))

    def test_receive_on_skip_rejected(self):
        ctx = linear_ctx({}, c="Skip")
        with pytest.raises(CheckError, match="input"):
            synth(ctx, parse_expr("receive c"))

    def test_receive_yields_pair(self):
        ctx = linear_ctx(c="?Bool;alpha")
        ty = synth(ctx, parse_expr("receive c"))
        assert isinstance(ty, Pair) and ty.fst == Basic("Bool")

    def test_head_normalization_through_composition(self):
        # ((!Int;Skip);gamma) types like !Int;gamma
        ctx = linear_ctx({}, x="Int", c="(!Int;Skip);?Bool")
        ty = synth(ctx, parse_expr("send x c"))
        assert equivalent(ty, parse_type("?Bool"))

    def test_match_requires_external_choice(self):
        ctx = linear_ctx(c="+{Leaf: Skip};alpha")
        with pytest.raises(CheckError, match="external"):
            synth(ctx, parse_expr("match c with Leaf c -> c"))

    def test_fork_requires_droppable(self):
        ctx = linear_ctx({}, c="!Int;Skip")
        with pytest.raises(CheckError, match="linear"):
            synth(ctx, parse_expr("fork c"))

    def test_fork_on_unrestricted_ok(self):
        ty = synth(Ctx(fresh_env(), {}), parse_expr("fork (1 + 2)"))
        assert ty == S.UNIT


class TestLinearity:
    def test_discarding_linear_channel_rejected(self):
        ctx = linear_ctx({}, c="!Int;Skip")
        with pytest.raises(CheckError, match="discard"):
            synth(ctx, parse_expr("let _ = c in 5"))

    def test_discarding_skip_is_legal(self):
        ctx = linear_ctx({}, c="Skip")
        ty = synth(ctx, parse_expr("let _ = c in 5"))
        assert ty == Basic("Int")

    def test_unused_linear_binding_rejected(self):
        ctx = linear_ctx({}, c="!Int;Skip")
        with pytest.raises(CheckError, match="not used"):
            synth(ctx, parse_expr("let d = c in 5"))

    def test_linear_use_twice_rejected(self):
        ctx = linear_ctx({}, x="Int", c="!Int;!Int")
        with pytest.raises(CheckError, match="more than once"):
            synth(ctx, parse_expr("(send x c, send x c)"))

    def test_branches_must_agree_on_linear_consumption(self):
        ctx = linear_ctx({}, b="Bool", c="!Int;Skip")
        with pytest.raises(CheckError, match="branches disagree"):
            synth(ctx, parse_expr("if b then let _ = send 1 c in 2 else 2"))

    def test_unrestricted_lambda_cannot_capture_linear(self):
        env = fresh_env()
        ctx = linear_ctx({}, env, c="!Int;Skip")
        lam = parse_expr("\\x -> let _ = send x c in 0")
        with pytest.raises(CheckError, match="unrestricted function consumes"):
            check_against(ctx, lam, parse_type("Int -> Int"))

    def test_linear_lambda_may_capture_linear(self):
        env = fresh_env()
        ctx = linear_ctx({}, env, c="!Int;Skip")
        lam = parse_expr("\\x -o let _ = send x c in 0")
        check_against(ctx, lam, parse_type("Int -o Int"))
        assert "c" not in ctx.bindings

    def test_shadowing_unconsumed_linear_rejected(self):
        ctx = linear_ctx({}, c="!Int;Skip")
        with pytest.raises(CheckError, match="shadow"):
            synth(ctx, parse_expr("let c = 5 in c"))

    def test_residual_is_submap(self):
        rng = random.Random(77)
        ctx = linear_ctx({}, x="Int", c="!Int;?Bool", d="Skip")
        before = dict(ctx.bindings)  # synth changes ctx in place
        ty = synth(ctx, parse_expr("send x c"))
        assert set(ctx.bindings) <= set(before)
        dropped = set(before) - set(ctx.bindings)
        assert dropped == {"c"} and before["c"][1].mult == S.LINEAR


class TestBranchesInPlace:
    """The arms of `if`, `case` and `match` run on copies; what the first arm
    leaves becomes the caller's own context."""

    @staticmethod
    def data_env() -> GlobalEnv:
        prog, diags = parse_program("data T = A | B Int\nmain : Int\nmain = 1\n")
        assert not diags
        return build_global_env(prog, [])

    @pytest.mark.parametrize("bindings, source", [
        ({"b": "Bool"}, "if b then send 1 c else send 2 c"),
        ({"t": "T"}, "case t of A -> send 1 c, B n -> send n c"),
        ({"d": "&{L: Skip, R: Skip}"},
         "match d with L d -> let _ = d in send 1 c, R d -> let _ = d in send 2 c"),
    ])
    def test_every_arm_consuming_a_channel_consumes_it_in_the_caller(self, bindings, source):
        ctx = linear_ctx({}, self.data_env(), c="!Int;Skip", **bindings)
        assert synth(ctx, parse_expr(source)) == S.Skip()
        assert "c" not in ctx.bindings and "c" in ctx.consumed
        assert set(ctx.bindings) == set(bindings) - {"d"}

    def test_an_error_in_a_later_arm_comes_before_a_disagreement(self):
        ctx = linear_ctx({}, d="&{L: Skip, M: Skip, R: Skip}", c="!Int;Skip")
        source = ("match d with L d -> let _ = d in send 1 c, M d -> d, "
                  "R d -> let _ = d in send True c")
        with pytest.raises(CheckError, match="channel expects !Int, got Bool"):
            synth(ctx, parse_expr(source))

    def test_a_pattern_arity_is_checked_after_the_arms_before_it(self):
        ctx = linear_ctx({}, self.data_env(), t="T", c="!Int;Skip")
        with pytest.raises(CheckError, match="channel expects !Int, got Bool"):
            synth(ctx, parse_expr("case t of A -> send True c, B -> send 1 c"))


class TestTypeApplication:
    TRANSFORM = "forall alpha => Tree -> TreeC;alpha -> (Tree, alpha)"

    def env_with_transform(self):
        src = (
            "type TreeC = +{Leaf: Skip, Node: !Int;TreeC;TreeC;?Int}\n"
            "data Tree = Leaf | Node Int Tree Tree\n"
            f"transform : {self.TRANSFORM}\n"
            "transform tree c = (tree, c)\n"  # body irrelevant here
            "main : Int\nmain = 0\n")
        prog, diags = parse_program(src)
        assert not diags
        env = build_global_env(prog, [])
        return env

    def test_instantiation_matches_by_hand_substitution(self):
        env = self.env_with_transform()
        kenv = {"alpha": SL}
        expr = parse_expr("transform[TreeC;?Int;alpha]")
        ty = synth(Ctx(env, kenv), expr)
        want = parse_type("Tree -> TreeC;TreeC;?Int;alpha -> (Tree, TreeC;?Int;alpha)")
        assert env.equivalent(ty, want, kenv)

    def test_kind_mismatch_rejected(self):
        env = self.env_with_transform()
        with pytest.raises(CheckError, match="kind"):
            synth(Ctx(env, {}), parse_expr("transform[Int]"))

    def test_arity_checked(self):
        env = self.env_with_transform()
        with pytest.raises(CheckError, match="type argument"):
            synth(Ctx(env, {}), parse_expr("transform[Skip, Skip]"))

    def test_polymorphic_name_needs_application(self):
        env = self.env_with_transform()
        with pytest.raises(CheckError, match="type application"):
            synth(Ctx(env, {}), parse_expr("transform"))

    def test_application_equals_substitution(self):
        rng = random.Random(31)
        for _ in range(60):
            body = rand_session(rng, rng.randint(0, 3), binders=("a",))
            arg = rand_session(rng, rng.randint(0, 3))
            env = GlobalEnv(schemes=dict(BUILTINS))
            env.schemes["f"] = Scheme((("a", SL),), S.Arrow(S.UNRESTRICTED, body, Basic("Int")))
            env.schemes["g"] = Scheme((), S.Arrow(S.UNRESTRICTED, S.subst(body, {"a": arg}),
                                                  Basic("Int")))
            t1 = synth(Ctx(env, {}), S.TypeApp("f", (arg,)))
            t2 = synth(Ctx(env, {}), S.Var("g"))
            assert equivalent(t1, t2)


class TestMutationsSample:
    def test_dropped_rebinding(self, tree_source):
        mutated = tree_source.replace("let c   = send x c in", "let _   = send x c in", 1)
        assert any("c" in d.message for d in check_source(mutated))

    def test_swapped_channel_end(self, tree_source):
        mutated = tree_source.replace("transform[Skip] aTree w", "transform[Skip] aTree r", 1)
        assert check_source(mutated)

    @staticmethod
    def _flip_occurrences(source: str, old: str, new: str):
        start = 0
        while True:
            i = source.find(old, start)
            if i < 0:
                return
            yield source[:i] + new + source[i + len(old):]
            start = i + 1

    def test_every_primitive_flip_is_detected(self, tree_source):
        """Flipping any one send<->receive or select<->match occurrence in the
        tree program produces at least one diagnostic (possibly a parse
        error, since the forms differ in shape)."""
        flips = [("send ", "receive "), ("receive ", "send "),
                 ("select ", "match "), ("match ", "select ")]
        tried = 0
        for old, new in flips:
            for mutated in self._flip_occurrences(tree_source, old, new):
                tried += 1
                prog, parse_diags = parse_program(mutated)
                diags = list(parse_diags)
                if prog is not None and not diags:
                    diags = check_program(prog)
                assert diags, f"undetected flip {old!r}->{new!r}"
        assert tried >= 7


class TestErrorPaths:
    def test_case_on_non_datatype(self):
        diags = check_source("main : Int\nmain = case 3 of A -> 1")
        assert any("datatype" in d.message for d in diags)

    def test_non_exhaustive_match(self):
        ctx = linear_ctx(c="&{Leaf: Skip, Node: !Int};alpha")
        with pytest.raises(CheckError, match="missing Node"):
            synth(ctx, parse_expr("match c with Leaf c -> c"))

    def test_constructor_pattern_arity(self):
        src = ("data Tree = Leaf | Node Int Tree Tree\n"
               "f : Tree -> Int\n"
               "f t = case t of Leaf -> 0, Node x l -> x\n"
               "main : Int\nmain = f Leaf")
        diags = check_source(src)
        assert any("fields" in d.message for d in diags)

    def test_unknown_type_name_in_signature(self):
        diags = check_source("f : Wibble -> Int\nf x = 0\nmain : Int\nmain = 1")
        assert any("unknown type name Wibble" in d.message for d in diags)

    def test_new_requires_contractive(self):
        diags = check_source("main : Int\nmain = let a, b = new rec x. x;!Int in 1")
        assert diags

    def test_applying_non_function(self):
        diags = check_source("main : Int\nmain = 3 4")
        assert any("non-function" in d.message for d in diags)

    def test_case_must_cover_all_constructors(self):
        src = ("data Tree = Leaf | Node Int Tree Tree\n"
               "f : Tree -> Int\n"
               "f t = case t of Leaf -> 0\n"
               "main : Int\nmain = f Leaf")
        diags = check_source(src)
        assert any("missing Node" in d.message for d in diags)

    def test_duplicate_constructor_across_datatypes(self):
        src = ("data A = Mk\ndata B = Mk Int\n"
               "main : Int\nmain = 1")
        diags = check_source(src)
        assert any("declared twice" in d.message for d in diags)

    def test_too_deep_definition_is_positioned_and_checking_goes_on(self):
        # an operator chain is a left-nested spine of applications, which
        # `synth` follows one Python frame per term
        src = ("f : Int\nf = " + " + ".join(["1"] * 1500) + "\n"
               "g : Int\ng = True\nmain : Int\nmain = 1\n")
        diags = check_source(src)
        assert [(d.line, d.col, d.message) for d in diags] == [
            (2, 1, "in f: nesting too deep"),
            (4, 5, "in g: expected type Int, found Bool")]

    def test_a_kind_error_in_a_query_is_positioned_at_the_definition(self, monkeypatch):
        def too_deep(*args):
            raise KindError(Diagnostic(0, 0, TOO_DEEP))

        monkeypatch.setattr(E.Session, "equivalent", too_deep)
        diags = check_source("f : Int -> Int\nf x = x\nmain : Int\nmain = f 1\n")
        assert [(d.line, d.col, d.message) for d in diags] == [
            (2, 1, "in f: nesting too deep"), (4, 1, "in main: nesting too deep")]

    @pytest.mark.parametrize("messages", [1000, 3000])
    def test_too_deep_declarations_are_positioned(self, messages):
        # the parser reads a `;` spine in a loop, but kinding walks it one
        # Python frame per `;`: each declaration is rejected where it starts
        spine = "!Int;" * messages + "Skip"
        src = (f"f : {spine} -> Int\nf c = 1\n"
               f"type T = {spine}\n"
               f"data D = A ({spine} -> Int) | B Int\n"
               "main : Int\nmain = 1\n")
        diags = check_source(src)
        assert sorted((d.line, d.col, d.message) for d in diags) == [
            (1, 1, "nesting too deep"), (3, 1, "nesting too deep"), (4, 1, "nesting too deep")]

    @pytest.mark.parametrize("src, want", [
        ("f : Int -> Int\nf x = x [Int]", (2, 7, "in f: x is not polymorphic")),
        ("g : Int\ng = 1\nmain : Int\nmain = g [Int]",
         (4, 8, "in main: g is not polymorphic")),
        ("main : Int\nmain = (\\x -> x) 1",
         (2, 9, "in main: cannot synthesize the type of an unannotated function")),
        ("f : !Int -> Skip\nf c = select L c",
         (2, 7, "in f: channel of type !Int offers no internal choice")),
        ("data P = P Int Int\nf : P -> Int\nf p = case p of P x x -> x",
         (3, 7, "in f: duplicate binder x")),
        ("main : Int\nmain = if 1 then 2 else 3",
         (2, 8, "in main: if condition must be Bool, got Int")),
        ("main : Int\nmain = let x, y = 1 in x",
         (2, 8, "in main: let x, y = ... needs a pair, got Int")),
        ("main : Int\nmain = let x, x = (1, 2) in x", (2, 8, "in main: duplicate binder x")),
        ("f : ?Int -> Skip\nf c = send 1 c",
         (2, 14, "in f: channel of type ?Int has no output action")),
        ("f : !Int -> Int\nf c = let x, c = receive c in x",
         (2, 18, "in f: channel of type !Int has no input action")),
        ("f : !Int -> Int\nf c = match c with L c -> 1",
         (2, 7, "in f: channel of type !Int offers no external choice")),
        ("f : Int -> Int\nf c = let x, c = receive c in x",
         (2, 18, "in f: expected a channel, got Int")),
        ("main : Int\nmain = let a, b = new Int in 1",
         (2, 19, "in main: new requires a session type, got Int : TU")),
        ("main : Int\nmain = let a, b = new Foo in 1", (2, 19, "in main: unknown type name Foo")),
        ("f : !Int -> Int\nf c = let _ = c in 1",
         (2, 7, "in f: cannot discard a value of linear type !Int : SL")),
        ("main : Int\nmain = y", (2, 8, "in main: unbound variable y")),
        ("f : forall a => Int\nf = 1\nmain : Int\nmain = f [Foo]",
         (4, 8, "in main: bad type argument for a: unknown type name Foo")),
        # a `let` body is checked against the expected type, where it stands
        ("main : Int\nmain = let x = 1 in True",
         (2, 21, "in main: expected type Int, found Bool")),
    ])
    def test_diagnostic_is_positioned(self, src, want):
        if "main" not in src:
            src += "\nmain : Int\nmain = 1"
        assert [(d.line, d.col, d.message) for d in check_source(src)] == [want]

    def test_inconclusive_equivalence_is_a_diagnostic(self, monkeypatch):
        def give_up(*args, **kwargs):
            raise E.Inconclusive("node budget exhausted")

        monkeypatch.setattr(E, "search", give_up)
        diags = check_source("f : (rec x. !Int;x) -> !Int;(rec x. !Int;x)\nf c = c\n"
                             "main : Int\nmain = 1")
        assert [(d.line, d.col, d.message) for d in diags] == [
            (2, 1, "in f: type equivalence check was inconclusive")]

    @pytest.mark.parametrize("arrows", [600, 900])
    def test_deep_function_type_is_compared_whole(self, arrows):
        # `g f` compares the type of `f` with the domain of `g`: two objects
        # of one deep arrow type, translated one Python frame per arrow
        spine = " -> ".join(["Int"] * (arrows + 1))
        assert check_source(f"g : ({spine}) -> Int\ng h = 0\nf : {spine}\nf = f\n"
                            "main : Int\nmain = g f\n") == []

    def test_a_deep_function_mismatch_indexes_each_pair_once(self, monkeypatch):
        # the types differ only at the innermost arrow, so the search is as
        # deep as the type; its history is carried down the path, not
        # indexed again at every node
        arrows = 600
        indexed = []
        index_rules = E.index_rules

        def counting(rel, *base):
            rel = list(rel)
            indexed.append(len(rel))
            return index_rules(rel, *base)

        monkeypatch.setattr(E, "index_rules", counting)
        spine = " -> ".join(["Int"] * arrows)
        diags = check_source(f"g : ({spine} -> Bool) -> Int\ng h = 0\nf : {spine} -> Int\n"
                             "f = f\nmain : Int\nmain = g f\n")
        assert [d.message.split(":")[0] for d in diags] == ["in main"]
        assert sum(indexed) < 10 * arrows


class TestTypeNames:
    # A linear field inside a pair, reached through an abbreviation, makes
    # the datatype linear, so a function that drops its argument leaks the
    # channel end inside it.
    LEAK = """
type S = !Int;Skip

data D = C (S, Int)

drop : D -> Int
drop d = 1

main : Int
main =
  let w, r = new S in
  let n = drop (C (w, 1)) in
  let x, r2 = receive r in
  x + n
"""

    # Abbreviations that refer to each other: a client asks for doubled
    # numbers until it says Done, and the server's side is spelt out too.
    MUTUAL = """
type Ask = +{More: !Int;Reply, Done: Skip}
type Reply = ?Int;Ask
type Serve = &{More: ?Int;Answer, Done: Skip}
type Answer = !Int;Serve

client : Int -> Ask -> Int
client n c =
  if n == 0 then let _ = select Done c in 0
  else
    let c = select More c in
    let c = send n c in
    let x, c = receive c in
    x + client (n - 1) c

server : Serve -> Int
server c =
  match c with
    Done c -> 0
    More c ->
      let x, c = receive c in
      server (send (x * 2) c)

main : Int
main =
  let w, r = new Ask in
  let _ = fork (server r) in
  client 3 w
"""

    def test_linear_field_behind_an_abbreviation_makes_the_datatype_linear(self):
        prog, _ = parse_program(self.LEAK)
        assert build_global_env(prog, []).datakinds["D"] == S.TL
        assert [d.message for d in check_program(prog)] == ["in drop: linear variable d is not used"]

    def test_mutually_recursive_abbreviations_check_and_run(self):
        from sluice.runtime import run

        prog, _ = parse_program(self.MUTUAL)
        assert check_program(prog) == []
        assert run(prog, seed=1) == 2 * (3 + 2 + 1)

    def test_mutual_abbreviations_stay_nominal(self):
        prog, _ = parse_program("type A = !Int;B\ntype B = ?Int;A\nmain : Int\nmain = 1")
        env = build_global_env(prog, [])
        assert S.pretty(env.abbrevs["A"]) == "!Int;B"
        assert S.pretty(env.abbrevs["B"]) == "?Int;A"
        assert S.pretty(env.abbrevs["dualof A"]) == "?Int;dualof B"
        assert env.datakinds["A"] == env.datakinds["dualof B"] == SL
        assert env.equivalent(S.DataRef("A"), parse_type("!Int;?Int;A"), {})
        assert not env.equivalent(S.DataRef("A"), S.DataRef("B"), {})
        assert check_program(prog) == []

    def test_a_renamed_binder_reads_the_same_on_every_check(self):
        # instantiating `a` with `x` renames the `rec x` binder it lands under
        src = ("f : forall a:SL => (rec x. !Int;a;x) -> Int\nf c = 1\n"
               "g : forall x:SL => Int -> Int\ng n = f [x] n\nmain : Int\nmain = 1\n")
        checks = [[(d.line, d.col, d.message) for d in check_source(src)] for _ in range(3)]
        assert checks[0] == checks[1] == checks[2]
        assert (4, 13, "in g: argument type Int does not match parameter type "
                       "rec x_1. !Int;x;x_1") in checks[0]

    def test_diagnostics_name_abbreviations_alike_every_check(self):
        src = "type C = !Int;C\nmain : Int\nmain = let a, b = new C in 1 + a"
        first, second = ([d.render() for d in check_source(src)] for _ in range(2))
        assert first == second
        assert first[0] == ("<input>:3:30: error: in main: "
                            "argument type C does not match parameter type Int")

    def test_case_on_an_abbreviation_needs_a_datatype(self):
        src = "type C = !Int;C\nmain : Int\nmain = let a, b = new C in case a of A -> 1"
        assert [d.render() for d in check_source(src)] == [
            "<input>:3:28: error: in main: case needs a datatype value, got C"]

    def test_new_gives_dual_names_that_match_the_written_server(self):
        prog, _ = parse_program(self.MUTUAL)
        env = build_global_env(prog, [])
        ty = synth(Ctx(env, {}), parse_expr("new Ask"))
        assert ty == Pair(S.DataRef("Ask"), S.DataRef("dualof Ask"))
        assert env.equivalent(ty.snd, S.DataRef("Serve"), {})
        assert env.equivalent(S.DataRef("dualof Reply"), S.DataRef("Answer"), {})
        assert not env.equivalent(ty.snd, ty.fst, {})
        assert not env.equivalent(S.DataRef("dualof Reply"), S.DataRef("Serve"), {})

    @pytest.mark.parametrize("decls, want", [
        ("type A = B\ntype B = A\n",
         [(1, 1, "type abbreviation A is not contractive"),
          (2, 1, "type abbreviation B is not contractive")]),
        ("type U = Skip\ntype A = U;A\n",
         [(2, 1, "type abbreviation A is not contractive")]),
        ("type U = Skip\ntype A = !Int; rec x. U;x\n",
         [(2, 1, "type abbreviation A is not contractive")]),
        ("type A = Int\ntype B = !Int;A\n",
         [(1, 1, "type abbreviation A must be a session type"),
          (2, 1, "type A is ill-formed")]),
    ])
    def test_rejected_abbreviations_are_positioned_by_name(self, decls, want):
        diags = check_source(decls + "main : Int\nmain = 1\n")
        assert [(d.line, d.col, d.message) for d in diags] == want

    def test_a_name_referring_to_a_loop_loops(self):
        # B reaches A's cycle before an action; C reaches it only after one,
        # so C is contractive but refers to a rejected name
        diags = check_source("type A = A\ntype B = Skip;A\ntype C = !Int;B\nmain : Int\nmain = 1\n")
        assert [(d.line, d.message) for d in diags] == [
            (1, "type abbreviation A is not contractive"),
            (2, "type abbreviation B is not contractive"),
            (3, "type B is ill-formed")]

    def test_uses_of_a_rejected_name_are_diagnostics(self):
        src = ("type U = Skip\ntype A = !Int; rec x. U;x\n"
               "data D = K A\n"
               "f : A -> Int\nf c = 1\n"
               "g : forall a:SL => a -> a\ng c = c\n"
               "h : Int\nh = let _ = g[A] in 1\n"
               "main : Int\nmain = let a, b = new A in 1\n")
        diags = check_source(src)
        assert [(d.line, d.col, d.message) for d in diags] == [
            (2, 1, "type abbreviation A is not contractive"),
            (3, 1, "type A is ill-formed"),
            (4, 1, "type A is ill-formed"),
            (9, 13, "in h: bad type argument for a: type A is ill-formed"),
            (11, 19, "in main: type A is ill-formed")]


def dense_system(n: int) -> str:
    """A program over a dense system of 2n names: each client name offers a
    branch to every name; the server side is written out as its own system,
    and `s0 b` compares it with the derived dual names."""
    labels = [f"L{j}" for j in range(n)]
    src = ""
    for side, msg in (("A", "!Int"), ("B", "?Int")):
        view = "+" if side == "A" else "&"
        body = ", ".join(f"{lab}: {msg};{side}{j}" for j, lab in enumerate(labels))
        src += "".join(f"type {side}{i} = {view}{{{body}, End: Skip}}\n" for i in range(n))
    for i in range(n):
        arms = "".join(f"    {lab} c -> let x, c = receive c in x + s{j} c,\n"
                       for j, lab in enumerate(labels))
        src += f"s{i} : B{i} -> Int\ns{i} c =\n  match c with\n{arms}    End c -> 0\n"
    return src + (f"f : A0 -> A{n - 1}\nf c = send 4 (select L{n - 1} c)\n"
                  "main : Int\nmain = let a, b = new A0 in\n"
                  "  let _ = fork (select End (f a)) in s0 b\n")


class TestNameSystemSize:
    """Names stay nominal, so a program's abbreviations cost one
    nonterminal each, and the name graph is walked in loops."""

    def test_dense_system_checks_fast(self):
        prog, diags = parse_program(dense_system(8))
        assert not diags
        start = time.perf_counter()
        assert check_program(prog) == []
        assert time.perf_counter() - start < 5.0

    def test_thousand_name_ring(self):
        n = 1000
        src = "".join(f"type A{i} = !Int;A{(i + 1) % n}\n" for i in range(n))
        src += ("f : A0 -> !Int;A1\nf c = c\ng : A0 -> A1\ng c = send 1 c\n"
                "h : (?Int;?Int;A2) -> A0\nh c = c\nmain : Int\nmain = 1\n")
        assert [d.message for d in check_source(src)] == [
            "in h: expected type A0, found ?Int;?Int;A2"]
        src = src.replace("h : (?Int;?Int;A2)", "h : (!Int;!Int;A2)")
        assert check_source(src) == []

    def test_thousand_name_loop(self):
        n = 1000
        src = "".join(f"type A{i} = Skip;A{(i + 1) % n}\n" for i in range(n))
        diags = check_source(src + "f : A0 -> Int\nf c = 1\nmain : Int\nmain = 1\n")
        assert [(d.line, d.message) for d in diags] == [
            (i + 1, f"type abbreviation A{i} is not contractive") for i in range(n)] + [
            (n + 1, "type A0 is ill-formed")]

    def test_each_abbreviation_is_walked_once(self, monkeypatch):
        # a name's unguarded names and contractivity are read off the walk
        # that settled its kind
        n, walks = 20, []
        kinding = K.kinding
        monkeypatch.setattr(K, "kinding", lambda *args: walks.append(args) or kinding(*args))
        src = "".join(f"type A{i} = !Int\n" for i in range(n)) + "main : Int\nmain = 1\n"
        prog, diags = parse_program(src)
        assert not diags
        build_global_env(prog, [])
        assert len(walks) == n

    @pytest.mark.parametrize("body", ["f c = c", "f c = send 1 c"])
    def test_a_chain_longer_than_the_unfolding_limit_is_a_diagnostic(self, monkeypatch, body):
        # `A0` is a channel type whose first action lies behind 60 names;
        # `syntax.head` stops after `MAX_UNFOLDINGS` of them, in the
        # equivalence query of `f c = c` and in the `send`
        monkeypatch.setattr(S, "MAX_UNFOLDINGS", 50)
        src = "".join(f"type A{i} = A{i + 1}\n" for i in range(59)) + "type A59 = !Int\n"
        src += f"f : A0 -> !Int\n{body}\ng : Int\ng = True\nmain : Int\nmain = 1\n"
        assert positioned(check_source(src)) == [
            (62, 1, "in f: type A0 unfolds more than 50 times before its first action"),
            (64, 5, "in g: expected type Int, found Bool")]

    def test_thousand_name_alias_chain(self):
        n = 1000
        src = "".join(f"type A{i} = A{i + 1}\n" for i in range(n - 1)) + f"type A{n - 1} = !Int\n"
        src += ("f : A0 -> Skip\nf c = send 1 c\n"
                "main : Int\nmain = let a, b = new A0 in let _ = f a in\n"
                "  let x, _ = receive b in x\n")
        assert check_source(src) == []


class TestSession:
    """A program's queries share one `equiv.Session`: kinds are kept per
    (type, kind env) and one grammar grows across queries."""

    @staticmethod
    def recorded_queries(monkeypatch, sources):
        """Every `GlobalEnv.equivalent` query `check_program` makes on the
        sources that parse: (env, t1, t2, kenv, verdict or exception type)."""
        queries = []
        original = GlobalEnv.equivalent

        def spy(env, t1, t2, kenv):
            try:
                out = original(env, t1, t2, kenv)
            except Exception as exc:
                queries.append((env, t1, t2, kenv, type(exc)))
                raise
            queries.append((env, t1, t2, kenv, out))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(GlobalEnv, "equivalent", spy)
            for src in sources:
                prog, diags = parse_program(src)
                if prog is not None and not diags:
                    check_program(prog)
        return queries

    def test_session_verdicts_equal_fresh_queries(self, monkeypatch):
        sources = [src for name, srcs in frontend_inputs()
                   if name.startswith(("program ", "mutants ")) for src in srcs]
        assert len(sources) == 4 + 4 * 150
        sources.append(dense_system(8))
        queries = self.recorded_queries(monkeypatch, sources)
        assert len(queries) > 1000
        assert any(out is False for *_, out in queries)
        for env, t1, t2, kenv, out in queries:
            try:
                fresh = equivalent(t1, t2, kenv, datakinds=env.datakinds, abbrevs=env.abbrevs)
            except Exception as exc:
                fresh = type(exc)
            assert fresh == out, (S.pretty(t1), S.pretty(t2))

    def test_a_translated_name_adds_no_nonterminals(self):
        prog, diags = parse_program(dense_system(3))
        assert not diags
        session = build_global_env(prog, []).session
        body = "+{L0: !Int;A0, L1: !Int;A1, L2: !Int;A2, End: Skip}"
        assert session.equivalent(S.DataRef("A0"), parse_type(body), {})
        size = len(session.grammar.productions)
        assert size > 0
        # new objects, the same name and parts already translated
        assert session.equivalent(parse_type(body), S.DataRef("A0"), {})
        assert not session.equivalent(parse_type("!Int;A1"), S.DataRef("A2"), {})
        assert len(session.grammar.productions) == size

    def test_one_kind_env_is_kinded_once_per_type(self, root_walks):
        # every `+` in a let chain compares the same Int object, under the
        # one kind env of `main`, which has no binders
        lines = ["main : Int", "main =", "  let x0 = 0 in"]
        lines += [f"  let x{i} = x{i - 1} + 1 in" for i in range(1, 200)]
        assert check_source("\n".join(lines + ["  x199\n"])) == []
        assert len(root_walks) < 10

    def test_a_kind_error_is_raised_on_every_query(self):
        session = Session({}, {})
        for _ in range(3):
            with pytest.raises(KindError):
                session.equivalent(TVar("x"), TVar("x"), {})
            with pytest.raises(KindError):
                session.kind_of({}, S.Rec("x", TVar("x")))

    def test_a_failed_translation_leaves_no_half_filled_nonterminal(self, monkeypatch):
        # filling TreeC's nonterminal fails once its first production, for
        # Leaf, is written; the next query must not see that nonterminal
        unfolded = S.subst(TREE_C.body, {TREE_C.var: TREE_C})
        session, head, half_filled = Session({}, {}), S.head, []

        class Failing(dict):
            def items(self):
                yield next(iter(super().items()))
                half_filled.extend(p for p in session.grammar.productions.values()
                                   if list(p) == [Terminal("+", "Leaf")])
                raise RecursionError

        monkeypatch.setattr(S, "head", lambda t, names=None: Failing(head(t, names)))
        with pytest.raises(RecursionError):
            session.equivalent(TREE_C, unfolded, {})
        assert half_filled
        monkeypatch.undo()
        assert session.equivalent(TREE_C, unfolded, {})
        assert session.equivalent(unfolded, TREE_C, {})

    def test_a_root_equal_query_fills_nothing(self, monkeypatch):
        # two objects with one key are one start word: the query is answered
        # before any nonterminal is filled, so no head is read
        heads = []
        head = S.head
        monkeypatch.setattr(S, "head", lambda t, names=None: heads.append(t) or head(t, names))
        session = Session({}, {})
        assert session.equivalent(TREE_C, parse_type("rec y. +{Leaf: Skip, Node: !Int;y;y;?Int}"), {})
        assert session.equivalent(parse_type("!Int;Skip;?Bool"), parse_type("!Int;?Bool"), {})
        assert heads == []
        assert session.grammar.productions
        assert not any(session.grammar.productions.values())
        assert session.grammar.norms == {}

    def test_a_search_fills_what_earlier_queries_left(self, checked_searches):
        # root-equal queries leave their nonterminals unfilled; the next
        # search reaches them, and must see each filled, and normed once it
        # gets past its root
        unfolded = S.subst(TREE_C.body, {TREE_C.var: TREE_C})
        flipped = parse_type("+{Leaf: Skip, Node: !Int;x;x;?Bool}")
        flipped = S.subst(flipped, {"x": TREE_C})
        loop = parse_type("rec x. &{More: ?Int;x, Done: !Bool}")
        session = Session({}, {})
        for t in (TREE_C, loop):
            assert session.equivalent(t, parse_type(S.pretty(t)), {})
        assert not any(session.grammar.productions.values())
        queries = [(unfolded, TREE_C), (TREE_C, flipped), (S.subst(loop.body, {"x": loop}), loop)]
        verdicts = [session.equivalent(t1, t2, {}) for t1, t2 in queries]
        assert verdicts == [equivalent(t1, t2) for t1, t2 in queries] == [True, False, True]
        assert checked_searches == 2 * ["past", "root", "past"]


class TestCheckAgainst:
    def test_accepts_up_to_the_laws(self):
        ctx = linear_ctx({}, c="Skip;!Int")
        check_against(ctx, parse_expr("c"), parse_type("!Int"))
        assert "c" not in ctx.bindings

    def test_rejects_mismatch_quoting_both_types(self):
        ctx = linear_ctx({}, c="!Int")
        with pytest.raises(CheckError, match=r"\?Int.*!Int|!Int.*\?Int"):
            check_against(ctx, parse_expr("c"), parse_type("?Int"))


def test_dump_types(tree_source):
    prog, _ = parse_program(tree_source)
    out = dump_types(prog)
    assert "transform : forall alpha:SL =>" in out
    assert "main : Tree" in out


def test_dump_types_reparses(tree_source):
    from sluice.parser import parse_scheme

    prog, _ = parse_program(tree_source)
    for line in dump_types(prog).splitlines():
        _, scheme_text = line.split(" : ", 1)
        parse_scheme(scheme_text)


def test_expose_exposes_message():
    head = S.head(parse_type("(!Int;Skip);?Bool"))
    (action, cont), = head.items()
    assert action == S.Terminal(S.OUT, "Int")
    assert equivalent(cont, parse_type("?Bool"))


def positioned(diags):
    return [(d.line, d.col, d.message) for d in diags]


class TestDefinitionsAreLambdas:
    """`f x y = e` is `f = \\x -> \\y -> e`, checked by the lambda rule: an
    unrestricted arrow's function may not capture a linear variable."""

    def test_unrestricted_arrow_after_a_linear_parameter_is_rejected(self):
        diags = check_source(
            "f : !Int -> Int -> Int\n"
            "f c n = let _ = send n c in n\n"
            "main : Int\n"
            "main = let a, r = new !Int in let _ = fork (receive r) in"
            " let g = f a in g 1 + g 2 + g 3\n")
        assert positioned(diags) == [
            (2, 1, "in f: unrestricted function consumes linear variables: c")]

    def test_one_shot_arrow_after_a_linear_parameter_checks_and_runs(self):
        from conftest import checked_program
        from sluice.runtime import run

        prog = checked_program(
            "f : !Int -> Int -o Int\n"
            "f c n = let _ = send n c in n\n"
            "main : Int\n"
            "main = let a, r = new !Int in let _ = fork (receive r) in"
            " let g = f a in g 1\n")
        assert run(prog, seed=0) == 1

    def test_a_parameter_against_a_non_arrow_type(self):
        diags = check_source("main : Int\nmain x = 1\n")
        assert positioned(diags) == [(2, 1, "in main: expected type Int, found a function")]

    def test_a_one_shot_lambda_where_an_unrestricted_function_is_expected(self):
        diags = check_source("f : Int -> Int\nf = \\x -o x\nmain : Int\nmain = f 1\n")
        assert positioned(diags) == [
            (2, 5, "in f: a one-shot function cannot be used where an unrestricted one "
                   "is expected")]

    def test_constructor_arrows_after_a_linear_field_are_one_shot(self):
        source = ("data Box = B !Int Int\n"
                  "use : Box -> Int\n"
                  "use b = case b of B c n -> let _ = send n c in n\n"
                  "main : Int\n"
                  "main = let a, r = new !Int in let _ = fork (receive r) in\n"
                  "  let f = B a in use (f 1) + use (f 2) + use (f 3)\n")
        prog, _ = parse_program(source)
        assert S.pretty(build_global_env(prog, []).schemes["B"].body) == "!Int -> Int -o Box"
        assert positioned(check_source(source)) == [
            (6, 35, "in main: linear variable f is used more than once")]

    def test_a_linear_top_level_value_is_rejected(self):
        diags = check_source(
            "ch : !Int\n"
            "ch = let a, b = new !Int in let _ = fork (receive b) in a\n"
            "main : Int\n"
            "main = let _ = send 1 ch in let _ = send 2 ch in let _ = send 3 ch in 0\n")
        assert positioned(diags) == [
            (2, 1, "in ch: top-level value ch has linear type !Int; every use would share it")]

    def test_a_let_body_is_checked_against_the_signature(self):
        from conftest import checked_program
        from sluice.runtime import run

        prog = checked_program("f : Int -> Int\nf = let y = 1 in \\x -> x + y\n"
                               "main : Int\nmain = f 2\n")
        assert run(prog, seed=0) == 3

    def test_a_top_level_one_shot_function_is_legal(self):
        assert check_source("f : Int -o Int\nf x = x\nmain : Int\nmain = f 1 + f 2\n") == []

    def test_new_on_a_type_variable_is_rejected(self):
        diags = check_source(
            "mk : forall alpha:SL => () -> (!Int;alpha, ?Int;alpha)\n"
            "mk u = new !Int;alpha\n"
            "main : Int\nmain = 0\n")
        assert positioned(diags) == [
            (2, 8, "in mk: new cannot take the dual of type variable alpha")]
        assert check_source(
            "mk : () -> (rec x. !Int;x, rec x. ?Int;x)\nmk u = new rec x. !Int;x\n"
            "main : Int\nmain = 0\n") == []
