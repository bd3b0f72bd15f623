"""The command-line front end and its exit-code contract."""

import os
import re
import subprocess
import sys

import pytest

import sluice
from sluice import syntax as S
from sluice.cli import main

from conftest import PROGRAMS
from verdict_corpus import DEEP_SEEDS, drawn

TREE = os.path.join(PROGRAMS, "tree.fst")
CROSS = os.path.join(PROGRAMS, "cross.fst")
DOUBLED = os.path.join(PROGRAMS, "cross_doubled.fst")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`python -m sluice` in a fresh interpreter, with its own Python stack."""
    src = os.path.dirname(os.path.dirname(sluice.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "sluice", *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestCheck:
    def test_well_typed_is_silent_success(self, capsys):
        assert main(["check", TREE]) == 0
        out = capsys.readouterr()
        assert out.out == ""

    def test_diagnostics_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.fst"
        bad.write_text("main : Int\nmain = 1 + True\n")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.fst:" in err and "error" in err

    def test_unreadable_file(self, capsys):
        assert main(["check", "/no/such/file.fst"]) == 1
        assert "error" in capsys.readouterr().err

    def test_deep_nesting_is_a_diagnostic(self, tmp_path):
        # 1000 nested parentheses overflow the recursive parser on the
        # default stack; the diagnostic points into the parentheses
        deep = tmp_path / "deep.fst"
        deep.write_text("main : Int\nmain = " + "(" * 1000 + "1" + ")" * 1000 + "\n")
        for command in ("check", "run"):
            done = run_cli(command, str(deep))
            assert done.returncode == 1, command
            first, second = done.stderr.splitlines()
            where = re.fullmatch(rf"{re.escape(str(deep))}:2:(\d+): error: nesting too deep", first)
            assert where and 8 <= int(where.group(1)) <= 1007, (command, first)
            assert second == f"{deep}:1:1: error: signature for main has no definition"

    def test_deep_operator_chain_is_a_positioned_diagnostic(self, tmp_path):
        # 1500 terms parse, but checking them overflows in the typechecker
        deep = tmp_path / "chain.fst"
        deep.write_text("main : Int\nmain = " + " + ".join(["1"] * 1500) + "\n")
        for command in ("check", "run"):
            done = run_cli(command, str(deep))
            assert done.returncode == 1 and "Traceback" not in done.stderr, command
            assert done.stderr == f"{deep}:2:1: error: in main: nesting too deep\n", command

    def test_rejected_abbreviations_are_diagnostics(self, tmp_path):
        # a loop of names, and a name behind Skip that never reaches an
        # action; every use of them is a diagnostic too
        src = tmp_path / "loop.fst"
        src.write_text("type A = B\ntype B = A\ntype U = Skip\ntype C = !Int; rec x. U;x\n"
                       "f : A -> C\nf c = c\nmain : Int\nmain = let a, b = new C in 1\n")
        for command in ("check", "run"):
            done = run_cli(command, str(src))
            assert done.returncode == 1 and "Traceback" not in done.stderr, command
            assert done.stderr.splitlines() == [
                f"{src}:1:1: error: type abbreviation A is not contractive",
                f"{src}:2:1: error: type abbreviation B is not contractive",
                f"{src}:4:1: error: type abbreviation C is not contractive",
                f"{src}:5:1: error: type A is ill-formed",
                f"{src}:8:19: error: in main: type C is ill-formed"], command

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "1\u00b2"])
    def test_non_ascii_digit_is_a_diagnostic(self, tmp_path, digit):
        # integer literals are ASCII digits; `str.isdigit` also accepts
        # superscripts (which `int` rejects) and other scripts' digits
        src = tmp_path / "digit.fst"
        src.write_text(f"main : Int\nmain = {digit}\n")
        for command in ("check", "run"):
            done = run_cli(command, str(src))
            assert done.returncode == 1 and "Traceback" not in done.stderr, command
            col = 8 + len(digit) - 1
            assert done.stderr == (
                f"{src}:2:{col}: error: unexpected character {digit[-1]!r}\n"), command

    def test_a_literal_too_long_for_int_is_a_diagnostic(self, tmp_path):
        # `int` refuses a string of over 4,300 digits; the parser's range
        # check reads the literal's length first
        src = tmp_path / "big.fst"
        src.write_text("main : Int\nmain = " + "1" * 5000 + "\n")
        done = run_cli("check", str(src))
        assert done.returncode == 1 and "Traceback" not in done.stderr
        assert done.stderr.splitlines()[0] == f"{src}:2:8: error: integer literal out of range"

    @pytest.mark.parametrize("pairs", [False, True])
    def test_thousand_let_chain_checks_and_runs(self, tmp_path, pairs):
        deep = tmp_path / "chain.fst"
        if pairs:
            body = ["  let a0, x0 = (0, 0) in"]
            body += [f"  let a{i}, x{i} = (x{i - 1}, x{i - 1} + 1) in" for i in range(1, 1000)]
        else:
            body = ["  let x0 = 0 in"]
            body += [f"  let x{i} = x{i - 1} + 1 in" for i in range(1, 1000)]
        deep.write_text("\n".join(["main : Int", "main ="] + body + ["  x999"]) + "\n")
        done = run_cli("check", str(deep))
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        done = run_cli("run", str(deep))
        assert (done.returncode, done.stdout, done.stderr) == (0, "999\n", "")


class TestRun:
    def test_run_prints_value(self, capsys):
        assert main(["run", CROSS, "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip() == "False"

    def test_tree_output(self, capsys):
        assert main(["run", TREE, "--seed", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("Node 36 ")

    def test_deep_value_prints_without_traceback(self, tmp_path):
        deep = tmp_path / "deep.fst"
        deep.write_text("data Tree = Leaf | Node Int Tree Tree\n"
                        "build : Int -> Tree\n"
                        "build n = if n == 0 then Leaf else Node n (build (n - 1)) Leaf\n"
                        "main : Tree\nmain = build 10000\n")
        done = run_cli("run", str(deep))
        assert done.returncode == 0 and "Traceback" not in done.stderr
        out = done.stdout.strip()
        assert out.startswith("Node 10000 (Node 9999 (Node 9998 ")
        assert out.endswith("(Node 1 Leaf Leaf)" + " Leaf)" * 9998 + " Leaf")

    def test_deadlock_exit_3(self, capsys):
        assert main(["run", DOUBLED, "--seed", "1", "--quiescence", "0.15"]) == 3
        assert "deadlock" in capsys.readouterr().err


class TestEquiv:
    def test_equivalent(self, capsys):
        assert main(["equiv", "Skip;!Int", "!Int"]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_not_equivalent(self, capsys):
        assert main(["equiv", "!Int", "?Int"]) == 1
        assert capsys.readouterr().out.strip() == "not equivalent"

    def test_inconclusive_exit_2(self, capsys):
        # TreeC against its one-fold unfolding: their start words differ,
        # so the answer needs the search, which a zero budget cuts off
        t1 = "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}"
        t2 = f"+{{Leaf: Skip, Node: !Int;({t1});({t1});?Int}}"
        assert main(["equiv", t1, t2, "--budget", "0"]) == 2
        assert capsys.readouterr().out.strip() == "inconclusive"

    def test_trace_lines(self, capsys):
        assert main(["equiv", "--trace", "!Int;?Bool", "!Int;?Bool"]) == 0
        out = capsys.readouterr().out
        assert "node depth=" in out and out.strip().endswith("equivalent")

    def test_functional_query_is_one_search(self, capsys):
        # arrows are grammar nonterminals, so a query traces one search
        # however many session components it holds, and one budget bounds it
        assert main(["equiv", "--trace", "Int -> !Int;?Bool", "Int -> !Int;?Int"]) == 1
        assert capsys.readouterr().out == (
            "node depth=0 pairs=1 refuted by expansion probe\nnot equivalent\n")
        t1 = "(rec x. !Int;x) -> rec y. ?Int;y"
        t2 = "(!Int;rec x. !Int;x) -> ?Int;rec y. ?Int;y"
        assert main(["equiv", "--trace", t1, t2]) == 0
        assert capsys.readouterr().out == (
            "node depth=0 pairs=1 expanded, 1 new siblings\n"
            "node depth=2 pairs=0 empty: equivalent\nequivalent\n")
        assert main(["equiv", t1, t2, "--budget", "4"]) == 2
        assert main(["equiv", t1, t2, "--budget", "5"]) == 0

    def test_trace_shows_the_breadth_first_walk(self, capsys):
        # the deep pair of seed 0 ends at the 50th node, where the walk
        # refutes it
        tree, perturbed = drawn("deep")[DEEP_SEEDS.index(0) - len(DEEP_SEEDS)]
        assert main(["equiv", "--trace", S.pretty(tree), S.pretty(perturbed)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 51
        assert lines[-2:] == ["node depth=4 pairs=2 refuted by breadth-first walk",
                              "not equivalent"]

    def test_each_type_is_kinded_once(self, capsys, root_walks):
        assert main(["equiv", "!Int;?Bool", "!Int;Skip;?Bool"]) == 0
        assert [S.pretty(t) for t, _ in root_walks] == ["!Int;?Bool", "!Int;Skip;?Bool"]
        root_walks.clear()
        assert main(["equiv", "--trace", "!Int;x", "?Int;y"]) == 1
        assert len(root_walks) == 2
        assert capsys.readouterr().out.endswith("not equivalent\n")

    def test_bad_type_is_a_diagnostic(self, capsys):
        assert main(["equiv", "+{}", "!Int"]) == 1
        assert "empty choice" in capsys.readouterr().err

    def test_unpositioned_kind_error_has_no_position(self, capsys):
        assert main(["equiv", "rec x. x", "Skip"]) == 1
        assert capsys.readouterr().err == (
            "<type>: error: non-contractive recursive type rec x. x\n")


class TestDumps:
    def test_dual(self, capsys):
        assert main(["dual", "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}"]) == 0
        assert capsys.readouterr().out.strip() == "rec x. &{Leaf: Skip, Node: ?Int;x;x;!Int}"

    def test_dual_rejects_functional(self, capsys):
        assert main(["dual", "Int -> Bool"]) == 1

    def test_dual_rejects_a_free_type_variable(self, capsys):
        assert main(["dual", "!Int;alpha"]) == 1
        assert capsys.readouterr().err == (
            "<type>:1:1: error: dual is not defined on type variable alpha\n")

    def test_dump_grammar(self, capsys):
        assert main(["dump-grammar", "rec x. !Int;x"]) == 0
        out = capsys.readouterr().out
        assert "X0 -> !Int X0" in out
        assert "norm(X0) = inf" in out

    def test_dump_grammar_norms(self, capsys):
        assert main(["dump-grammar", "!Int;?Bool"]) == 0
        out = capsys.readouterr().out
        assert "norm(X0) = 1" in out and "norm(X1) = 1" in out

    def test_dump_grammar_tree_channel_golden(self, capsys):
        assert main(["dump-grammar", "rec x. +{Leaf: Skip, Node: !Int;x;x;?Int}"]) == 0
        assert capsys.readouterr().out == (
            "start0 = X0\n"
            "X0 -> +Leaf\n"
            "X0 -> +Node X1 X0 X0 X2\n"
            "X1 -> !Int\n"
            "X2 -> ?Int\n"
            "norm(X0) = 1\n"
            "norm(X1) = 1\n"
            "norm(X2) = 1\n")

    def test_dump_types(self, capsys):
        assert main(["dump-types", TREE]) == 0
        out = capsys.readouterr().out
        assert "treeSum : forall alpha:SL => TreeS;alpha -> (Int, alpha)" in out

    def test_dump_types_reports_declaration_errors(self, tmp_path, capsys):
        src = tmp_path / "foo.fst"
        src.write_text("f : Foo -> Int\nf x = 1\nmain : Int\nmain = 1\n")
        assert main(["dump-types", str(src)]) == 1
        out = capsys.readouterr()
        assert out.out == "main : Int\n"
        assert out.err == f"{src}:1:1: error: unknown type name Foo\n"


class TestUsage:
    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "!Int"])
        assert exc.value.code == 64

    def test_negative_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "!Int;?Int", "!Int;?Bool", "--budget", "-1"])
        assert exc.value.code == 64
        assert "--budget" in capsys.readouterr().err
