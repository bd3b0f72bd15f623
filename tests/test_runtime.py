"""The interpreter: channels, threads, blocking, and deadlock detection."""

import random
import time

import pytest

from sluice import runtime
from sluice.cli import main as cli_main
from sluice.lexer import lex
from sluice.parser import _PRECEDENCE, parse_program
from sluice.runtime import (
    CtorVal, LabelVal, RuntimeAbort, Slot, WatchdogAbort, channel_receive, channel_send,
    new_channel, pretty_value, run,
)
from sluice.syntax import BOOL, INT, PRELUDE, Arrow
from sluice.typecheck import BUILTINS
from conftest import checked_program


def run_source(source: str, **kw):
    return run(checked_program(source), **kw)


def run_unchecked(source: str, **kw):
    # the runtime never re-checks, so a program that leaves a channel
    # unfinished still runs; it isolates one blocking behaviour
    prog, diags = parse_program(source)
    assert prog is not None and not diags
    return run(prog, **kw)


STREAM = """\
type Stream = +{More: !Int;Stream, Done: Skip}
type StreamS = &{More: ?Int;StreamS, Done: Skip}

producer : Int -> Int -> Stream -> Skip
producer n i c =
  if i > n
  then select Done c
  else
    let c = select More c in
    let c = send i c in
    producer n (i + 1) c

consumer : Int -> StreamS -> Int
consumer acc c =
  match c with
    More c ->
      let x, c = receive c in
      consumer (acc + x) c
    Done c ->
      acc

main : Int
main =
  let w, r = new Stream in
  let _ = fork (producer N 1 w) in
  consumer 0 r
"""

# main writes three times into a one-slot buffer: lines 4, 5 and 6, or 5, 6
# and 7 when a reader line is spliced in
THREE_PUTS = """\
main : Int
main =
  let w, r = new !Int;!Int;!Int in{reader}
  let w = send 1 w in
  let w = send 2 w in
  let w = send 3 w in
  0
"""


class TestEval:
    def test_arithmetic(self):
        assert run_source("main : Int\nmain = 1 + 2") == 3

    def test_division_and_comparison(self):
        assert run_source("main : Bool\nmain = div 7 2 == 3") is True

    def test_overflow_is_an_error(self):
        big = 2 ** 62
        with pytest.raises(RuntimeAbort, match="overflow"):
            run_source(f"main : Int\nmain = {big} + {big}")

    def test_pairs_and_let(self):
        assert run_source("main : Int\nmain = let x, y = (3, 4) in x * y") == 12

    def test_case_dispatch(self):
        src = ("data Color = Red | Green | Blue\n"
               "pick : Color -> Int\n"
               "pick c = case c of Red -> 1, Green -> 2, Blue -> 3\n"
               "main : Int\nmain = pick Green")
        assert run_source(src) == 2

    def test_top_level_values_memoized_in_any_order(self):
        src = ("main : Int\nmain = a + b\n"
               "a : Int\na = b + 1\n"
               "b : Int\nb = 20")
        assert run_source(src) == 41

    def test_pretty_values(self):
        assert pretty_value(CtorVal("Node", (1, CtorVal("Leaf", (), 0)), 2)) == "Node 1 Leaf"
        assert pretty_value((3, ())) == "(3, ())"
        assert pretty_value("c") == "'c'"
        assert pretty_value(True) == "True"

    def test_deep_non_tail_recursion(self):
        # each pending addition is a heap frame, not a Python stack frame
        src = ("sumTo : Int -> Int\n"
               "sumTo n = if n == 0 then 0 else n + sumTo (n - 1)\n"
               "main : Int\nmain = sumTo 20000")
        assert run_source(src) == 200010000

    def test_runaway_recursion_is_a_runtime_error(self, monkeypatch):
        # the frame cap, lowered so the test stays small and fast
        monkeypatch.setattr(runtime, "_MAX_FRAMES", 5000)
        src = "loop : Int -> Int\nloop n = 1 + loop n\nmain : Int\nmain = loop 0"
        with pytest.raises(RuntimeAbort, match="stack overflow"):
            run_source(src)


# One program per builtin: (expression, its type, its value). `div` and
# `mod` round toward negative infinity.
BUILTIN_VALUES = [
    ("3 + 4", "Int", 7),
    ("3 - 4", "Int", -1),
    ("6 * 7", "Int", 42),
    ("div 7 2", "Int", 3),
    ("div (0 - 7) 2", "Int", -4),
    ("mod 7 2", "Int", 1),
    ("mod (0 - 7) 2", "Int", 1),
    ("3 == 3", "Bool", True),
    ("3 == 4", "Bool", False),
    ("3 < 4", "Bool", True),
    ("4 < 4", "Bool", False),
    ("4 <= 4", "Bool", True),
    ("5 <= 4", "Bool", False),
    ("4 > 3", "Bool", True),
    ("4 > 4", "Bool", False),
    ("4 >= 4", "Bool", True),
    ("3 >= 4", "Bool", False),
    ("True && True", "Bool", True),
    ("True && False", "Bool", False),
    ("False || True", "Bool", True),
    ("False || False", "Bool", False),
    ("not True", "Bool", False),
    ("not False", "Bool", True),
    ("let f = div 84 in f 2", "Int", 42),
]

BUILTIN_ERRORS = [
    ("9223372036854775807 + 1", "integer overflow"),
    ("0 - 9223372036854775807 - 2", "integer overflow"),
    ("4611686018427387904 * 2", "integer overflow"),
    ("div (0 - 9223372036854775807 - 1) (0 - 1)", "integer overflow"),
    ("div 1 0", "division by zero"),
    ("mod 1 0", "division by zero"),
]


class TestBuiltins:
    @pytest.mark.parametrize("expr, ty, value", BUILTIN_VALUES)
    def test_value(self, expr, ty, value):
        assert run_source(f"main : {ty}\nmain = {expr}\n") == value

    @pytest.mark.parametrize("expr, message", BUILTIN_ERRORS)
    def test_runtime_error(self, expr, message):
        with pytest.raises(RuntimeAbort, match=f"^{message}$"):
            run_source(f"main : Int\nmain = {expr}\n")

    def test_a_definition_hides_a_builtin(self):
        src = "not : Int -> Int\nnot n = n + 1\nmain : Int\nmain = not 41\n"
        assert run_source(src) == 42

    def test_checker_and_parser_read_the_prelude(self):
        assert BUILTINS.keys() == PRELUDE.keys()
        assert _PRECEDENCE.keys() <= PRELUDE.keys()

    def test_each_function_takes_one_argument_per_arrow(self):
        sample = {INT: 1, BOOL: True}
        for name, (ty, f) in PRELUDE.items():
            while isinstance(ty, Arrow):
                assert callable(f), name
                f, ty = f(sample[ty.dom]), ty.cod
            assert not callable(f), name


# The forked reader waits on `d` at line 3 while main, whose first select
# filled the one-place buffer, waits to select B at line 14.
SELECT_DEADLOCK = """\
reader : ?Int -o &{A: &{B: Skip}} -o Int
reader d r =
  let x, d = receive d in
  match r with
    A r ->
      match r with
        B r -> x
main : Int
main =
  let w, r = new +{A: +{B: Skip}} in
  let c, d = new !Int in
  let _ = fork (reader d r) in
  let w = select A w in
  let w = select B w in
  let _ = send 1 c in
  0
"""


class TestReporting:
    def test_functions_channels_and_labels_print_as_placeholders(self):
        assert pretty_value(run_unchecked("main : Int\nmain = \\x -> x\n")) == "<fun>"
        assert pretty_value(run_unchecked("main : Int\nmain = not\n")) == "<fun>"
        assert pretty_value(run_unchecked("main : Int\nmain = div 7\n")) == "<fun>"
        assert pretty_value(run_unchecked("main : Int\nmain = let w, r = new !Int in w\n")) \
            == "<channel>"
        assert pretty_value(LabelVal("L")) == "<label L>"

    def test_a_name_bound_nowhere_is_an_error_at_its_use(self):
        # the runtime never re-checks, so it is the last line of defence
        with pytest.raises(RuntimeAbort, match="^unbound name foo$"):
            run_unchecked("main : Int\nmain = 1 + foo 2\n")

    @pytest.mark.parametrize("decls, body, message", [
        ("", "1 2", "applying a non-function value 1"),
        ("data D = A Int\n", "A 1 2", "constructor A applied to too many arguments"),
        ("data D = A | B\n", "case B of A -> 1", "no case branch for B"),
        ("", "let w, r = new !Int in let _ = send 1 w in match r with A r -> 0",
         "protocol mismatch: expected a label"),
        ("", "let w, r = new +{A: Skip} in let _ = select B w in match r with A r -> 0",
         "no match branch for label B"),
    ])
    def test_an_ill_typed_program_aborts_with_a_message(self, decls, body, message):
        # each of these is a type error the runtime, which never re-checks,
        # meets as it runs
        with pytest.raises(RuntimeAbort, match=f"^{message}$"):
            run_unchecked(f"{decls}main : Int\nmain = {body}\n")

    def test_deadlock_parked_at_a_select(self, tmp_path, capsys):
        prog = checked_program(SELECT_DEADLOCK)
        for seed in range(20):
            with pytest.raises(WatchdogAbort) as exc:
                run(prog, seed=seed)
            assert exc.value.report == ["receive at line 3", "select B at line 14"]
        path = tmp_path / "select.fst"
        path.write_text(SELECT_DEADLOCK)
        assert cli_main(["run", str(path), "--seed", "1"]) == 3
        assert capsys.readouterr().err == (
            "deadlock detected:\n  receive at line 3\n  select B at line 14\n")

    @pytest.mark.parametrize("literal, char", [
        ("'a'", "a"), ("'\\n'", "\n"), ("'\\t'", "\t"), ("'\\\\'", "\\"), ("'\\''", "'"),
        ("'\\0'", "\0"),
    ])
    def test_a_printed_char_lexes_back_to_itself(self, literal, char, tmp_path, capsys):
        path = tmp_path / "char.fst"
        path.write_text(f"main : Char\nmain = {literal}\n", encoding="utf-8")
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == literal + "\n"
        assert [(kind, text) for kind, text, _, _ in lex(out)] == [("char", char), ("eof", "")]


class TestChannels:
    def test_round_trip_preserves_basic_values(self):
        # a forked thread sends each value; main receives it unchanged
        rng = random.Random(6)
        n = rng.randint(-999, 999)
        cases = [(n, "Int", f"(0 - {-n})" if n < 0 else str(n)), (True, "Bool", "True"),
                 (False, "Bool", "False"), ("x", "Char", "'x'"), ((), "()", "()"),
                 ("a", "Char", "'a'")]
        for value, ty, literal in cases:
            src = (f"main : {ty}\n"
                   f"main = let w, r = new !{ty} in let _ = fork (send {literal} w) in\n"
                   "  let x, _ = receive r in x")
            prog = checked_program(src)
            assert all(run(prog, seed=seed) == value for seed in range(5))

    def test_send_returns_the_same_end(self):
        e1, e2 = new_channel()
        assert channel_send("c", e1) is e1
        assert e2.read.value == "c"

    def test_crossing(self):
        # what one end writes is exactly what the other end reads, both ways
        e1, e2 = new_channel()
        assert e1.write is e2.read and e1.read is e2.write
        channel_send(41, e1)
        v, end = channel_receive(e2)
        assert end is e2
        channel_send(v + 1, e2)
        v, _ = channel_receive(e1)
        assert v == 42

    def test_second_put_blocks_until_take(self):
        # buffer of size one: with one take by a forked reader, the second
        # put completes and the third is the one left waiting
        source = THREE_PUTS.format(reader="\n  let _ = fork (receive r) in")
        for seed in range(20):
            with pytest.raises(WatchdogAbort) as exc:
                run_unchecked(source, seed=seed)
            assert exc.value.report == ["send at line 7"]

    def test_put_put_put_never_completes(self):
        # with no reader the second put blocks, so the third never starts, on
        # every schedule
        source = THREE_PUTS.format(reader="")
        for seed in range(100):
            with pytest.raises(WatchdogAbort) as exc:
                run_unchecked(source, seed=seed)
            assert exc.value.report == ["send at line 5"]


# main's second send waits on the full one-place buffer before main can
# receive; the send keyword is on line 6, its channel operand on line 7
SPLIT_SEND = """\
main : Int
main =
  let w, r = new !Int;!Int in
  let w = send 1 w in
  let w =
    send 2
      w in
{rest}"""


class TestSend:
    def test_a_send_nested_in_an_application_runs_to_its_value(self):
        # the send is the argument of `size`, and its channel operand is
        # itself an application
        src = ("pass : !Int -o !Int\npass c = c\n"
               "size : Skip -> Int\nsize c = 5\n"
               "main : Int\n"
               "main =\n"
               "  let w, r = new !Int in\n"
               "  let n = size (send (1 + 1) (pass w)) in\n"
               "  let x, _ = receive r in\n"
               "  n + x\n")
        prog = checked_program(src)
        assert {run(prog, seed=seed) for seed in range(10)} == {7}

    @pytest.mark.parametrize("body", ["send 1", "(\\x -> x) (send 1)", "(send 1, 2)"])
    def test_a_send_short_of_its_channel_is_a_runtime_error(self, body):
        # the typechecker rejects a bare send; the runtime, which never
        # re-checks, must not take an unrelated frame for its channel
        with pytest.raises(RuntimeAbort,
                           match="^send must be applied to a value and then a channel$"):
            run_unchecked(f"main : Int\nmain = {body}\n")

    def test_a_parked_send_is_reported_at_its_keyword(self, tmp_path, capsys):
        for seed in range(10):
            with pytest.raises(WatchdogAbort) as exc:
                run_unchecked(SPLIT_SEND.format(rest="  0\n"), seed=seed)
            assert exc.value.report == ["send at line 6"]
        src = SPLIT_SEND.format(rest=("  let x, r = receive r in\n"
                                      "  let y, r = receive r in\n"
                                      "  x + y\n"))
        checked_program(src)
        path = tmp_path / "split.fst"
        path.write_text(src)
        assert cli_main(["run", str(path), "--seed", "0"]) == 3
        assert capsys.readouterr().err == "deadlock detected:\n  send at line 6\n"


class TestConcurrency:
    def test_cross_program_completes(self, cross_source):
        assert run_source(cross_source, seed=3, quiescence=0.5) is False

    def test_doubled_cross_deadlocks(self, cross_doubled_source):
        with pytest.raises(WatchdogAbort) as exc:
            run_source(cross_doubled_source, seed=3, quiescence=0.15)
        # each blocked thread reports its site
        assert exc.value.report == ["receive at line 14", "send at line 8"]

    def test_deadlock_parked_at_a_match(self, tmp_path, capsys):
        # main waits to branch on `a` before it sends on `c`, and the forked
        # thread waits to receive on `d` before it selects on `b`
        src = ("g : ?Int -o +{L: Skip} -o Skip\n"
               "g d b = let x, d = receive d in select L b\n"
               "\n"
               "main : Int\n"
               "main =\n"
               "  let a, b = new &{L: Skip} in\n"
               "  let c, d = new !Int in\n"
               "  let _ = fork (g d b) in\n"
               "  match a with\n"
               "    L a -> let _ = send 1 c in 1\n")
        prog = checked_program(src)
        for seed in range(20):
            with pytest.raises(WatchdogAbort) as exc:
                run(prog, seed=seed)
            assert exc.value.report == ["match at line 9", "receive at line 2"]
        path = tmp_path / "parked.fst"
        path.write_text(src)
        assert cli_main(["run", str(path)]) == 3
        assert "match at line 9" in capsys.readouterr().err

    def test_starved_receive_hits_watchdog(self):
        src = ("main : Int\n"
               "main = let w, r = new !Int in let x, r = receive r in let _ = fork (send x w) in x")
        with pytest.raises(WatchdogAbort):
            run_source(src, quiescence=0.15)

    def test_determinacy_across_schedules(self, cross_source):
        prog = checked_program(cross_source)
        values = {run(prog, seed=seed, quiescence=1.0) for seed in range(100)}
        assert values == {False}

    def test_tree_determinacy_sample(self, tree_source):
        prog = checked_program(tree_source)
        results = {pretty_value(run(prog, seed=seed)) for seed in range(10)}
        assert len(results) == 1

    def test_calculator_session(self):
        from conftest import program_source
        prog = checked_program(program_source("calc.fst"))
        results = {run(prog, seed=seed) for seed in range(20)}
        assert results == {-42}

    def test_forked_thread_not_awaited(self):
        # two forked threads wait on each other forever; main returns anyway
        src = ("main : Int\n"
               "main =\n"
               "  let w1, r1 = new !Int in\n"
               "  let w2, r2 = new !Int in\n"
               "  let _ = fork (let x, r1 = receive r1 in send x w2) in\n"
               "  let _ = fork (let y, r2 = receive r2 in send y w1) in\n"
               "  7")
        t0 = time.time()
        assert run_source(src, quiescence=5.0) == 7
        assert time.time() - t0 < 2.0

    def test_seed_fixes_the_interleaving(self, monkeypatch):
        # two producers race to fill their own buffers; the order of the puts
        # is the interleaving
        src = ("main : Int\n"
               "main =\n"
               "  let w1, r1 = new !Int;!Int in\n"
               "  let w2, r2 = new !Int;!Int in\n"
               "  let _ = fork (let w1 = send 1 w1 in send 2 w1) in\n"
               "  let _ = fork (let w2 = send 3 w2 in send 4 w2) in\n"
               "  let x, r1 = receive r1 in let y, r1 = receive r1 in\n"
               "  let z, r2 = receive r2 in let u, r2 = receive r2 in\n"
               "  x + y + z + u")
        prog = checked_program(src)
        puts: list[object] = []
        put = Slot.put

        def recording_put(slot, v):
            puts.append(v)
            put(slot, v)

        monkeypatch.setattr(Slot, "put", recording_put)

        def interleaving(seed):
            puts.clear()
            assert run(prog, seed=seed) == 10
            return tuple(puts)

        orders = {interleaving(seed) for seed in range(20)}
        assert len(orders) > 1
        assert all(interleaving(seed) == interleaving(seed) for seed in range(20))

    def test_long_stream_returns_its_sum(self):
        n = 2000
        assert run_source(STREAM.replace("N", str(n)), seed=1) == n * (n + 1) // 2

    def test_crash_in_forked_thread_is_a_runtime_error(self, tmp_path, capsys):
        src = ("main : Int\n"
               "main =\n"
               "  let w, r = new !Int in\n"
               "  let _ = fork (send (div 1 0) w) in\n"
               "  let x, _ = receive r in\n"
               "  x\n")
        for seed in range(10):
            with pytest.raises(RuntimeAbort, match="division by zero"):
                run_source(src, seed=seed)
        path = tmp_path / "crash.fst"
        path.write_text(src)
        assert cli_main(["run", str(path), "--seed", "0"]) == 1
        assert "runtime error: division by zero" in capsys.readouterr().err

    def test_spinning_thread_does_not_starve_main(self):
        src = ("spin : Int -> Int\n"
               "spin n = spin (n + 1)\n"
               "main : Int\n"
               "main =\n"
               "  let _ = fork (spin 0) in\n"
               "  7\n")
        prog = checked_program(src)
        assert all(run(prog, seed=seed) == 7 for seed in range(10))
