"""What the benchmark under `perfbench/` needs of the package.

The benchmark's traced runs wrap functions by name, its `programs` workload
runs programs with keywords of `runtime.run`, and it recognises a deadlock by
the name of the exception. Tier-1 does not collect `perfbench/test_smoke.py`,
so without these tests a rename or a deletion in `src/` would break only the
benchmark. Each test reads what it checks from the benchmark's own files."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from sluice import equiv, runtime
from sluice.grammar import build, compute_norms, prune, truncate
from sluice.parser import parse_type

from conftest import checked_program, program_source

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _calls(tree: ast.Module, name: str) -> list[ast.Call]:
    """Every call in `tree` of a function or method called `name`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _wrapped() -> list[tuple[str, str, str]]:
    """The tracer's `WRAPPED` table: (owner path, attribute, span name)."""
    [wrapped] = [node.value for node in _tree("tracer.py").body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    return ast.literal_eval(wrapped)


def test_every_function_the_tracer_wraps_exists():
    missing = []
    for owner_path, attr, _ in _wrapped():
        module, *path = owner_path.split(".")
        owner = importlib.import_module(f"sluice.{module}")  # as `load_modules` imports it
        for part in path:
            owner = getattr(owner, part)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_run_takes_the_keywords_the_workloads_pass():
    keywords = {kw.arg for call in _calls(_tree("workloads.py"), "run") for kw in call.keywords}
    assert keywords == {"seed", "quiescence"}
    inspect.signature(runtime.run).bind(None, **dict.fromkeys(keywords))


def test_a_deadlock_raises_the_exception_the_workloads_name():
    named = {arg.value for call in _calls(_tree("workloads.py"), "Raised") for arg in call.args}
    assert named == {"WatchdogAbort"}
    prog = checked_program(program_source("cross_doubled.fst"))
    with pytest.raises(runtime.WatchdogAbort) as exc:
        runtime.run(prog, seed=0, quiescence=2.0)
    assert exc.type.__name__ in named  # what the workloads record of any exception


def test_the_refutation_walk_answers_the_bool_the_probe_hook_counts():
    # the tracer counts `equiv.probe` calls whose result `is True`
    [walk] = [getattr(equiv, attr) for _, attr, span in _wrapped() if span == "equiv.probe"]
    for t1, t2, refuted in (("!Int;?Int", "!Int;?Bool", True),
                            ("rec x. !Int;x", "!Int;rec x. !Int;x", False)):
        g, w1, w2 = build(parse_type(t1), parse_type(t2))
        assert walk(g, (w1, w2), None, equiv._ROOT_LEVELS) is refuted  # as at the root
        compute_norms(g)
        prune(g)
        root = (truncate(g, w1), truncate(g, w2))
        assert walk(g, root, equiv.Budget(), None) is refuted  # as below it


def _literal(tree: ast.Module, name: str) -> object:
    """The literal a module-level assignment in `tree` gives `name`; a tuple
    assignment gives each of its names the matching element."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     else [(target, value)])
            for t, v in pairs:
                if getattr(t, "id", None) == name:
                    return ast.literal_eval(v)
    raise KeyError(name)


def test_a_run_makes_one_channel_call_per_message_the_workloads_count(monkeypatch):
    # the traced run's `runtime.chan_ops` and slot spans are per message
    workloads = _tree("workloads.py")
    calls: dict[str, int] = {}
    for owner, name in ((runtime, "channel_send"), (runtime, "channel_receive"),
                        (runtime.Slot, "put"), (runtime.Slot, "take")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)

    def calls_of(source: str) -> dict[str, int]:
        calls.update(channel_send=0, channel_receive=0, put=0, take=0)
        runtime.run(checked_program(source), seed=1)
        return calls

    tree = _literal(workloads, "TREE_MESSAGES")
    assert calls_of(program_source("tree.fst")) == dict.fromkeys(calls, tree)
    for n in (1, 100):
        # n selects and n sends, then `Done`
        stream = _literal(workloads, "STREAM").format(n=n)
        assert calls_of(stream) == dict.fromkeys(calls, 2 * n + 1)
