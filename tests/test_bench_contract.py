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

from sluice import runtime

from conftest import checked_program, program_source

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _calls(tree: ast.Module, name: str) -> list[ast.Call]:
    """Every call in `tree` of a function or method called `name`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_every_function_the_tracer_wraps_exists():
    [wrapped] = [node.value for node in _tree("tracer.py").body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    missing = []
    for owner_path, attr, _ in ast.literal_eval(wrapped):
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
