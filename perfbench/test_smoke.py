"""Smoke test for the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload briefly, untraced and traced, and checks that the result
line carries exactly the metrics BENCHMARK.json declares, that the report
carries every workload metric, and that the output checks ran.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOAD_METRICS = {
    "equiv-ladder": {"equiv_eq_s", "equiv_ne_s"},
    "equiv-corpus": {"equiv_eq_s", "equiv_ne_s", "equiv_p50_ms", "equiv_p99_ms", "equiv_samples"},
    "programs": {"check_s", "run_us_per_msg", "deadlock_s"},
}
EVERY_WORKLOAD = {"setup_s", "fail_ratio", "peak_rss_mb"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(report["metrics"]) >= WORKLOAD_METRICS[workload] | EVERY_WORKLOAD
    for name, entry in report["metrics"].items():
        assert f"# {name} = " in proc.stdout and entry["unit"]

    assert result["attempted"] >= 1 and report["checked"] == result["attempted"]
    assert result["correct"] and result["failed"] == 0 and not report["failures"]
    if workload == "programs":
        # the two inputs known to fail run outside the timed passes: the
        # parser's RecursionError on the deepest let chain, and the producer
        # thread's on the long stream
        assert set(report["known_defects"]) == {"check let-1000", "run stream-1000"}
        assert set(report["thread_crashes"]) <= {"RecursionError"}
        for label in report["known_defects"]:
            assert f"# known defect {label}: " in proc.stdout
        # while a defect lasts, its per-layer counter names its cause
        layer = result["metrics"]
        if trace and report["known_defects"]["check let-1000"]:
            assert layer["parser.recursion_errors"]["value"] >= 1
        if trace and report["known_defects"]["run stream-1000"]:
            assert layer["runtime.thread_crashes"]["value"] >= 1
    else:
        assert report["known_defects"] == {}
    if trace:
        assert report["tracing_overhead"]
        assert (ROOT / report["trace_file"]).is_file()


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "programs", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
