"""Seeded benchmark for sluice's check, equiv and run paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload equiv-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload on one thread (sluice programs add their
forked thread and the watchdog). The run imports sluice from ``src/`` and the
generators and oracles from ``tests/``, makes its inputs from the seed (set up
several times; ``setup_s`` is the median), then repeats passes over every
operation until ``--seconds`` have gone, and afterwards checks every output
of every pass against its reference. Each operation's time is its median
over the passes, scaled by the host's speed (see CAL_REFERENCE_S). Inputs
that fail at the seed (a workload's ``defects``) are not timed: they run once
after the passes and are reported as known defects.

With ``--trace 0`` the passes are untraced and the last line of standard
output is the JSON result with the end-to-end metrics. With ``--trace 1`` the
first half of the time runs untraced and the second half with the layer
wrappers of ``tracer.py`` installed; the last line then holds the per-layer
metrics, an earlier line reports the tracing overhead, and the spans go to
``perfbench/out/trace-<workload>.jsonl``; each per-layer metric is the median
over the traced passes.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer
from workloads import QUIESCENCE, WORKLOADS, Raised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
JOIN_TIMEOUT = 5.0

# Host speed. On a shared host the CPU's speed drifts by a third or more, over
# seconds as well as minutes. A fixed pure-Python loop, run before every
# set-up and between operations at least every CAL_EVERY_S, samples that
# speed. Each time that computes is scaled to a host on which the loop takes
# CAL_REFERENCE_S, by the median loop time of the CAL_WINDOW samples on either
# side of it: a run-wide median lags the drift. Operations that mostly wait
# are not scaled.
CAL_EVERY_S = 0.05
CAL_REFERENCE_S = 0.0015
CAL_WINDOW = 3


def calibration_loop() -> int:
    """Breadth-first closure over short tuple words: the slicing, hashing,
    dict and set traffic the decider is made of, without calling sluice."""
    seen = {(): 0}
    frontier = [()]
    while frontier and len(seen) < 1000:
        nxt = []
        for w in frontier:
            for a in range(12):
                b, c = (a * 7) % 11, (a * 3) % 5
                w2 = (w + (a, b))[-6:] if (len(w) + a) % 3 else w[1:] + (c,)
                if w2 not in seen:
                    seen[w2] = seen[w] + 1
                    nxt.append(w2)
        frontier = nxt
    return len(frozenset(seen.values())) + sum(seen.values())


class HostSpeed:
    """Calibration samples of one run, in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loop_s: list[float] = []

    def sample(self) -> float:
        """Run the calibration loop once; returns when it ended."""
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.at.append(start)
        self.loop_s.append(end - start)
        return end

    def scale(self, t: float) -> float:
        """Factor that turns a time taken at moment `t` into reference time."""
        j = bisect.bisect_left(self.at, t)
        return CAL_REFERENCE_S / statistics.median(self.loop_s[max(0, j - CAL_WINDOW):j + CAL_WINDOW])


def load_modules():
    """Import sluice, tests/gen.py and tests/oracles.py afresh."""
    for name in list(sys.modules):
        if name in ("sluice", "gen", "oracles") or name.startswith("sluice."):
            del sys.modules[name]
    sluice = importlib.import_module("sluice")
    for sub in ("parser", "syntax", "kinds", "grammar", "equiv", "typecheck", "runtime"):
        importlib.import_module(f"sluice.{sub}")
    return sluice, importlib.import_module("gen"), importlib.import_module("oracles")


def set_up(workload_cls, seed: int, tiny: bool, host: HostSpeed):
    """Set up repeatedly; returns the last set-up and the median set-up time,
    unscaled and scaled."""
    times = []
    workload = None
    for _ in range(SETUPS):
        del workload  # the previous set-up's inputs must not add to peak memory
        gc.collect()
        for _ in range(CAL_WINDOW):
            host.sample()
        start = time.perf_counter()
        sluice, gen, oracles = load_modules()
        workload = workload_cls(sluice, gen, oracles, seed, tiny)
        times.append((start, time.perf_counter() - start))
    return (sluice, workload, statistics.median(sec for _, sec in times),
            statistics.median(sec * host.scale(at) for at, sec in times))


class CrashCounter:
    """threading.excepthook that counts uncaught exceptions in forked sluice
    threads by type, instead of printing their tracebacks."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.by_type: dict[str, int] = {}

    def __call__(self, args) -> None:
        with self.lock:
            name = args.exc_type.__name__
            self.by_type[name] = self.by_type.get(name, 0) + 1

    def total(self) -> int:
        with self.lock:
            return sum(self.by_type.values())


def measure(workload, seconds: float, host: HostSpeed, order: random.Random, on_pass=None):
    """Run whole passes until `seconds` have gone (at least one), sampling
    the host's speed in between. Each pass runs the operations in an order
    drawn from `order`: an operation's time depends on the one before it, and
    a fixed order would make that a property of the seed. Returns one list of
    (start, seconds, output) per pass, in the order of workload.ops. `on_pass`
    hears of the start of each pass, each operation and the end of each pass."""
    passes = []
    indices = list(range(len(workload.ops)))
    last_cal = host.sample()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        if on_pass:
            on_pass("start")
        results = [None] * len(indices)
        order.shuffle(indices)
        for i in indices:
            op = workload.ops[i]
            if on_pass:
                on_pass("op")
            t0 = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                output = Raised(type(exc).__name__)
            t1 = time.perf_counter()
            results[i] = (t0, t1 - t0, output)
            if t1 - last_cal >= CAL_EVERY_S:
                last_cal = host.sample()
        if on_pass:
            on_pass("end")
        passes.append(results)
    host.sample()  # so that the last operations have samples after them too
    return passes


def check_passes(workload, passes, host: HostSpeed):
    """Attach correctness and the scaled time to every result; returns
    checked passes of (seconds, scaled seconds, output, correct), a count of
    failures per (operation, reason) and the number of checks made."""
    checked, failures, checks = [], {}, 0
    for results in passes:
        row = []
        for op, (t0, sec, output) in zip(workload.ops, results):
            reason = workload.check(op, output)
            checks += 1
            if reason is not None:
                key = f"{op.label}: {reason}"
                failures[key] = failures.get(key, 0) + 1
            row.append((sec, sec if op.waits else sec * host.scale(t0), output, reason is None))
        checked.append(row)
    return checked, failures, checks


def probe_defects(workload, tracer, crashes):
    """Run each known-defect input once, outside the timed passes, and check
    it against its true reference. Returns {label: why it fails, or None}
    and, when traced, the layer metrics of these runs."""
    outcome, layer = {}, None
    if tracer:
        tracer.reset()
        crash_mark = crashes.total()
    for op in workload.defects:
        if tracer:
            tracer.op += 1
        try:
            output = op.call()
        except Exception as exc:
            output = Raised(type(exc).__name__)
        outcome[op.label] = workload.check(op, output)
    if tracer:
        layer = tracer.layer_metrics(crashes.total() - crash_mark)
    return outcome, layer


# Per-layer failure counters to which the known-defect runs add theirs.
DEFECT_COUNTERS = ("parser.recursion_errors", "runtime.thread_crashes", "runtime.watchdog_aborts")


def end_to_end(workload, checked, scaled: bool):
    """Every operation's time is its median over the passes, of the scaled
    times if `scaled`, else of the measured ones."""
    ops = workload.ops
    col = 1 if scaled else 0
    times = [statistics.median(p[i][col] for p in checked) for i in range(len(ops))]
    ok = [all(p[i][3] for p in checked) for i in range(len(ops))]
    # latency of the operations that compute: every query, every program check
    computing = [t for t, op in zip(times, ops) if not op.waits]
    q = statistics.quantiles(computing, n=10, method="inclusive") if len(computing) > 1 else computing * 9
    metrics = {
        "pass_s": (sum(times), "s"),
        "op_p50_ms": (statistics.median(computing) * 1e3, "ms"),
        "op_p90_ms": (q[8] * 1e3, "ms"),
    }
    metrics.update(workload.metrics(times, ok, [out for _, _, out, _ in checked[0]]))
    return metrics


def run_workload(args) -> int:
    crashes = CrashCounter()
    threading.excepthook = crashes
    host = HostSpeed()
    sluice, workload, setup_raw_s, setup_s = set_up(WORKLOADS[args.workload], args.seed,
                                                    args.tiny, host)

    traced = args.trace == 1
    untraced_seconds = args.seconds / 2 if traced else args.seconds
    order = random.Random(args.seed)
    passes = measure(workload, 0, host, order)
    # peak memory of set-up plus one pass, before results of later passes pile up
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes += measure(workload, untraced_seconds, host, order)
    layer_passes, traced_passes = [], []
    tracer = None
    if traced:
        tracer = Tracer()
        crash_mark = [0]

        def on_pass(event):
            if event == "start":
                tracer.reset()
                crash_mark[0] = crashes.total()
            elif event == "op":
                tracer.op += 1
            else:
                layer_passes.append(tracer.layer_metrics(crashes.total() - crash_mark[0]))

        tracer.install(sluice)
        try:
            traced_passes = measure(workload, args.seconds / 2, host, order, on_pass)
            defects, defect_layer = probe_defects(workload, tracer, crashes)
        finally:
            tracer.uninstall()
    else:
        defects, _ = probe_defects(workload, None, crashes)

    checked, failures, checks = check_passes(workload, passes + traced_passes, host)
    untraced_checked = checked[:len(passes)]
    attempted = len(workload.ops) * len(checked)
    failed = sum(not ok for row in checked for *_, ok in row)

    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(end_to_end(workload, untraced_checked, scaled=True))
    # failures over attempts, the known-defect runs included
    defects_failed = sum(reason is not None for reason in defects.values())
    metrics["fail_ratio"] = ((failed + defects_failed) / (attempted + len(defects)), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "operations": len(workload.ops),
        "passes": len(passes),
        "checked": checks,
        "failures": failures,
        "known_defects": defects,
        "thread_crashes": dict(crashes.by_type),
    }
    report["calibration"] = {
        "loop_ms": statistics.median(host.loop_s) * 1e3, "reference_ms": CAL_REFERENCE_S * 1e3,
        "samples": len(host.loop_s),
        "unscaled": dict({"setup_s": setup_raw_s}, **{
            k: v for k, (v, _) in end_to_end(workload, untraced_checked, scaled=False).items()})}
    if hasattr(workload, "run_seeds"):
        report["run_seeds"] = workload.run_seeds
        report["quiescence_s"] = QUIESCENCE
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    if traced:
        layer = {name: statistics.median(p[name] for p in layer_passes)
                 for name in layer_passes[0]}
        for name in DEFECT_COUNTERS:
            layer[name] += defect_layer[name]
        traced_checked = checked[len(passes):]
        with_tracing = end_to_end(workload, traced_checked, scaled=True)
        report["traced_passes"] = len(traced_passes)
        report["tracing_overhead"] = {
            name: {"untraced": metrics[name][0], "traced": value,
                   "ratio": value / metrics[name][0] if metrics[name][0] else None}
            for name, (value, _) in with_tracing.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.jsonl"
        tracer.write(trace_path, {"workload": workload.name, "seed": args.seed})
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        result_metrics = {name: {"value": value, "unit": _layer_unit(name)}
                          for name, value in layer.items()}
    else:
        result_metrics = {name: report["metrics"][name] for name in END_TO_END}

    for name, entry in report["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for label, reason in defects.items():
        print(f"# known defect {label}: {reason or 'now passes'}")
    print(json.dumps({"report": report}))
    _join_threads()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


# The metrics of the result line, as BENCHMARK.json declares them.
END_TO_END = ("setup_s", "pass_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _join_threads() -> None:
    """Wait for forked sluice threads and watchdogs to end."""
    deadline = time.monotonic() + JOIN_TIMEOUT
    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(max(0.0, deadline - time.monotonic()))


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"## {name}", flush=True)
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sluice" / "__init__.py").is_file() or not (ROOT / "tests" / "gen.py").is_file():
        print(f"perfbench: no sluice checkout around {HERE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
