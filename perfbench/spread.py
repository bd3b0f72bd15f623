"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload equiv-corpus --seeds 10 --seconds 30

Runs the benchmark once per seed (1..N, one process at a time) and prints,
for every metric of the result line, the median and the distance between the
first and third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(1, args.seeds + 1):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or not med:
            print(f"{name}: median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {med:.6g} spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
