"""Run-to-run spread of the end-to-end metrics.

    python3 starbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``starbench/run.py`` once per seed with ``BENCHMARK.json``'s
``run_seconds`` (one run after the other, from the repository root) and prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), the same for the raw (unscaled)
times and host-speed factors each run prints, and the wall time of each run.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        ).stdout
        walls.append(time.perf_counter() - t0)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# raw "):
                for name, value in re.findall(r"(\w+)=([-+.\deE]+)", line):
                    raw.setdefault(name, []).append(float(value))
        if not result["correct"]:
            print(f"seed {seed}: failed {result['failed']} of {result['attempted']}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        times = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                         if m["unit"] in ("s", "ms", "1/s"))
        print(f"seed {seed}: {walls[-1]:.1f} s wall  {times}", flush=True)

    print(f"{args.workload}: {args.runs} runs, wall median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    for title, table in (("metrics", values), ("raw times and speed factors", raw)):
        print(f" {title}:")
        for name, vals in table.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:16s} median {med:12.6g}  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
