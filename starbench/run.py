"""Starmie benchmark on tus_large_lite: the offline build, exact and LSH table-union search.

    python3 starbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (and the
tracing overhead) with ``--trace 1``. The exit code is 0 only when every
output check passed. See ``starbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".starbench"


def _pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _use_checkout() -> None:
    """Sources from this checkout (here and in Spark's workers), temp files inside it."""
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path.insert(0, src)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def main() -> int:
    # A terminated run still unwinds, so Spark and its workers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _pin_threads()
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "search" / "engine.py").is_file():
        print(f"starbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _use_checkout()

    import store_cache

    cache = store_cache.ensure(ROOT, WORK)
    if args.workload == wl.OFFLINE:
        result, layers = wl.run_offline(cache, WORK, args.seed, args.seconds, bool(args.trace))
    else:
        result, layers = wl.run_search(args.workload, cache, args.seed, args.seconds,
                                       bool(args.trace))

    for note in result.notes:
        print(f"# {note}")
    for name, value in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {wl.END_TO_END[name]}")
    if args.trace:
        import tracer as tr

        for name, value in layers.items():
            print(f"{args.workload} {name} = {value:.6g} {tr.PER_LAYER[name]}")
        units = tr.PER_LAYER
        reported = {name: layers.get(name, 0.0) for name in units}
    else:
        units = wl.END_TO_END
        reported = result.metrics
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in reported.items()},
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
