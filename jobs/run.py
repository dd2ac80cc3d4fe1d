"""Run one paper-table runner of ``repro.experiments.tables`` and print its tables.

    python jobs/run.py RUNNER [flags]       # e.g. table3_effectiveness --epochs 4
    python jobs/run.py RUNNER --help        # the flags RUNNER accepts

Only the flags given are forwarded, so each runner's signature is the one
home of its defaults; the settings no caller varies are constants
beside the runners. ``results/`` publishes the defaults: a run with no flags
writes the runner's CSVs there, and a run with any flag only prints.
"""
import argparse
from pathlib import Path

from repro.experiments import tables
from repro.experiments.session import get_spark

FLAGS = {
    "--scale": {"type": float}, "--epochs": {"type": int}, "--k": {"type": int},
    "--bench": {}, "--benchmarks": {"nargs": "+"}, "--classes": {"nargs": "+", "type": int},
    "--n-tasks": {"type": int}, "--gbt-iter": {"type": int},
}
ML_DETAIL_COLS = ["task", "n_rows", "NoJoin", "Jaccard", "Overlap", "Starmie"]
RESULTS = Path(__file__).resolve().parents[1] / "results"

# runner -> (the flags it accepts, then per table printed: its title, the index
# of the returned DataFrame, the columns shown or None for all, and the name of
# the CSV under results/ that holds the whole DataFrame)
JOBS = {
    "table2_stats": ("--scale", ("Table 2 (lite): benchmark statistics", 0, None,
                                 "table2_stats")),
    "table3_effectiveness": ("--scale --benchmarks --epochs",
                             ("Table 3 (lite): effectiveness", 0, None,
                              "table3_effectiveness")),
    "table4_negative_classes": ("--classes --epochs",
                                ("Table 4 (lite): effect of #negative classes", 0, None,
                                 "table4_negative_classes")),
    "table5_design_choices": ("--scale --bench --k --epochs",
                              ("Tables 5 + 8 (lite): design choices", 0, None,
                               "table5_table8_design_choices")),
    "table6_memory": ("--scale", ("Table 6 (lite): memory overhead", 0, None,
                                  "table6_memory")),
    "table7_ml": ("--n-tasks --gbt-iter", ("Table 11 (lite): per-task MSE", 1, ML_DETAIL_COLS,
                                           "table11_ml_detail"),
                  ("Table 7 (lite): summary", 0, None, "table7_ml_summary")),
    "table10_clustering": ("--scale", ("Table 10 (lite): column clustering purity", 0, None,
                                       "table10_clustering")),
    # Named after the runner's default bench, the one a run without flags uses.
    "scalability_sweep": ("--bench --scale", ("Scalability (lite)", 0, None,
                                              "scalability_santos_large_lite")),
}


def parse(argv=None) -> tuple[str, dict]:
    """The runner's name and the keywords given for it on the command line."""
    ap = argparse.ArgumentParser(prog="jobs/run.py", description=__doc__.splitlines()[0])
    runners = ap.add_subparsers(dest="runner", metavar="RUNNER", required=True)
    for name, (flags, *prints) in JOBS.items():
        sub = runners.add_parser(name, help="; ".join(p[0] for p in prints),
                                 argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            sub.add_argument(flag, **FLAGS[flag])
    kwargs = vars(ap.parse_args(argv))
    return kwargs.pop("runner"), kwargs


def main(argv=None) -> None:
    name, kwargs = parse(argv)
    spark = get_spark(name)
    try:
        out = getattr(tables, name)(spark, **kwargs)
    finally:
        spark.stop()
    frames = out if isinstance(out, tuple) else (out,)
    for title, i, cols, csv in JOBS[name][1:]:
        df = frames[i] if cols is None else frames[i][cols]
        print(f"\n=== {title} ===")
        print(df.to_string(index=False))
        if not kwargs:
            RESULTS.mkdir(exist_ok=True)
            frames[i].to_csv(RESULTS / f"{csv}.csv", index=False)


if __name__ == "__main__":
    main()
