"""Job: Tables 7 + 11 — data discovery for downstream ML tasks."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table7_ml

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--n-tasks", type=int)
    ap.add_argument("--gbt-iter", type=int)
    args = ap.parse_args()
    spark = get_spark("table7_ml_discovery")
    summary, detail = table7_ml(spark, **vars(args))
    print("\n=== Table 11 (lite): per-task MSE ===")
    cols = ["task", "n_rows", "NoJoin", "Jaccard", "Overlap", "Starmie"]
    print(detail[cols].to_string(index=False))
    print("\n=== Table 7 (lite): summary ===")
    print(summary.to_string(index=False))
    spark.stop()
