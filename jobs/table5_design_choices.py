"""Job: Tables 5 + 8 — design choices (Linear/Pruning/LSH/HNSW) × methods."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table5_design_choices

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float)
    ap.add_argument("--bench")
    ap.add_argument("--k", type=int)
    ap.add_argument("--epochs", type=int)
    args = ap.parse_args()
    spark = get_spark("table5_design_choices")
    df = table5_design_choices(spark, **vars(args))
    print("\n=== Tables 5 + 8 (lite): design choices ===")
    print(df.to_string(index=False))
    spark.stop()
