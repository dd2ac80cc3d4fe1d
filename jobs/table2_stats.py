"""Job: Table 2 — benchmark statistics of the generated lite lakes."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table2_stats

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float)
    args = ap.parse_args()
    spark = get_spark("table2_stats")
    df = table2_stats(spark, **vars(args))
    print("\n=== Table 2 (lite): benchmark statistics ===")
    print(df.to_string(index=False))
    spark.stop()
