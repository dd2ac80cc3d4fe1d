"""Job: Table 10 — column-clustering purity per method."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table10_clustering

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float)
    args = ap.parse_args()
    spark = get_spark("table10_clustering")
    df = table10_clustering(spark, **vars(args))
    print("\n=== Table 10 (lite): column clustering purity ===")
    print(df.to_string(index=False))
    spark.stop()
