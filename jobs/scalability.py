"""Job: query-time scalability sweep (Fig. 10 data points; Table 5/8 support)."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import scalability_sweep

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--bench")
    ap.add_argument("--scale", type=float)
    args = ap.parse_args()
    spark = get_spark("scalability")
    df = scalability_sweep(spark, **vars(args))
    print("\n=== Scalability (lite) ===")
    print(df.to_string(index=False))
    spark.stop()
