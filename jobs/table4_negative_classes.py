"""Job: Table 4 — Starmie MAP vs number of negative classes (micro-benchmark)."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table4_negative_classes

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--classes", nargs="+", type=int)
    ap.add_argument("--epochs", type=int)
    args = ap.parse_args()
    spark = get_spark("table4_negative_classes")
    df = table4_negative_classes(spark, **vars(args))
    print("\n=== Table 4 (lite): effect of #negative classes ===")
    print(df.to_string(index=False))
    spark.stop()
