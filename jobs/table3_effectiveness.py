"""Job: Table 3 — MAP@k / R@k of all methods on the labeled benchmarks."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table3_effectiveness

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float)
    ap.add_argument("--benchmarks", nargs="+")
    ap.add_argument("--epochs", type=int)
    args = ap.parse_args()
    spark = get_spark("table3_effectiveness")
    df = table3_effectiveness(spark, **vars(args))
    print("\n=== Table 3 (lite): effectiveness ===")
    print(df.to_string(index=False))
    spark.stop()
