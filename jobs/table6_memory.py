"""Job: Table 6 — relative memory overhead of the vector store and indexes."""
import argparse

from repro.experiments.session import get_spark
from repro.experiments.tables import table6_memory

if __name__ == "__main__":
    ap = argparse.ArgumentParser(argument_default=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float)
    args = ap.parse_args()
    spark = get_spark("table6_memory")
    df = table6_memory(spark, **vars(args))
    print("\n=== Table 6 (lite): memory overhead ===")
    print(df.to_string(index=False))
    spark.stop()
