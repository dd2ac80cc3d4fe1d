"""Object-store layout for generated lakes: parquet on the local FS.

The paper's lakes live in object storage; we persist each benchmark as a
parquet dataset (the column-wise lake DataFrame) under ``REPRO_DATA_DIR``
(default ``<repo>/data``). ``lake_stats`` computes the Table 2 statistics
(#tables, #cols, avg #rows, size) with Spark SQL aggregations.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def data_dir() -> Path:
    d = Path(os.environ.get("REPRO_DATA_DIR", Path(__file__).resolve().parents[3] / "data"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def lake_path(name: str) -> Path:
    return data_dir() / f"lake_{name}.parquet"


def save_lake(df: DataFrame, name: str) -> Path:
    p = lake_path(name)
    df.write.mode("overwrite").parquet(str(p))
    return p


def dataset_bytes(name: str) -> int:
    """On-disk (parquet) size of the persisted lake."""
    p = lake_path(name)
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())


def lake_raw_bytes(df: DataFrame) -> int:
    """Raw data-lake size: total cell bytes + one delimiter per cell.

    This is the Table 6 denominator. The paper's '11 GB' is raw open-data
    CSV; parquet compresses our synthetic vocabulary ~50×, which would
    make any relative-overhead number meaningless.
    """
    row = df.select(
        F.sum(
            F.aggregate(
                "cells", F.lit(0).cast("long"),
                lambda acc, c: acc + F.length(c) + F.lit(1),
            )
        ).alias("raw")
    ).collect()[0]
    return int(row["raw"] or 0)


@dataclass
class LakeStats:
    """The Table 2 row for a benchmark."""

    name: str
    n_tables: int
    n_cols: int
    avg_rows: float
    size_mb: float


def lake_stats(df: DataFrame, name: str, size_bytes: int | None = None) -> LakeStats:
    """Compute Table 2 statistics via DataFrame aggregation."""
    agg = (
        df.select("table_id", F.size("cells").alias("n_rows"))
        .groupBy("table_id")
        .agg(F.count("*").alias("n_cols"), F.max("n_rows").alias("n_rows"))
        .agg(
            F.count("*").alias("n_tables"),
            F.sum("n_cols").alias("n_cols"),
            F.avg("n_rows").alias("avg_rows"),
        )
        .collect()[0]
    )
    if size_bytes is None:
        size_bytes = dataset_bytes(name)
    return LakeStats(
        name=name,
        n_tables=int(agg["n_tables"]),
        n_cols=int(agg["n_cols"]),
        avg_rows=float(agg["avg_rows"]),
        size_mb=size_bytes / (1 << 20),
    )
