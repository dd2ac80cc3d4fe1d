"""Smoke tests for the per-table experiment runners at miniature scale.

Every runner that prepares a lake must release what ``prepare`` cached:
the ``prepared`` fixture records each ``Prepared`` a runner makes, and
``_assert_released`` checks that none of its DataFrames is still cached.
"""
import dataclasses

import pandas as pd
import pytest
from pyspark.sql import DataFrame

from repro.experiments import tables as T


@pytest.fixture
def prepared(monkeypatch):
    made = []
    prepare = T.prepare

    def recording_prepare(*args, **kwargs):
        made.append(prepare(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(T, "prepare", recording_prepare)
    return made


def _assert_released(made):
    assert made, "the runner prepared no lake through tables.prepare"
    for prep in made:
        frames = [getattr(prep, f.name) for f in dataclasses.fields(prep)]
        cached = [f for f in frames if isinstance(f, DataFrame) and f.is_cached]
        assert not cached, f"{len(cached)} DataFrame(s) of {prep.lake.name} still cached"


def test_table2_stats_runner(spark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
    df = T.table2_stats(spark, scale=0.05, benchmarks=("santos_small_lite",))
    assert set(df.columns) == {"benchmark", "n_tables", "n_cols", "avg_rows", "size_mb"}
    assert (df["n_tables"] > 0).all()
    assert (df["size_mb"] > 0).all()


def test_table3_runner_tiny(spark, prepared):
    df = T.table3_effectiveness(
        spark, scale=0.12, benchmarks=("tus_small_lite",),
        methods=("starmie", "sherlock"), epochs=4,
    )
    assert len(df) == 2
    assert df["map"].between(0, 1).all()
    starmie_map = df[df.method == "starmie"]["map"].iloc[0]
    assert starmie_map > 0.5
    _assert_released(prepared)


def test_table4_runner_tiny(spark, prepared):
    df = T.table4_negative_classes(spark, classes=(2,), n_tables=40, epochs=4)
    assert list(df.columns) == ["n_negative_classes", "map_60", "map_120"]
    assert df["map_60"].iloc[0] > 0.3
    _assert_released(prepared)


def test_table5_runner_tiny(spark, prepared):
    df = T.table5_design_choices(
        spark, scale=0.3, methods=("starmie",), k=5, epochs=4,
    )
    assert set(df["technique"]) == {"linear", "pruning", "lsh", "hnsw"}
    piv = df.set_index("technique")
    # exactness invariant of the pruning design choice
    assert piv.loc["pruning", "map"] == piv.loc["linear", "map"]
    assert piv.loc["pruning", "avg_verifications"] <= piv.loc["linear", "avg_verifications"]
    _assert_released(prepared)


def test_table6_runner_tiny(spark, tmp_path, monkeypatch, prepared):
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
    df = T.table6_memory(spark, scale=0.05, epochs=3)
    assert list(df["method"]) == ["No Index", "LSH Index", "HNSW Index"]
    assert (df["memory_mb"] > 0).all()
    # the LSH index adds ids, keys and offsets; HNSW a copy of the vectors
    # and its link lists (DESIGN.md §5)
    mem = df.set_index("method")["memory_mb"]
    assert mem["No Index"] < mem["LSH Index"] < mem["HNSW Index"]
    _assert_released(prepared)


def test_table7_runner_tiny(spark, prepared):
    summary, detail = T.table7_ml(spark, n_tasks=2, n_filler=4, gbt_iter=6)
    assert list(summary["method"]) == ["NoJoin", "Jaccard", "Overlap", "Starmie"]
    assert len(detail) == 2
    assert (summary["avg_mse"] > 0).all()
    _assert_released(prepared)


def test_table10_runner_tiny(spark, prepared):
    df = T.table10_clustering(spark, scale=0.25, methods=("sherlock", "starmie"), epochs=3)
    assert set(df["method"]) == {"sherlock", "starmie"}
    assert df["purity_pct"].between(0, 100).all()
    assert (df["n_clusters"] > 0).all()
    _assert_released(prepared)


def test_scalability_runner_tiny(spark, prepared):
    df = T.scalability_sweep(
        spark, bench="santos_large_lite", scale=0.08,
        modes=("linear", "hnsw"), ks=(5,), epochs=2,
    )
    piv = df.set_index("mode")
    assert piv.loc["hnsw", "query_time_s"] <= piv.loc["linear", "query_time_s"] * 2
    _assert_released(prepared)
