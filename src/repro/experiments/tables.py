"""Per-table experiment runners (one per evaluation table of the paper).

Each runner returns a pandas DataFrame shaped like the paper's table and
persists it under ``results/``. Jobs in ``jobs/`` are thin wrappers that
forward only the flags given on their command line, so each runner's
signature is the one home of its defaults.
"""
from __future__ import annotations

import os
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from ..datalake import io as lake_io
from ..datalake.generator import build_benchmark, microbench_lake
from ..eval.clustering import cluster_columns, collect_columns
from ..eval.metrics import evaluate_rankings, ideal_recall
from ..eval.ml_discovery import run_ml_discovery, summarize_ml
from .common import build_method, method_embeddings_df, prepare, run_union_search

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR",
                                  Path(__file__).resolve().parents[3] / "results"))

BENCH_K = {"santos_small_lite": 10, "tus_small_lite": 60, "tus_large_lite": 60}


def _save(df: pd.DataFrame, name: str) -> pd.DataFrame:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    df.to_csv(RESULTS_DIR / f"{name}.csv", index=False)
    return df


def table2_stats(spark: SparkSession, *, scale: float = 1.0,
                 benchmarks: tuple[str, ...] | None = None) -> pd.DataFrame:
    """Table 2: benchmark statistics (lite scales)."""
    benchmarks = benchmarks or (
        "santos_small_lite", "tus_small_lite", "tus_large_lite",
        "santos_large_lite", "wdc_lite",
    )
    rows = []
    for b in benchmarks:
        lake = build_benchmark(spark, b, scale)
        lake_io.save_lake(lake.df, b)
        st = lake_io.lake_stats(lake.df, b)
        rows.append({"benchmark": b, "n_tables": st.n_tables, "n_cols": st.n_cols,
                     "avg_rows": round(st.avg_rows, 1), "size_mb": round(st.size_mb, 2)})
    return _save(pd.DataFrame(rows), "table2_stats")


def table3_effectiveness(
    spark: SparkSession,
    *,
    scale: float = 1.0,
    benchmarks: tuple[str, ...] = ("santos_small_lite", "tus_small_lite", "tus_large_lite"),
    methods: tuple[str, ...] = ("singlecol", "sato", "sherlock", "santos", "d3l", "starmie"),
    epochs: int = 30,
    lr: float = 3e-3,
) -> pd.DataFrame:
    """Table 3: MAP@k and R@k for all methods on the labeled benchmarks."""
    rows = []
    for b in benchmarks:
        lake = build_benchmark(spark, b, scale)
        prep = prepare(spark, lake)
        k = min(BENCH_K.get(b, 10), max(5, len(lake.tables()) // 4))
        for m in methods:
            if m == "santos" and b == "tus_large_lite":
                # the paper cannot evaluate SANTOS on TUS Large (no
                # annotated intent columns); we mirror the "-" cell.
                rows.append({"benchmark": b, "k": k, "method": m,
                             "map": None, "r": None, "p": None, "ideal_r": None})
                continue
            bundle = build_method(prep, m, epochs=epochs, lr=lr)
            run = run_union_search(bundle, lake.queries, k=k, mode="pruning")
            ev = evaluate_rankings(run.rankings, lake.ground_truth, k)
            rows.append({"benchmark": b, "k": k, "method": m,
                         "map": round(ev["map"], 3), "p": round(ev["p"], 3),
                         "r": round(ev["r"], 3),
                         "ideal_r": round(ideal_recall(lake.ground_truth, k), 3)})
        prep.tokens_df.unpersist()
        prep.prep_df.unpersist()
    return _save(pd.DataFrame(rows), "table3_effectiveness")


def table4_negative_classes(
    spark: SparkSession,
    *,
    classes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9),
    n_tables: int = 120,
    epochs: int = 12,
) -> pd.DataFrame:
    """Table 4: Starmie MAP vs the number of negative classes (§5.2.1)."""
    rows = []
    for c in classes:
        lake = microbench_lake(spark, n_negative_classes=c, n_tables=n_tables)
        prep = prepare(spark, lake)
        bundle = build_method(prep, "starmie", epochs=epochs)
        rec = {"n_negative_classes": c}
        for k_name, k in (("map_60", 60), ("map_120", 120)):
            run = run_union_search(bundle, lake.queries, k=k, mode="pruning")
            ev = evaluate_rankings(run.rankings, lake.ground_truth, k)
            rec[k_name] = round(ev["map"], 3)
        rows.append(rec)
        prep.tokens_df.unpersist()
        prep.prep_df.unpersist()
    return _save(pd.DataFrame(rows), "table4_negative_classes")


def table5_design_choices(
    spark: SparkSession,
    *,
    scale: float = 1.0,
    bench: str = "santos_small_lite",
    methods: tuple[str, ...] = ("starmie", "sato", "sherlock", "singlecol"),
    modes: tuple[str, ...] = ("linear", "pruning", "lsh", "hnsw"),
    k: int = 10,
    epochs: int = 30,
    lr: float = 3e-3,
) -> pd.DataFrame:
    """Tables 5 + 8: design choices × methods (quality, time, verifications).

    The ``starmie`` rows are Table 5's top block; the full cross product
    is Table 8. Also records the Linear-vs-Pruning verification counts
    backing the §5.3 '550 → 342' observation.
    """
    lake = build_benchmark(spark, bench, scale)
    prep = prepare(spark, lake)
    rows = []
    for m in methods:
        bundle = build_method(prep, m, epochs=epochs, lr=lr)
        for mode in modes:
            run = run_union_search(bundle, lake.queries, k=k, mode=mode)
            ev = evaluate_rankings(run.rankings, lake.ground_truth, k)
            rows.append({
                "method": m, "technique": mode,
                "map": round(ev["map"], 3), "p": round(ev["p"], 3),
                "r": round(ev["r"], 3),
                "query_time_s": round(run.avg_query_seconds, 5),
                "avg_verifications": round(run.avg_verifications, 1),
                "avg_candidates": round(run.avg_candidates, 1),
            })
    return _save(pd.DataFrame(rows), "table5_table8_design_choices")


def table6_memory(
    spark: SparkSession, *, scale: float = 1.0, epochs: int = 8,
) -> pd.DataFrame:
    """Table 6: memory of the vector store and indexes vs the lake size.

    Uses a row-rich SANTOS-Large-style lake (the paper's SANTOS Large
    averages 7,675 rows/table — embedding overhead is per *column*, so
    the rows/table ratio drives the relative overhead) and measures the
    lake as raw cell bytes (the paper's 11 GB is raw open-data CSV;
    parquet compresses synthetic vocabulary ~50×).
    """
    from ..datalake.generator import santos_lake

    lake = santos_lake(
        spark, name="santos_large_mem", n_domains=36,
        tables_per_domain=max(3, int(24 * scale)),
        rows_range=(900, 1600), n_queries=4, seed=23,
    )
    lake_io.save_lake(lake.df, "santos_large_mem")
    raw_bytes = lake_io.lake_raw_bytes(lake.df)
    prep = prepare(spark, lake)
    bundle = build_method(prep, "starmie", epochs=epochs)
    from ..search.engine import SearchEngine

    rows = []
    for mode, label in (("linear", "No Index"), ("lsh", "LSH Index"), ("hnsw", "HNSW Index")):
        eng = SearchEngine(store=bundle.store, mode=mode, tau=bundle.tau)
        mem = eng.memory_bytes()
        rows.append({
            "method": label,
            "memory_mb": round(mem / (1 << 20), 2),
            "lake_mb": round(raw_bytes / (1 << 20), 2),
            "parquet_mb": round(lake_io.dataset_bytes("santos_large_mem") / (1 << 20), 2),
            "space_overhead_pct": round(100 * mem / raw_bytes, 2),
        })
    return _save(pd.DataFrame(rows), "table6_memory")


def table7_ml(
    spark: SparkSession, *, n_tasks: int = 25, n_filler: int = 40,
    seed: int = 31, gbt_iter: int = 12,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Tables 7 + 11: ML data-discovery case study."""
    detail = run_ml_discovery(
        spark, n_tasks=n_tasks, n_filler=n_filler, seed=seed, gbt_iter=gbt_iter
    )
    summary = summarize_ml(detail)
    _save(detail, "table11_ml_detail")
    return _save(summary, "table7_ml_summary"), detail


def table10_clustering(
    spark: SparkSession,
    *,
    scale: float = 1.0,
    methods: tuple[str, ...] = ("sherlock", "sato", "starmie", "singlecol"),
    epochs: int = 10,
    target_avg_size: float = 15.0,
) -> pd.DataFrame:
    """Table 10: column-clustering purity.

    The paper calibrates every method to a comparable number of clusters
    (avg size ≈ 50 on 119k columns = ~29 clusters per ground-truth type,
    i.e. clusters are *finer* than types — cf. Table 9's "finer-grained
    semantic types"). We keep that clusters-finer-than-types regime at
    our scale (~2k columns / ~79 types → target avg size ≈ 15) and pick
    each method's θ from a grid to match it, then report purity.
    """
    from ..datalake.generator import santos_lake

    lake = santos_lake(spark, name="wdc_cluster_lite", n_domains=36,
                       tables_per_domain=max(4, int(16 * scale)),
                       n_queries=4, seed=41)
    prep = prepare(spark, lake)
    # Sherlock's feature vectors keep many columns above 0.99, so the grid
    # continues past it in finer steps until every method's pick lies
    # inside the grid rather than at its edge.
    thetas = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97, 0.98, 0.99,
              0.991, 0.992, 0.993)
    rows = []
    for m in methods:
        vecs, labels = collect_columns(method_embeddings_df(prep, m, epochs=epochs))
        grid = {t: cluster_columns(vecs, labels, theta=t) for t in thetas}
        theta = min(grid, key=lambda t: abs(grid[t].avg_size - target_avg_size))
        res = grid[theta]
        rows.append({"method": m, "theta": theta, "n_clusters": res.n_clusters,
                     "avg_cluster_size": round(res.avg_size, 2),
                     "purity_pct": round(100 * res.purity, 2)})
    return _save(pd.DataFrame(rows), "table10_clustering")


def scalability_sweep(
    spark: SparkSession,
    *,
    bench: str = "santos_large_lite",
    scale: float = 1.0,
    modes: tuple[str, ...] = ("linear", "pruning", "lsh", "hnsw"),
    ks: tuple[int, ...] = (10, 60),
    epochs: int = 6,
) -> pd.DataFrame:
    """Query-time scalability behind Fig. 10 (supports Table 5/8 narrative)."""
    lake = build_benchmark(spark, bench, scale)
    prep = prepare(spark, lake)
    bundle = build_method(prep, "starmie", epochs=epochs)
    rows = []
    for mode in modes:
        for k in ks:
            run = run_union_search(bundle, lake.queries, k=k, mode=mode)
            rows.append({
                "bench": bench, "n_tables": len(bundle.store.table_ids),
                "mode": mode, "k": k,
                "query_time_s": round(run.avg_query_seconds, 5),
                "index_build_s": round(run.index_build_seconds, 2),
            })
    return _save(pd.DataFrame(rows), f"scalability_{bench}")
