"""Lake generators: schemas, ground truth, provenance, and oracle-checked stats."""
import hashlib
import json
from types import SimpleNamespace

import pytest
from pyspark.sql import functions as F

from repro.datalake import io as lake_io
from repro.datalake.generator import (
    Lake,
    build_benchmark,
    microbench_lake,
    santos_lake,
    tus_lake,
    wdc_lake,
)
from repro.experiments.common import build_method
from repro.oracle import assert_equivalent


def test_santos_lake_schema(tiny_santos):
    cols = set(tiny_santos.df.columns)
    assert cols == {"table_id", "domain", "col_idx", "col_name", "sem_type", "cells"}


def test_santos_ground_truth_is_same_domain(tiny_santos):
    tables = tiny_santos.tables()
    for q, rel in tiny_santos.ground_truth.items():
        q_dom = tables[q][0]["domain"]
        for t in rel:
            assert tables[t][0]["domain"] == q_dom
        assert q in rel  # the query itself is unionable with itself


def test_santos_queries_in_lake(tiny_santos):
    tables = tiny_santos.tables()
    assert all(q in tables for q in tiny_santos.queries)


def test_santos_col_idx_contiguous(tiny_santos):
    for cols in tiny_santos.tables().values():
        idxs = [c["col_idx"] for c in cols]
        assert idxs == list(range(len(idxs)))


def test_santos_deterministic(spark):
    a = santos_lake(spark, n_domains=3, tables_per_domain=2, n_queries=2, seed=5)
    b = santos_lake(spark, n_domains=3, tables_per_domain=2, n_queries=2, seed=5)
    assert a.rows == b.rows
    assert a.queries == b.queries
    assert len(a.tables()) == 3 * 2  # n_domains × tables_per_domain


def test_tus_partitions_from_base(tiny_tus):
    """Every partition's column must be a contiguous slice of base values."""
    tables = tiny_tus.tables()
    by_domain: dict[str, list] = {}
    for tid, cols in tables.items():
        by_domain.setdefault(cols[0]["domain"], []).append((tid, cols))
    for dom, ts in by_domain.items():
        # all partitions of a base share value vocabulary per sem_type
        vocab: dict[str, set] = {}
        for _, cols in ts:
            for c in cols:
                vocab.setdefault(c["sem_type"], set()).update(c["cells"])
        for _, cols in ts:
            for c in cols:
                assert set(c["cells"]) <= vocab[c["sem_type"]]


def test_tus_ground_truth_same_base(tiny_tus):
    tables = tiny_tus.tables()
    for q, rel in tiny_tus.ground_truth.items():
        base = q.split("__")[0]
        assert all(t.startswith(base) for t in rel)
        assert len(rel) == 15  # partitions_per_base in the fixture


def test_tus_partition_arity_at_least_two(tiny_tus):
    for cols in tiny_tus.tables().values():
        assert len(cols) >= 2


def test_wdc_lake_tiny_tables(spark):
    lake = wdc_lake(spark, n_tables=50, rows_range=(8, 14), n_queries=3, seed=13)
    assert len(lake.tables()) == 50
    for cols in lake.tables().values():
        assert all(8 <= len(c["cells"]) < 14 for c in cols)
    assert lake.ground_truth is None


@pytest.mark.parametrize("c", [2, 5, 9])
def test_microbench_class_composition(spark, c):
    lake = microbench_lake(spark, n_negative_classes=c, n_tables=60, n_queries=4)
    tables = lake.tables()
    domains = {cols[0]["domain"] for cols in tables.values()}
    assert len(domains) == c + 1
    query_dom = tables[lake.queries[0]][0]["domain"]
    n_query_class = sum(
        1 for cols in tables.values() if cols[0]["domain"] == query_dom
    )
    assert n_query_class == pytest.approx(0.25 * 60, abs=1)
    # negatives evenly split
    neg_counts = {}
    for cols in tables.values():
        d = cols[0]["domain"]
        if d != query_dom:
            neg_counts[d] = neg_counts.get(d, 0) + 1
    assert max(neg_counts.values()) - min(neg_counts.values()) <= 1


def _rows_sha256(lake) -> str:
    h = hashlib.sha256()
    for r in lake.rows:
        h.update(json.dumps(
            [r["table_id"], r["col_idx"], r["col_name"], r["sem_type"], list(r["cells"])]
        ).encode())
    return h.hexdigest()


# sha256 over the (table_id, col_idx, col_name, sem_type, cells) rows of two
# small TUS-style lakes. Both generators draw their partitions through one
# routine, so a change to its draws or their order moves every TUS lake,
# every Table 4 lake and every result built on them.
TUS_ROWS_SHA256 = "d32c3d5764ec31603d8c64f7870d2bafaf987f97a381b9946a1d3688578ba801"
MICROBENCH_ROWS_SHA256 = "0ca8a897ed68f0545560e2363c9f93372e9f11ac18a5a1b66ecd3032f6eea75f"


def test_tus_style_lakes_pinned(spark):
    tus = tus_lake(spark, name="pin_tus", n_bases=3, partitions_per_base=4,
                   base_rows=120, part_rows_range=(10, 30), n_queries=3, seed=11)
    mb = microbench_lake(spark, n_negative_classes=3, n_tables=24, n_queries=3)
    assert _rows_sha256(tus) == TUS_ROWS_SHA256
    assert _rows_sha256(mb) == MICROBENCH_ROWS_SHA256


def test_lake_without_rows_rejects_tables(tiny_santos):
    """A lake built from its DataFrame alone (as one read back from parquet)
    names itself in a ``ValueError`` rather than listing no tables, so SANTOS
    cannot rank against an empty lake."""
    lake = Lake(name="read_back", df=tiny_santos.df, queries=tiny_santos.queries)
    with pytest.raises(ValueError, match="read_back"):
        lake.tables()
    with pytest.raises(ValueError, match="read_back"):
        build_method(SimpleNamespace(lake=lake), "santos")


def test_build_benchmark_registry(spark):
    lake = build_benchmark(spark, "santos_small_lite", scale=0.2)
    assert len(lake.tables()) > 0
    with pytest.raises(ValueError):
        build_benchmark(spark, "nope")


def test_lake_stats_vs_duckdb(spark, tiny_santos):
    """Table 2 statistics oracle-checked against DuckDB SQL."""
    st = lake_io.lake_stats(tiny_santos.df, "tiny_santos", size_bytes=0)
    per_col = tiny_santos.df.select(
        "table_id", F.size("cells").alias("n_rows")
    )
    got = spark.createDataFrame(
        [(st.n_tables, st.n_cols, float(round(st.avg_rows, 6)))],
        ["n_tables", "n_cols", "avg_rows"],
    )
    assert_equivalent(
        got,
        """
        SELECT COUNT(*) AS n_tables, SUM(n_cols) AS n_cols,
               ROUND(AVG(n_rows), 6) AS avg_rows
        FROM (
          SELECT table_id, COUNT(*) AS n_cols, MAX(n_rows) AS n_rows
          FROM per_col GROUP BY table_id
        )
        """,
        per_col=per_col,
    )


def test_save_and_load_roundtrip(spark, tiny_santos, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
    lake_io.save_lake(tiny_santos.df, "rt")
    back = spark.read.parquet(str(lake_io.lake_path("rt")))
    assert back.count() == tiny_santos.df.count()
    assert lake_io.dataset_bytes("rt") > 0


def test_empty_cell_injection(tiny_santos):
    n_empty = sum(
        sum(1 for v in c["cells"] if v == "")
        for cols in tiny_santos.tables().values()
        for c in cols
    )
    assert n_empty > 0  # missing values exist for tokenization and select_cells to skip
