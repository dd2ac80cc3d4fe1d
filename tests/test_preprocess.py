"""Algorithm 2's TF-IDF cell selection: budget, order, and the lake pass."""
from collections import defaultdict

import numpy as np
from pyspark.sql import functions as F

from repro.core.preprocess import BUDGET, preprocess_lake, select_cells
from repro.core.tfidf import idf_map
from repro.core.tokenize import tokenize_lake

IDF = {f"t{i}": float(i) for i in range(100)}
HALF = BUDGET // 2


def test_budget_respected():
    g = np.random.default_rng(0)
    cells = [[f"t{int(g.integers(0, 100))}" for _ in range(3)] for _ in range(40)]
    units = select_cells(cells, IDF)
    assert units
    assert sum(len(u) for u in units) <= BUDGET


def test_tfidf_entity_picks_high_score_cells():
    cells = [["t1"] * HALF, ["t99", "t98"] * (HALF // 2), ["t2", "t3"] * (HALF // 2),
             ["t97", "t96"] * (HALF // 2)]
    out = select_cells(cells, IDF)
    assert out == [cells[1], cells[3]]


def test_tfidf_entity_keeps_cell_order():
    cells = [["t99"] * HALF, ["t1"] * HALF, ["t98"] * HALF]
    assert select_cells(cells, IDF) == [cells[0], cells[2]]  # original relative order


def test_tfidf_entity_dedupes_cells():
    out = select_cells([["t99"], ["t99"], ["t98"]], IDF)
    assert out.count(["t99"]) == 1


def test_empty_column():
    assert select_cells([], IDF) == []


def test_empty_cells_skipped():
    assert select_cells([[], ["t5"], []], IDF) == [["t5"]]


def test_preprocess_lake_matches_driver(prep_santos):
    """Every lake column equals the driver-side selection, laid out as
    Word2Vec reads it: one partition per table, sorted within."""
    rows = prep_santos.prep_df.withColumn("pid", F.spark_partition_id()).collect()
    idf = prep_santos.idf
    cells = {
        (r["table_id"], r["col_idx"]): [list(c) for c in r["cell_tokens"]]
        for r in prep_santos.tokens_df.collect()
    }
    assert sorted((r["table_id"], r["col_idx"]) for r in rows) == sorted(cells)
    for r in rows:
        col = cells[(r["table_id"], r["col_idx"])]
        assert [list(u) for u in r["units"]] == select_cells(col, idf)

    parts_of = defaultdict(set)
    keys_in = defaultdict(list)
    for r in rows:
        parts_of[r["table_id"]].add(r["pid"])
        keys_in[r["pid"]].append((r["table_id"], r["col_idx"]))
    assert all(len(p) == 1 for p in parts_of.values())
    assert len(keys_in) > 1
    assert all(keys == sorted(keys) for keys in keys_in.values())


def test_layout_independent_of_session(spark, prep_santos):
    """The layout is preprocess_lake's own: under another shuffle-partition
    setting and without persist, every row lies in the same partition, in
    the same order, as in prepare's cached prep_df."""
    def layout(df):
        return [tuple(r) for r in
                df.select("table_id", "col_idx", F.spark_partition_id()).collect()]

    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, "7")
    try:
        fresh = preprocess_lake(prep_santos.tokens_df, idf=prep_santos.idf)
        assert layout(fresh) == layout(prep_santos.prep_df)
    finally:
        spark.conf.set(key, old)


def test_preprocess_lake_columns_complete(spark, tiny_santos):
    tokens_df = tokenize_lake(tiny_santos.df)
    prep = preprocess_lake(tokens_df, idf=idf_map(tokens_df))
    assert prep.columns == ["table_id", "col_idx", "units"]
    assert prep.count() == tiny_santos.df.count()
    assert prep.where("units IS NULL").count() == 0
