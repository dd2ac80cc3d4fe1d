"""Algorithm 2 + Appendix A sampling methods: budgets, order, determinism."""
import numpy as np
import pytest

from repro.core.preprocess import (
    METHODS,
    preprocess_lake,
    preprocess_table,
    serialize,
)
from repro.core.tokenize import tokenize_lake

IDF = {f"t{i}": float(i) for i in range(100)}


def make_cols(n_cols=3, n_rows=12, tokens_per_cell=2, seed=0):
    g = np.random.default_rng(seed)
    return [
        [
            [f"t{int(g.integers(0, 100))}" for _ in range(tokens_per_cell)]
            for _ in range(n_rows)
        ]
        for _ in range(n_cols)
    ]


@pytest.mark.parametrize("method", METHODS)
def test_budget_respected(method):
    cols = make_cols(n_rows=40, tokens_per_cell=3)
    out = preprocess_table(cols, method=method, budget=10, idf=IDF)
    assert len(out) == len(cols)
    for units in out:
        n_tokens = len(serialize(units))
        # row methods fill by whole rows so may exceed by one row's tokens
        slack = 3 if method in ("tfidf_row", "row_ordered") else 0
        assert n_tokens <= 10 + slack


@pytest.mark.parametrize("method", [m for m in METHODS if m != "random"])
def test_deterministic(method):
    cols = make_cols(seed=3)
    a = preprocess_table(cols, method=method, budget=8, idf=IDF, seed=1)
    b = preprocess_table(cols, method=method, budget=8, idf=IDF, seed=2)
    assert a == b


def test_random_uses_seed():
    cols = make_cols(n_rows=60, seed=4)
    a = preprocess_table(cols, method="random", budget=6, idf=IDF, seed=1)
    b = preprocess_table(cols, method="random", budget=6, idf=IDF, seed=1)
    assert a == b


@pytest.mark.parametrize(
    "method", ["head", "random", "everyN", "uniform", "tfidf_token", "alphaHead"]
)
def test_token_level_unique(method):
    cols = make_cols(n_rows=50, seed=5)
    out = preprocess_table(cols, method=method, budget=12, idf=IDF)
    for units in out:
        toks = serialize(units)
        assert len(set(toks)) == len(toks), "token-level methods take unique samples"


def test_head_preserves_order():
    cols = [[["b"], ["a"], ["c"], ["d"]]]
    out = preprocess_table(cols, method="head", budget=3, idf=IDF)
    assert serialize(out[0]) == ["b", "a", "c"]


def test_alphahead_sorts():
    cols = [[["b"], ["a"], ["d"], ["c"]]]
    out = preprocess_table(cols, method="alphaHead", budget=2, idf=IDF)
    assert serialize(out[0]) == ["a", "b"]


def test_tfidf_token_picks_highest_idf():
    cols = [[["t1"], ["t99"], ["t50"], ["t2"]]]
    out = preprocess_table(cols, method="tfidf_token", budget=2, idf=IDF)
    assert set(serialize(out[0])) == {"t99", "t50"}


def test_tfidf_token_preserves_original_order():
    cols = [[["t1"], ["t99"], ["t50"], ["t2"]]]
    out = preprocess_table(cols, method="tfidf_token", budget=2, idf=IDF)
    assert serialize(out[0]) == ["t99", "t50"]  # original positions 1 then 2


def test_tfidf_entity_picks_high_score_cells():
    cols = [[["t1", "t1"], ["t99", "t98"], ["t2", "t3"], ["t97", "t96"]]]
    out = preprocess_table(cols, method="tfidf_entity", budget=4, idf=IDF)
    cells = out[0]
    assert ["t99", "t98"] in cells and ["t97", "t96"] in cells
    assert ["t1", "t1"] not in cells


def test_tfidf_entity_keeps_cell_order():
    cols = [[["t99"], ["t1"], ["t98"]]]
    out = preprocess_table(cols, method="tfidf_entity", budget=2, idf=IDF)
    assert out[0] == [["t99"], ["t98"]]  # original relative order


def test_tfidf_entity_dedupes_cells():
    cols = [[["t99"], ["t99"], ["t98"]]]
    out = preprocess_table(cols, method="tfidf_entity", budget=3, idf=IDF)
    assert out[0].count(["t99"]) == 1


def test_row_methods_align_across_columns():
    """Row selection is shared across the table's columns (Alg. 2 row mode)."""
    cols = [
        [["t99"], ["t1"], ["t98"], ["t2"]],
        [["a99"], ["a1"], ["a98"], ["a2"]],
    ]
    idf = dict(IDF, a99=99.0, a98=98.0, a1=1.0, a2=2.0)
    out = preprocess_table(cols, method="tfidf_row", budget=2, idf=idf)
    # rows 0 and 2 have the highest scores in *both* columns
    assert out[0] == [["t99"], ["t98"]]
    assert out[1] == [["a99"], ["a98"]]


def test_row_ordered_takes_prefix_rows():
    cols = [[["x1"], ["x2"], ["x3"], ["x4"]]]
    out = preprocess_table(cols, method="row_ordered", budget=2, idf=IDF)
    assert out[0] == [["x1"], ["x2"]]


def test_uniform_picks_frequent():
    cols = [[["a"], ["a"], ["a"], ["b"], ["b"], ["c"]]]
    out = preprocess_table(cols, method="uniform", budget=2, idf=IDF)
    assert set(serialize(out[0])) == {"a", "b"}


def test_empty_column():
    out = preprocess_table([[]], method="tfidf_entity", budget=5, idf=IDF)
    assert out == [[]]


def test_empty_cells_skipped():
    cols = [[[], ["t5"], []]]
    out = preprocess_table(cols, method="tfidf_entity", budget=5, idf=IDF)
    assert out[0] == [["t5"]]


@pytest.mark.parametrize("method", ["tfidf_entity", "head", "tfidf_row"])
def test_preprocess_lake_matches_driver(spark, tiny_santos, method):
    """The Spark pass must agree with the driver-side function per table."""
    from repro.core.tfidf import idf_map

    tokens_df = tokenize_lake(tiny_santos.df)
    idf = idf_map(tokens_df)
    prep = preprocess_lake(tokens_df, method=method, budget=12, idf=idf)
    some = prep.orderBy("table_id", "col_idx").limit(12).collect()
    by_table = {}
    for r in tokens_df.collect():
        by_table.setdefault(r["table_id"], []).append(r)
    for r in some:
        rows = sorted(by_table[r["table_id"]], key=lambda x: x["col_idx"])
        cols = [[list(c) for c in rr["cell_tokens"]] for rr in rows]
        expected = preprocess_table(cols, method=method, budget=12, idf=idf, seed=0)
        got_units = [list(u) for u in r["units"]]
        assert got_units == expected[r["col_idx"]]


def test_preprocess_lake_columns_complete(spark, tiny_santos):
    from repro.core.tfidf import idf_map

    tokens_df = tokenize_lake(tiny_santos.df)
    prep = preprocess_lake(tokens_df, idf=idf_map(tokens_df))
    assert prep.columns == ["table_id", "col_idx", "units", "numeric_frac", "empty_frac"]
    assert prep.count() == tiny_santos.df.count()
    assert prep.where("units IS NULL").count() == 0
