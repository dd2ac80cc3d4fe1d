"""TF-IDF Spark pass, oracle-checked against DuckDB (a column = a document)."""
import math

import pytest
from pyspark.sql import functions as F

from repro.core.tfidf import cell_score, document_frequencies, idf_map, n_columns
from repro.core.tokenize import tokenize_lake
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tokens_df(spark, tiny_santos):
    return tokenize_lake(tiny_santos.df).persist()


def test_document_frequencies_vs_duckdb(spark, tokens_df):
    """The Spark aggregation must match the same SQL run by DuckDB."""
    exploded = tokens_df.select(
        "table_id",
        "col_idx",
        F.explode(F.array_distinct(F.flatten("cell_tokens"))).alias("token"),
    )
    got = document_frequencies(tokens_df).withColumnRenamed("df", "n_docs")
    assert_equivalent(
        got,
        """
        SELECT token, COUNT(*) AS n_docs
        FROM (SELECT DISTINCT table_id, col_idx, token FROM exploded)
        GROUP BY token
        """,
        exploded=exploded,
    )


def test_n_columns_vs_duckdb(spark, tokens_df):
    lake = tokens_df.select("table_id", "col_idx")
    got = spark.createDataFrame([(n_columns(tokens_df),)], ["n"])
    assert_equivalent(
        got,
        "SELECT COUNT(*) AS n FROM (SELECT DISTINCT table_id, col_idx FROM lake)",
        lake=lake,
    )


def test_idf_formula(tokens_df):
    """idf = log(M)/df — the paper's Appendix A formula, exactly."""
    m = n_columns(tokens_df)
    dfs = {r["token"]: r["df"] for r in document_frequencies(tokens_df).collect()}
    idf = idf_map(tokens_df)
    assert set(idf) == set(dfs)
    for tok in list(idf)[:50]:
        assert idf[tok] == pytest.approx(math.log(m) / dfs[tok])


def test_rare_tokens_score_higher(tokens_df):
    idf = idf_map(tokens_df)
    dfs = {r["token"]: r["df"] for r in document_frequencies(tokens_df).collect()}
    rare = min(dfs, key=dfs.get)
    common = max(dfs, key=dfs.get)
    if dfs[rare] < dfs[common]:
        assert idf[rare] > idf[common]


def test_cell_score_modes():
    idf = {"a": 2.0, "b": 4.0}
    assert cell_score(["a", "b"], idf) == pytest.approx(3.0)
    assert cell_score([], idf) == 0.0
    assert cell_score(["zzz"], idf) == 0.0  # unknown token
