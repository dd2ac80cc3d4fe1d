"""ML data-discovery harness (Tables 7/11): corpus, retrieval, joins, GBT."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.eval.ml_discovery import (
    MLTask,
    augment_with_join,
    build_ml_corpus,
    embed_query_table,
    join_candidates,
    lake_token_sets,
    retrieve_syntactic,
    summarize_ml,
    train_eval_gbt,
)
from repro.core.tokenize import tokenize_cell, tokenize_lake
from repro.datalake.vocab import TYPES
from repro.experiments.common import build_method
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def corpus(spark):
    return build_ml_corpus(spark, n_tasks=3, n_filler=6, seed=31)


def test_corpus_shapes(corpus):
    tasks, lake = corpus
    assert len(tasks) == 3
    tables = lake.tables()
    for t in tasks:
        assert t.good_tid in tables and t.decoy_tid in tables
        assert set(t.query_pdf.columns) == {"Entity", "State", "Category", "WeakNum", "Rating"}
        assert t.query_pdf["Rating"].between(0, 1).all()


def test_good_table_carries_hidden_signal(corpus):
    """SupportAmt must correlate with the query's Rating through the entity."""
    tasks, lake = corpus
    t = tasks[0]
    good = lake.tables()[t.good_tid]
    name_col = next(c for c in good if c["col_name"] == "Name")
    sup_col = next(c for c in good if c["col_name"] == "SupportAmt")
    sup = {n: float(s) for n, s in zip(name_col["cells"], sup_col["cells"])}
    merged = t.query_pdf[t.query_pdf["Entity"].isin(sup)].copy()
    merged["sup"] = merged["Entity"].map(sup)
    corr = np.corrcoef(merged["sup"], merged["Rating"])[0, 1]
    assert corr > 0.3


def test_decoy_states_overlap_query(corpus):
    tasks, lake = corpus
    t = tasks[0]
    decoy = lake.tables()[t.decoy_tid]
    d_states = set(next(c for c in decoy if c["col_name"] == "State")["cells"])
    q_states = set(t.query_pdf["State"])
    assert len(d_states & q_states) / len(q_states | d_states) > 0.3


def test_retrieve_syntactic_returns_valid(corpus):
    tasks, lake = corpus
    token_sets = lake_token_sets(tokenize_lake(lake.df))
    for metric in ("jaccard", "overlap"):
        tid, qc, ci = retrieve_syntactic(tasks[0], lake.tables(), token_sets, metric)
        assert tid in lake.tables()
        assert qc in tasks[0].query_pdf.columns and qc != "Rating"
        assert any(c["col_idx"] == ci for c in lake.tables()[tid])


def test_join_preserves_row_count(spark, corpus):
    tasks, lake = corpus
    t = tasks[0]
    tables = lake.tables()
    token_sets = lake_token_sets(tokenize_lake(lake.df))
    tid, qc, ci = retrieve_syntactic(t, tables, token_sets, "overlap")
    joined = augment_with_join(spark, t, tables[tid], qc, ci)
    assert joined.count() == len(t.query_pdf)


def test_join_vs_duckdb_oracle(spark, corpus):
    """The dedup-left-join recipe must match the same SQL in DuckDB."""
    tasks, lake = corpus
    t = tasks[0]
    joined = augment_with_join(spark, t, lake.tables()[t.good_tid], "Entity", 0)
    got = joined.groupBy().agg(
        F.count("*").alias("n"),
        F.count("t_3_SupportAmt").alias("n_matched"),
    )
    tbl = lake.tables()[t.good_tid]
    lake_pdf = pd.DataFrame({f"t_{c['col_idx']}_{c['col_name']}": c["cells"] for c in tbl})
    assert_equivalent(
        got,
        """
        SELECT COUNT(*) AS n, COUNT(t_3_SupportAmt) AS n_matched
        FROM q LEFT JOIN (
            SELECT * FROM (
                SELECT *, ROW_NUMBER() OVER (PARTITION BY t_0_Name) AS rn FROM lt
            ) WHERE rn = 1
        ) ON q.Entity = t_0_Name
        """,
        q=t.query_pdf,
        lt=lake_pdf,
    )


def test_join_coverage_high_for_good_table(spark, corpus):
    tasks, lake = corpus
    t = tasks[0]
    joined = augment_with_join(spark, t, lake.tables()[t.good_tid], "Entity", 0)
    n = joined.count()
    matched = joined.where(F.col("t_3_SupportAmt").isNotNull()).count()
    assert matched / n > 0.6


def test_gbt_improves_with_good_join(spark, corpus, prep_santos):
    """Joining the good table must reduce MSE vs NoJoin (the Table 7 effect)."""
    tasks, lake = corpus
    t = tasks[0]
    q_df = spark.createDataFrame(t.query_pdf)
    mse_nojoin = train_eval_gbt(q_df, prep_santos.embedder, max_iter=8)
    joined = augment_with_join(spark, t, lake.tables()[t.good_tid], "Entity", 0)
    mse_good = train_eval_gbt(joined, prep_santos.embedder, max_iter=8)
    assert 0 <= mse_good < mse_nojoin


def test_query_featurization_matches_lake(tiny_santos, prep_santos):
    """A lake table embedded as a query equals its lake embedding.

    Fails if the query path's preprocessing drifts from ``prepare``'s.
    """
    bundle = build_method(prep_santos, "starmie", epochs=2)
    lake_emb = bundle.store.mats
    tables = tiny_santos.tables()
    assert set(lake_emb) == set(tables)
    for tid, cols in tables.items():
        cols = sorted(cols, key=lambda c: c["col_idx"])
        pdf = pd.DataFrame({str(c["col_idx"]): c["cells"] for c in cols})
        _, qvecs = embed_query_table(
            MLTask(tid, pdf, "", ""), prep_santos.embedder, bundle.encoder, prep_santos.idf
        )
        np.testing.assert_allclose(qvecs, lake_emb[tid], atol=1e-6, err_msg=tid)


def test_summarize_ml():
    detail = pd.DataFrame(
        {
            "NoJoin": [0.10, 0.20, 0.30],
            "Jaccard": [0.10, 0.25, 0.20],
            "Overlap": [0.09, 0.20, 0.25],
            "Starmie": [0.05, 0.15, 0.10],
        }
    )
    s = summarize_ml(detail).set_index("method")
    assert s.loc["Starmie", "n_improved"] == 3
    assert s.loc["Jaccard", "n_improved"] == 1
    assert s.loc["Starmie", "avg_mse"] == pytest.approx(0.1)
    assert s.loc["NoJoin", "improvement_pct"] == pytest.approx(0.0)
    assert s.loc["Starmie", "improvement_pct"] > s.loc["Overlap", "improvement_pct"]


def test_lake_token_sets_match_cell_tokenization(corpus):
    """The token sets read from the tokenized lake are each column's tokens
    as ``tokenize_cell`` gives them, cell by cell."""
    _, lake = corpus
    sets = lake_token_sets(tokenize_lake(lake.df))
    tables = lake.tables()
    assert len(sets) == sum(len(cols) for cols in tables.values())
    for tid, cols in tables.items():
        for c in cols:
            want = {t for cell in c["cells"] for t in tokenize_cell(cell)}
            assert sets[(tid, c["col_idx"])] == want, (tid, c["col_idx"])


def test_join_candidates_rule(corpus):
    """Textual non-target query columns; lake columns other than rating-like
    ones, and of those the textual ones as join keys."""
    tasks, lake = corpus
    tables = lake.tables()
    qcols, cands = join_candidates(tasks[0], tables)
    assert qcols == ["Entity", "State", "Category"]
    assert list(cands) == list(tables)
    for tid, (keep_any, keep_join) in cands.items():
        types = [c["sem_type"] for c in tables[tid]]
        assert keep_any == [j for j, ty in enumerate(types) if ty != "rating_val"]
        assert keep_join == [j for j in keep_any if not TYPES[types[j]].is_numeric]
    good_any, good_join = cands[tasks[0].good_tid]
    assert good_any == list(range(6)) and good_join == [0, 1, 2, 5]
