"""Corpus TF-IDF over lake columns, computed with Spark SQL.

Following the paper (§3.4 / Appendix A), a *column* is a document: the
importance of a token is its inverse document frequency
``log(M) / |{t | token ∈ t}|`` where ``M`` is the number of lake columns
(this is the paper's exact formula — note it is ``log(M)`` divided by
the document frequency, not ``log(M/df)``). A cell scores the average of
its tokens' scores (Algorithm 2 line 2).

The document-frequency pass is a DataFrame aggregation so it scales with
the lake; the resulting (token → idf) map is small (vocabulary-sized)
and is broadcast to the preprocessing pass.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def document_frequencies(tokens_df: DataFrame) -> DataFrame:
    """(token, df) — #columns containing each token.

    ``tokens_df`` must have ``table_id``, ``col_idx`` and
    ``cell_tokens: array<array<string>>`` (from ``tokenize_lake``).
    """
    return (
        tokens_df.select(
            "table_id",
            "col_idx",
            F.explode(F.array_distinct(F.flatten("cell_tokens"))).alias("token"),
        )
        .groupBy("token")
        .agg(F.count("*").alias("df"))
    )


def n_columns(tokens_df: DataFrame) -> int:
    return tokens_df.select("table_id", "col_idx").distinct().count()


def idf_map(tokens_df: DataFrame) -> dict[str, float]:
    """Collect the (token → idf) map: idf = log(M) / df (paper Appendix A)."""
    m = n_columns(tokens_df)
    log_m = math.log(max(m, 2))
    rows = document_frequencies(tokens_df).collect()
    return {r["token"]: log_m / r["df"] for r in rows}


def cell_score(tokens: list[str], idf: dict[str, float]) -> float:
    """Cell importance: average of token TF-IDF scores (Alg. 2 l.2)."""
    if not tokens:
        return 0.0
    return sum(idf.get(t, 0.0) for t in tokens) / len(tokens)
