"""Table preprocessing (paper Algorithm 2 + Appendix A design space).

Pre-trained LMs cap input length, so each column must be reduced to a
token budget while preserving semantics. We implement the paper's
sampling methods:

column-based, token-level:
  ``head``, ``random``, ``everyN``, ``uniform`` (most frequent),
  ``tfidf_token``, ``alphaHead``
column-based, cell-level:
  ``tfidf_entity`` (cells ranked by avg token TF-IDF — the method the
  paper selects for SANTOS Small)
row-level:
  ``tfidf_row`` (rows ranked by summed cell scores, keeps row
  alignment), ``row_ordered`` (first rows in order)

The output unit is a list of *cell token lists* per column (token-level
methods yield singleton "cells"), which downstream code treats uniformly:
the serialized column is the concatenation, and augmentation operators
sample these units. Deterministic in ``seed``; only ``random`` uses it.

``preprocess_lake`` applies the selection lake-wide with
``applyInPandas`` grouped by table (row-level methods need all columns
of a table at once).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from .tfidf import cell_score

METHODS = (
    "head",
    "random",
    "everyN",
    "uniform",
    "tfidf_token",
    "alphaHead",
    "tfidf_entity",
    "tfidf_row",
    "row_ordered",
)

Cells = list[list[str]]  # one token list per cell


def _unique_in_order(tokens: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for t in tokens:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _token_level(cells: Cells, method: str, budget: int,
                 idf: dict[str, float], rng: np.random.Generator) -> Cells:
    flat = _unique_in_order([t for c in cells for t in c])
    if not flat:
        return []
    if method == "head":
        sel = flat[:budget]
    elif method == "alphaHead":
        sel = sorted(flat)[:budget]
    elif method == "random":
        if len(flat) <= budget:
            sel = flat
        else:
            idx = sorted(rng.choice(len(flat), size=budget, replace=False).tolist())
            sel = [flat[i] for i in idx]
    elif method == "everyN":
        step = max(1, len(flat) // budget)
        sel = flat[::step][:budget]
    elif method == "uniform":
        counts: dict[str, int] = {}
        for c in cells:
            for t in c:
                counts[t] = counts.get(t, 0) + 1
        ranked = sorted(flat, key=lambda t: -counts[t])[:budget]
        keep = set(ranked)
        sel = [t for t in flat if t in keep][:budget]
    elif method == "tfidf_token":
        ranked = sorted(flat, key=lambda t: -idf.get(t, 0.0))[:budget]
        keep = set(ranked)
        sel = [t for t in flat if t in keep][:budget]
    else:
        raise ValueError(method)
    return [[t] for t in sel]


def _tfidf_entity(cells: Cells, budget: int, idf: dict[str, float]) -> Cells:
    """Top cells by average token TF-IDF, kept in original order (Alg. 2 cell mode)."""
    scored = [
        (i, cell_score(c, idf, mode="avg"))
        for i, c in enumerate(cells)
        if c
    ]
    scored.sort(key=lambda x: -x[1])
    chosen: list[int] = []
    used = 0
    seen_cells: set[tuple[str, ...]] = set()
    for i, _ in scored:
        key = tuple(cells[i])
        if key in seen_cells:
            continue  # unique samples (Appendix B.2)
        if used + len(cells[i]) > budget and chosen:
            continue
        seen_cells.add(key)
        chosen.append(i)
        used += len(cells[i])
        if used >= budget:
            break
    return [cells[i] for i in sorted(chosen)]


def _row_select(cols: list[Cells], method: str, budget: int,
                idf: dict[str, float]) -> list[int]:
    """Pick row indices shared across the table's columns (Alg. 2 row mode)."""
    n_rows = min((len(c) for c in cols), default=0)
    if n_rows == 0:
        return []
    per_col = max(1, budget)
    if method == "row_ordered":
        picked = list(range(n_rows))
    else:  # tfidf_row: rank rows by summed cell scores across columns
        scores = [
            (r, sum(cell_score(c[r], idf, mode="avg") for c in cols))
            for r in range(n_rows)
        ]
        scores.sort(key=lambda x: -x[1])
        picked = [r for r, _ in scores]
    # Fill the per-column token budget in rank order, then restore row order.
    chosen: list[int] = []
    used = [0] * len(cols)
    for r in picked:
        if all(u >= per_col for u in used):
            break
        chosen.append(r)
        for j, c in enumerate(cols):
            used[j] += len(c[r])
    return sorted(chosen)


def preprocess_table(
    cols: list[Cells],
    *,
    method: str = "tfidf_entity",
    budget: int = 40,
    idf: dict[str, float] | None = None,
    seed: int = 0,
) -> list[Cells]:
    """Reduce each column of a table to ≤ ``budget`` tokens (per column)."""
    idf = idf or {}
    rng = np.random.default_rng(seed)
    if method in ("tfidf_row", "row_ordered"):
        rows = _row_select(cols, method, budget, idf)
        return [[c[r] for r in rows if r < len(c) and c[r]] for c in cols]
    if method == "tfidf_entity":
        return [_tfidf_entity(c, budget, idf) for c in cols]
    return [_token_level(c, method, budget, idf, rng) for c in cols]


def serialize(units: Cells) -> list[str]:
    """Flatten selected units to the serialized token list for the column."""
    return [t for cell in units for t in cell]


_OUT_SCHEMA = T.StructType(
    [
        T.StructField("table_id", T.StringType()),
        T.StructField("col_idx", T.IntegerType()),
        T.StructField("units", T.ArrayType(T.ArrayType(T.StringType()))),
        T.StructField("numeric_frac", T.DoubleType()),
        T.StructField("empty_frac", T.DoubleType()),
    ]
)


def preprocess_lake(
    tokens_df: DataFrame,
    *,
    method: str = "tfidf_entity",
    budget: int = 40,
    idf: dict[str, float] | None = None,
    seed: int = 0,
) -> DataFrame:
    """Lake-wide preprocessing pass (grouped by table for row-level methods).

    One row per column, ``(table_id, col_idx, units, numeric_frac,
    empty_frac)``; the serialized column is ``flatten(units)``.
    """
    idf_local = dict(idf or {})
    spark = tokens_df.sparkSession
    idf_b = spark.sparkContext.broadcast(idf_local)

    def _per_table(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("col_idx")
        # Arrow hands array columns to pandas as numpy arrays; normalize
        # to plain lists so truthiness/tuple() behave.
        cols = [[list(cell) for cell in ct] for ct in pdf["cell_tokens"]]
        units = preprocess_table(
            cols, method=method, budget=budget, idf=idf_b.value, seed=seed
        )
        out = []
        for (_, row), u, raw in zip(pdf.iterrows(), units, cols):
            n = max(1, len(raw))
            n_empty = sum(1 for c in raw if not c)
            n_num = sum(
                1 for c in raw if c and all(t.startswith("<num:") or t.isdigit() for t in c)
            )
            out.append(
                {
                    "table_id": row["table_id"],
                    "col_idx": int(row["col_idx"]),
                    "units": u,
                    "numeric_frac": n_num / n,
                    "empty_frac": n_empty / n,
                }
            )
        return pd.DataFrame(out)

    return tokens_df.groupBy("table_id").applyInPandas(_per_table, schema=_OUT_SCHEMA)
