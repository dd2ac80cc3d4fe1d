"""Table preprocessing: Algorithm 2's column-wise TF-IDF cell selection (§3.4).

Pre-trained LMs cap input length, so each column must be reduced to a
token budget while preserving semantics. Each column keeps its cells with
the highest average token TF-IDF, in their original order, until
``BUDGET`` tokens are used (``tfidf_entity``, the method the paper selects
in Appendix A). Algorithm 2's row mode and Appendix A's other sampling
methods are not built (DESIGN.md §2).

The output unit is a list of *cell token lists* per column, which
downstream code treats uniformly: the serialized column is the
concatenation, and augmentation operators sample these units.

``preprocess_lake`` applies the selection lake-wide, one column at a time.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .tfidf import cell_score

BUDGET = 40  # tokens per column
# Hash partitions of the preprocessed lake. Fixed here, not taken from the
# session's spark.sql.shuffle.partitions: Word2Vec reads this layout, and
# adaptive execution never coalesces a repartition whose count is given.
LAYOUT_PARTITIONS = 32

Cells = list[list[str]]  # one token list per cell


def select_cells(cells: Cells, idf: dict[str, float]) -> Cells:
    """Top cells by average token TF-IDF, kept in original order (Alg. 2 cell mode)."""
    scored = [(i, cell_score(c, idf)) for i, c in enumerate(cells) if c]
    scored.sort(key=lambda x: -x[1])
    chosen: list[int] = []
    used = 0
    seen_cells: set[tuple[str, ...]] = set()
    for i, _ in scored:
        key = tuple(cells[i])
        if key in seen_cells:
            continue  # unique samples (Appendix B.2)
        if used + len(cells[i]) > BUDGET and chosen:
            continue
        seen_cells.add(key)
        chosen.append(i)
        used += len(cells[i])
        if used >= BUDGET:
            break
    return [cells[i] for i in sorted(chosen)]


def preprocess_lake(tokens_df: DataFrame, *, idf: dict[str, float]) -> DataFrame:
    """Lake-wide preprocessing pass, one column at a time.

    One row per column, ``(table_id, col_idx, units)``; the serialized
    column is ``flatten(units)``.
    """
    idf_b = tokens_df.sparkSession.sparkContext.broadcast(idf)

    @F.pandas_udf(T.ArrayType(T.ArrayType(T.StringType())))
    def _select(cell_tokens: pd.Series) -> pd.Series:
        # Arrow hands array columns to pandas as numpy arrays; normalize
        # to plain lists so truthiness/tuple() behave.
        return pd.Series([select_cells([list(c) for c in ct], idf_b.value)
                          for ct in cell_tokens])

    return (
        tokens_df.select("table_id", "col_idx", _select("cell_tokens").alias("units"))
        # Word2Vec reads the lake in this layout (each table in one of
        # LAYOUT_PARTITIONS hash partitions, rows sorted by table and column):
        # its sentence order and its vocabulary tie order (reduceByKey
        # partitions) both follow it, so another layout moves the vectors and
        # the search quality. Only the selected rows are shuffled.
        .repartition(LAYOUT_PARTITIONS, "table_id")
        .sortWithinPartitions("table_id", "col_idx")
    )
