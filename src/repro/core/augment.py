"""Table-level data augmentation (paper Table 1 + Appendix B.1): the two
operators the encoders train with.

Operators act on a ``TableView`` — the driver-side view of one table as
per-column *units* (the cell token lists selected by preprocessing). Each
distinct unit and its unit vector are held once, in a shared ``Units``
table, and a column holds the rows of its units in that table.

- ``drop_col`` drops a random nonempty proper subset of the columns.
  Starmie trains with it on every lake (DESIGN.md §2).
- ``sample_row`` keeps a random half of every column's units. Our units are
  per-column cell samples, so "rows" are approximated by sampling the same
  fraction of units in each column, which is equivalent for the mean-pooled
  base vectors the encoder consumes. SingleCol trains with it: its items
  are single columns, so a column-level op becomes a row-level one (§3.2).

Table 1's other nine operators are not built (DESIGN.md §2).

The ``col_id`` bookkeeping realizes Fig. 5: a column surviving
augmentation is *aligned* with its original, forming the positive pairs
of Eq. 3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPS = ("drop_col", "sample_row")


@dataclass
class Units:
    """Distinct cell units and their unit vectors, shared by the columns
    that hold them."""

    tokens: list[list[str]]  # the token list of each distinct unit
    vecs: np.ndarray  # (n_distinct, d0) unit mean vectors, row i for tokens[i]


@dataclass
class ColumnView:
    col_id: int
    rows: np.ndarray  # (n_units,) the column's selected cells, as rows of ``distinct``
    distinct: Units

    @property
    def units(self) -> list[list[str]]:
        """The column's cell token lists (shared, not copied)."""
        return [self.distinct.tokens[r] for r in self.rows.tolist()]

    @property
    def vecs(self) -> np.ndarray:
        """(n_units, d0) unit mean vectors, gathered from ``distinct``."""
        return self.distinct.vecs[self.rows]


@dataclass
class TableView:
    table_id: str
    cols: list[ColumnView]


def apply_op(view: TableView, op: str, rng: np.random.Generator) -> TableView:
    """Return an augmented copy of ``view`` (never mutates the input)."""
    cols = view.cols
    if op == "drop_col":
        if len(cols) <= 1:
            return TableView(view.table_id, list(cols))
        n_drop = int(rng.integers(1, len(cols)))
        drop = set(rng.choice(len(cols), size=n_drop, replace=False).tolist())
        return TableView(view.table_id, [c for i, c in enumerate(cols) if i not in drop])
    if op != "sample_row":
        raise ValueError(f"unknown op {op!r}")
    out: list[ColumnView] = []
    for c in cols:
        n = len(c.rows)
        if n:
            idx = rng.choice(n, size=max(1, round(n / 2)), replace=False)
            c = ColumnView(c.col_id, c.rows[idx], c.distinct)
        out.append(c)
    return TableView(view.table_id, out)


def aligned_pairs(
    ori: TableView, aug: TableView, offset_ori: int, offset_aug: int
) -> list[tuple[int, int]]:
    """Positive-pair indices (Fig. 5): columns sharing ``col_id``.

    ``offset_*`` are the positions of each view's first column in the
    concatenated batch embedding matrix.
    """
    pos_aug = {c.col_id: j for j, c in enumerate(aug.cols)}
    return [
        (offset_ori + i, offset_aug + pos_aug[c.col_id])
        for i, c in enumerate(ori.cols)
        if c.col_id in pos_aug
    ]
