"""Table-level data augmentation operators (paper Table 1 + Appendix B.1).

Operators act on a ``TableView`` — the driver-side view of one table as
per-column *units* (the cell token lists selected by preprocessing) plus
their precomputed unit vectors. Row-level operators sample/shuffle units
with a shared policy across columns (our units are per-column cell
samples, so "rows" are approximated by shared-fraction unit sampling —
equivalent for the mean-pooled base vectors the encoder consumes); the
cell- and column-level operators follow Table 1 directly.

The ``col_ids`` bookkeeping realizes Fig. 5: a column surviving
augmentation is *aligned* with its original, forming the positive pairs
of Eq. 3.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

OPS = (
    "drop_cell",
    "drop_token",
    "swap_token",
    "repl_token",
    "sample_row",
    "sample_row_ordered",
    "shuffle_row",
    "drop_col",
    "drop_num_col",
    "drop_nan_col",
    "shuffle_col",
)


@dataclass
class ColumnView:
    col_id: int
    units: list[list[str]]  # selected cell token lists
    vecs: np.ndarray  # (n_units, d0) unit mean vectors
    is_numeric: bool
    empty_frac: float


@dataclass
class TableView:
    table_id: str
    cols: list[ColumnView]


def _take(col: ColumnView, idx: list[int]) -> ColumnView:
    return replace(
        col, units=[col.units[i] for i in idx], vecs=col.vecs[idx] if len(idx) else col.vecs[:0]
    )


def apply_op(view: TableView, op: str, rng: np.random.Generator, embedder=None) -> TableView:
    """Return an augmented copy of ``view`` (never mutates the input)."""
    cols = view.cols
    if op in ("drop_col", "drop_num_col", "drop_nan_col"):
        if op == "drop_col":
            droppable = list(range(len(cols)))
        elif op == "drop_num_col":
            droppable = [i for i, c in enumerate(cols) if c.is_numeric]
        else:
            droppable = [i for i, c in enumerate(cols) if c.empty_frac > 0.3]
            if not droppable:
                droppable = list(range(len(cols)))
        if len(cols) <= 1 or not droppable:
            return TableView(view.table_id, list(cols))
        max_drop = min(len(droppable), len(cols) - 1)
        n_drop = int(rng.integers(1, max_drop + 1))
        drop = set(rng.choice(droppable, size=n_drop, replace=False).tolist())
        return TableView(view.table_id, [c for i, c in enumerate(cols) if i not in drop])

    if op == "shuffle_col":
        order = rng.permutation(len(cols)).tolist()
        return TableView(view.table_id, [cols[i] for i in order])

    out: list[ColumnView] = []
    for c in cols:
        n = len(c.units)
        if n == 0:
            out.append(c)
            continue
        if op == "drop_cell":
            if n > 1 and rng.random() < 0.5:
                keep = [i for i in range(n) if i != int(rng.integers(0, n))]
                c = _take(c, keep)
        elif op in ("sample_row", "sample_row_ordered"):
            k = max(1, int(round(n * 0.5)))
            idx = rng.choice(n, size=k, replace=False).tolist()
            if op == "sample_row_ordered":
                idx = sorted(idx)
            c = _take(c, idx)
        elif op == "shuffle_row":
            c = _take(c, rng.permutation(n).tolist())
        elif op in ("drop_token", "swap_token", "repl_token"):
            if rng.random() < 0.5:
                ui = int(rng.integers(0, n))
                toks = list(c.units[ui])
                if op == "drop_token" and len(toks) > 1:
                    toks.pop(int(rng.integers(0, len(toks))))
                elif op == "swap_token" and len(toks) > 1:
                    a, b = rng.choice(len(toks), size=2, replace=False)
                    toks[a], toks[b] = toks[b], toks[a]
                elif op == "repl_token":
                    pool = [t for u in c.units for t in u]
                    toks[int(rng.integers(0, len(toks)))] = pool[int(rng.integers(0, len(pool)))]
                units = list(c.units)
                units[ui] = toks
                vecs = c.vecs.copy()
                if embedder is not None:
                    vecs[ui] = embedder.tokens_vec(toks)
                c = replace(c, units=units, vecs=vecs)
        else:
            raise ValueError(f"unknown op {op!r}")
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
