"""Augmentation operators (Table 1): invariants + alignment bookkeeping (Fig. 5)."""
import numpy as np
import pytest

from repro.core.augment import OPS, ColumnView, TableView, Units, aligned_pairs, apply_op


def make_view(n_cols=4, n_units=8, d=6, seed=0):
    g = np.random.default_rng(seed)
    cols = []
    for i in range(n_cols):
        units = [[f"c{i}u{j}", f"c{i}x{j}"] for j in range(n_units)]
        vecs = g.normal(size=(n_units, d)).astype(np.float32)
        cols.append(ColumnView(col_id=i, rows=np.arange(n_units), distinct=Units(units, vecs)))
    return TableView("t", cols)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_op_basic_invariants(op, seed):
    view = make_view()
    rng = np.random.default_rng(seed)
    out = apply_op(view, op, rng)
    assert 1 <= len(out.cols) <= len(view.cols)
    ids = [c.col_id for c in out.cols]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= {c.col_id for c in view.cols}
    for c in out.cols:
        assert c.vecs.shape[0] == len(c.units)


@pytest.mark.parametrize("op", OPS)
def test_op_does_not_mutate_input(op):
    view = make_view()
    before = [(c.col_id, [list(u) for u in c.units], c.vecs.copy()) for c in view.cols]
    apply_op(view, op, np.random.default_rng(7))
    for (cid, units, vecs), c in zip(before, view.cols):
        assert c.col_id == cid
        assert [list(u) for u in c.units] == units
        assert np.array_equal(c.vecs, vecs)


def test_drop_col_keeps_at_least_one():
    view = make_view(n_cols=2)
    for seed in range(10):
        out = apply_op(view, "drop_col", np.random.default_rng(seed))
        assert len(out.cols) >= 1


def test_sample_row_halves_units():
    view = make_view(n_units=10)
    out = apply_op(view, "sample_row", np.random.default_rng(0))
    for orig, c in zip(view.cols, out.cols):
        assert len(c.units) == 5
        for u, vec in zip(c.units, c.vecs):  # each kept unit keeps its own vector
            assert np.array_equal(vec, orig.vecs[orig.units.index(u)])


def test_aligned_pairs_full_overlap():
    view = make_view()
    pairs = aligned_pairs(view, view, 0, 4)
    assert pairs == [(0, 4), (1, 5), (2, 6), (3, 7)]


def test_aligned_pairs_after_drop():
    view = make_view()
    aug = TableView("t", [view.cols[0], view.cols[2]])
    pairs = aligned_pairs(view, aug, 0, 4)
    assert pairs == [(0, 4), (2, 5)]


def test_aligned_pairs_after_shuffle():
    view = make_view(n_cols=3)
    aug = TableView("t", [view.cols[2], view.cols[0], view.cols[1]])
    pairs = aligned_pairs(view, aug, 0, 3)
    assert pairs == [(0, 4), (1, 5), (2, 3)]


def test_unknown_op_raises():
    for op in ("nope", "drop_cell", "shuffle_col"):  # Table 1's other operators are not built
        with pytest.raises(ValueError):
            apply_op(make_view(), op, np.random.default_rng(0))
