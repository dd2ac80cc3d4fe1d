"""NT-Xent loss/gradient correctness (Eq. 1–3) and optimizer behaviour."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contrastive import (
    TAU_DEFAULT,
    Adam,
    _loss_grad_z,
    loss_and_grad,
    normalize_rows,
)

from . import _reference as ref


def numerical_grad(u, pairs, tau=0.07, eps=1e-6):
    num = np.zeros_like(u)
    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            up, um = u.copy(), u.copy()
            up[i, j] += eps
            um[i, j] -= eps
            num[i, j] = (
                loss_and_grad(up, pairs, tau)[0] - loss_and_grad(um, pairs, tau)[0]
            ) / (2 * eps)
    return num


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 6))
def test_gradcheck_random(seed, npairs, dim):
    g = np.random.default_rng(seed)
    n = 2 * npairs
    u = g.normal(size=(n, dim)) + 0.1
    pairs = [(i, i + npairs) for i in range(npairs)]
    loss, du = loss_and_grad(u, pairs)
    assert np.isfinite(loss)
    assert np.abs(du - numerical_grad(u, pairs)).max() < 1e-5


def test_gradcheck_partial_alignment():
    """Multi-column case: not every original column has an augmented twin."""
    g = np.random.default_rng(3)
    u = g.normal(size=(7, 4))
    pairs = [(0, 4), (2, 5)]  # columns 1, 3, 6 are negatives only
    _, du = loss_and_grad(u, pairs)
    assert np.abs(du - numerical_grad(u, pairs)).max() < 1e-5


def test_loss_lower_when_positives_aligned():
    g = np.random.default_rng(0)
    z = normalize_rows(g.normal(size=(8, 16)))
    pairs = [(i, i + 4) for i in range(4)]
    aligned = z.copy()
    for i, j in pairs:
        aligned[j] = aligned[i]  # perfect positive alignment
    assert _loss_grad_z(aligned, pairs, TAU_DEFAULT)[0] < _loss_grad_z(z, pairs, TAU_DEFAULT)[0]


def test_temperature_scales_sharpness():
    g = np.random.default_rng(1)
    z = normalize_rows(g.normal(size=(6, 8)))
    pairs = [(0, 3), (1, 4), (2, 5)]
    l_small = _loss_grad_z(z, pairs, 0.05)[0]
    l_big = _loss_grad_z(z, pairs, 1.0)[0]
    assert l_small != pytest.approx(l_big)


def test_empty_pairs_zero_loss():
    u = np.ones((4, 3))
    loss, du = loss_and_grad(u, [])
    assert loss == 0.0
    assert not du.any()


def test_zero_rows_get_zero_grad():
    u = np.zeros((4, 3))
    u[0] = [1, 0, 0]
    u[2] = [0, 1, 0]
    loss, du = loss_and_grad(u, [(0, 2)])
    assert np.isfinite(loss)
    assert not du[1].any() and not du[3].any()


def test_normalize_rows_unit_norm():
    g = np.random.default_rng(2)
    z = normalize_rows(g.normal(size=(10, 5)))
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0)


def test_normalize_rows_zero_safe():
    z = normalize_rows(np.zeros((2, 3)))
    assert not z.any()


def test_gd_reduces_contrastive_loss():
    """A linear encoder trained on the loss should reduce it."""
    g = np.random.default_rng(5)
    base = g.normal(size=(12, 6))
    pairs = [(i, i + 6) for i in range(6)]
    feats = np.vstack([base[:6], base[:6] + 0.05 * g.normal(size=(6, 6))])
    w = np.eye(6) + 0.01 * g.normal(size=(6, 6))
    opt = Adam([w], lr=5e-3)
    losses = []
    for _ in range(60):
        u = feats @ w.T
        loss, du = loss_and_grad(u, pairs)
        opt.step([du.T @ feats])
        losses.append(loss)
    assert losses[-1] < losses[0]


def test_adam_minimizes_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam([x], lr=0.1)
    for _ in range(300):
        opt.step([2 * x])
    assert np.abs(x).max() < 1e-2


def test_loss_symmetric_in_pair_order():
    g = np.random.default_rng(7)
    z = normalize_rows(g.normal(size=(6, 4)))
    assert _loss_grad_z(z, [(0, 3)], TAU_DEFAULT)[0] == pytest.approx(
        _loss_grad_z(z, [(3, 0)], TAU_DEFAULT)[0])


@st.composite
def _batches(draw):
    """Embeddings with zero rows and repeated columns, plus aligned pairs
    (from one pair up), some drawn with repeated indices."""
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = g.normal(size=(n, dim))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        u[i] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        u[i] = u[j]
    if draw(st.booleans()):
        perm = g.permutation(n)
        npairs = draw(st.integers(1, n // 2))
        pairs = [(int(perm[2 * q]), int(perm[2 * q + 1])) for q in range(npairs)]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=1, max_size=8))
    return u, pairs


@settings(max_examples=300, deadline=None)
@given(_batches(), st.sampled_from([0.07, 0.5]))
def test_vectorized_loss_equals_per_anchor_reference(batch, tau):
    """The all-anchors NT-Xent is the per-anchor loop, bit for bit."""
    u, pairs = batch
    z = normalize_rows(u)
    with np.errstate(all="ignore"):  # a lone pair of two rows has no negatives
        loss, dz = _loss_grad_z(z, pairs, tau)
        ref_loss, ref_dz = ref.loss_grad_z(z, pairs, tau)
        loss_u, du = loss_and_grad(u, pairs, tau)
        ref_loss_u, ref_du = ref.loss_and_grad(u, pairs, tau)
    assert np.array_equal(loss, ref_loss, equal_nan=True)
    assert np.array_equal(dz, ref_dz, equal_nan=True)
    assert np.array_equal(loss_u, ref_loss_u, equal_nan=True)
    assert np.array_equal(du, ref_du, equal_nan=True)
