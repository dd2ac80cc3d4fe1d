"""Straightforward reference versions of the contrastive training step.

The differential tests compare the vectorized NT-Xent and the
pooled-once training loop of ``repro.core`` against these: the loss
computed one anchor at a time, and a step that re-pools every column's
base vector on both views at every step.
"""
import numpy as np

from repro.core.augment import aligned_pairs, apply_op
from repro.core.contrastive import TAU_DEFAULT, Adam
from repro.core.encoder import base_vectors, context_vectors


def loss_grad_z(z, pairs, tau, want_grad=True):
    """Eq. 3 and its gradient w.r.t. ``z``, one anchor at a time."""
    n = z.shape[0]
    if not pairs:
        return 0.0, (np.zeros_like(z) if want_grad else None)
    s = (z @ z.T) / tau
    g = np.zeros((n, n)) if want_grad else None
    total = 0.0
    # ℓ(i,j) = -s_ij + log Σ_{k∉{i,j}} exp(s_ik)
    for a, b in pairs:
        for i, j in ((a, b), (b, a)):
            row = s[i].copy()
            row[i] = -np.inf
            row[j] = -np.inf
            m = row.max()
            e = np.exp(row - m)
            sum_e = e.sum()
            total += -s[i, j] + (m + np.log(sum_e))
            if want_grad:
                p = e / sum_e
                g[i] += p
                g[i, j] -= 1.0
    scale = 1.0 / (2 * len(pairs))
    loss = scale * total
    if not want_grad:
        return loss, None
    dz = scale / tau * ((g + g.T) @ z)
    return loss, dz


def loss_and_grad(u, pairs, tau=TAU_DEFAULT):
    """``contrastive.loss_and_grad`` on top of the per-anchor loss."""
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    safe = np.maximum(norms, 1e-12)
    z = u / safe
    loss, dz = loss_grad_z(z, pairs, tau)
    du = (dz - (np.sum(dz * z, axis=1, keepdims=True)) * z) / safe
    du[norms[:, 0] < 1e-12] = 0.0
    return loss, du


def _step(enc, items, op, rng, opt, tau, embedder):
    views = [(v, apply_op(v, op, rng, embedder=embedder)) for v in items]
    b_blocks, c_blocks, pairs = [], [], []
    offset = 0
    for ori, aug in views:
        bo = base_vectors(ori.cols, enc.d_in)
        ba = base_vectors(aug.cols, enc.d_in)
        pairs.extend(aligned_pairs(ori, aug, offset, offset + len(ori.cols)))
        b_blocks.extend([bo, ba])
        c_blocks.extend([context_vectors(bo), context_vectors(ba)])
        offset += len(ori.cols) + len(aug.cols)
    b = np.vstack(b_blocks)
    c = np.vstack(c_blocks)
    u = enc.forward(b, c)
    loss, du = loss_and_grad(u, pairs, tau)
    opt.step([du.T @ b, du.T @ c])
    return loss


def train(enc, tables, *, op, n_epochs, batch_tables=8, lr=5e-3, tau=TAU_DEFAULT,
          seed=0, embedder=None):
    """``MultiColumnEncoder.train`` with the reference step; returns the losses."""
    rng = np.random.default_rng(seed)
    opt = Adam([enc.W1, enc.W2], lr=lr)
    tids = sorted(tables)
    losses = []
    for _ in range(n_epochs):
        order = rng.permutation(len(tids))
        for s in range(0, len(tids), batch_tables):
            batch = [tables[tids[i]] for i in order[s : s + batch_tables]]
            items, item_op = enc._items(batch, op)
            losses.append(_step(enc, items, item_op, rng, opt, tau, embedder))
    return losses
