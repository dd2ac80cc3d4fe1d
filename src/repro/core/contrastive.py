"""SimCLR / NT-Xent contrastive loss (paper Eq. 1–3) with analytic gradients.

Implemented exactly as the paper defines it:

- Eq. 1: single-pair loss with the denominator excluding both ``i`` and
  ``j`` (``1[k≠i, k≠j]``), similarity = cosine (rows are L2-normalized),
  temperature ``τ`` (paper fixes 0.07).
- Eq. 2: the single-column batch loss is the multi-column loss (Eq. 3)
  with pairs ``P = {(k, k+N)}``.
- Eq. 3: multi-column loss averages ``ℓ(i,j)+ℓ(j,i)`` over aligned pairs.

Gradients are derived in closed form (see ``loss_and_grad``) and are
verified against numerical differentiation in the tests.
"""
from __future__ import annotations

import numpy as np

TAU_DEFAULT = 0.07
# Rows with a norm below this are zero rows (empty columns).
NORM_EPS = 1e-12
# Adam's moment decay rates and denominator term.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def normalize_rows(u: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(u, axis=1, keepdims=True)
    return u / np.maximum(n, NORM_EPS)


def _loss_grad_z(
    z: np.ndarray, pairs: list[tuple[int, int]], tau: float
) -> tuple[float, np.ndarray]:
    """Eq. 3 and its gradient w.r.t. ``z`` (rows unit-norm), all anchors at once.

    Every ordered pair (i, j) of ``pairs`` — (a, b) then (b, a) — is one
    anchor row of a masked log-sum-exp. The arithmetic is the per-anchor
    loop's, operation for operation: the loss adds the anchors' terms in
    order, and an anchor that recurs adds to its gradient row in order.
    """
    n = z.shape[0]
    if not len(pairs):
        return 0.0, np.zeros_like(z)
    p = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    i, j = p.ravel(), p[:, ::-1].ravel()
    k = np.arange(len(i))
    s = (z @ z.T) / tau
    # ℓ(i,j) = -s_ij + log Σ_{k∉{i,j}} exp(s_ik)
    rows = s[i]
    rows[k, i] = -np.inf
    rows[k, j] = -np.inf
    m = rows.max(axis=1)
    e = np.exp(rows - m[:, None])
    sum_e = e.sum(axis=1)
    terms = -s[i, j] + (m + np.log(sum_e))
    scale = 1.0 / (2 * len(p))
    loss = scale * np.add.accumulate(terms)[-1]
    # G[i] += p_i, then G[i, j] -= 1. p_i is exactly 0 at j, so folding
    # the -1 into p_i first rounds the same.
    prob = e / sum_e[:, None]
    prob[k, j] -= 1.0
    g = np.zeros((n, n))
    np.add.at(g, i, prob)
    # dL/dz_a = scale/τ · Σ_b (G[a,b] + G[b,a]) z_b
    dz = scale / tau * ((g + g.T) @ z)
    return loss, dz


def loss_and_grad(
    u: np.ndarray, pairs: list[tuple[int, int]], tau: float = TAU_DEFAULT
) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. the *unnormalized* embeddings ``u``.

    Backprops the NT-Xent gradient through the row L2 normalization:
    with ``z = u/‖u‖``, ``dL/du = (dL/dz − (dL/dz·z) z)/‖u‖``.
    Zero rows (empty columns) get zero gradient.
    """
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    safe = np.maximum(norms, NORM_EPS)
    z = u / safe
    loss, dz = _loss_grad_z(z, pairs, tau)
    du = (dz - (np.sum(dz * z, axis=1, keepdims=True)) * z) / safe
    du[norms[:, 0] < NORM_EPS] = 0.0
    return loss, du


class Adam:
    """Minimal Adam optimizer over a list of numpy parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        for p, gr, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * gr
            v *= b2
            v += (1 - b2) * gr * gr
            mh = m / (1 - b1**self.t)
            vh = v / (1 - b2**self.t)
            p -= self.lr * mh / (np.sqrt(vh) + ADAM_EPS)
