"""Table unionability scoring (paper §4.1, §4.3).

- ``hungarian_max``: exact maximum-weight bipartite matching via the
  O(n³) Hungarian algorithm with potentials (scipy is unavailable in
  this container, so this is a from-scratch implementation; it is
  property-tested against brute-force permutation search).
- ``table_union_score``: the paper's U(S,T) — max-weight matching over
  the τ-thresholded column-similarity graph (Fig. 7). When each row's
  heaviest τ-edge goes to a different column, those edges are a maximum
  matching, and their sum is returned without running Hungarian.
- ``upper_bound``: min(Σ row maxima, Σ column maxima) over the τ-edges, a
  bound at least as tight as §4.3's greedy UB (Fig. 7: 2.2, where the
  paper's greedy UB gives 3.0).
- ``lower_bound``: the greedy maximal matching of §4.3 (Example 4.2:
  LB=1.5). The engine does not use it.

Sums of float32 weights ≥ τ are accumulated in float64, where they are
exact, so a certified score equals Hungarian's bit for bit and
``table_union_score(sim, τ) <= upper_bound(sim, τ)`` holds exactly.
"""
from __future__ import annotations

import numpy as np


def hungarian_min_assignment(cost: np.ndarray) -> list[int]:
    """Min-cost perfect assignment on a square matrix.

    Returns ``assign`` with ``assign[j] = i``: row i assigned to column j.
    Classic potentials formulation (Jonker–Volgenant style), O(n³).
    """
    n = cost.shape[0]
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-indexed, 0 = none)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [p[j] - 1 for j in range(1, n + 1)]


def hungarian_max(weights: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Maximum-weight bipartite matching with nonnegative weights.

    Rectangular inputs are padded to square with zeros; zero-weight
    assignments are not part of the returned matching (they model
    "unmatched"), so the result is a maximum-weight *matching*, not a
    perfect assignment.
    """
    m, n = weights.shape
    if m == 0 or n == 0:
        return 0.0, []
    size = max(m, n)
    pad = np.zeros((size, size))
    pad[:m, :n] = weights
    assign = hungarian_min_assignment(-pad)
    matching = []
    total = 0.0
    for j, i in enumerate(assign):
        if i < m and j < n and weights[i, j] > 0:
            matching.append((i, j))
            total += float(weights[i, j])
    return total, matching


def threshold_edges(sim: np.ndarray, tau: float) -> np.ndarray:
    """Zero out column pairs below the unionability threshold τ (de-noising)."""
    w = np.where(sim >= tau, sim, 0.0)
    return np.maximum(w, 0.0)


def table_union_score(sim: np.ndarray, tau: float) -> float:
    """U(S,T): exact verification (the ``Verify`` of Alg. 3).

    No matching uses two edges of one row, so Σ row maxima bounds every
    matching; when the rows' heaviest edges go to distinct columns they are
    themselves a matching, and that sum is the optimum.
    """
    w = threshold_edges(sim, tau)
    if not w.any():
        return 0.0
    best = w.argmax(axis=1)
    rows = np.flatnonzero(w[np.arange(len(best)), best])
    cols = best[rows]
    if len(set(cols.tolist())) == len(cols):
        return float(w[rows, cols].sum(dtype=np.float64))
    score, _ = hungarian_max(w)
    return score


def _sorted_edges(sim: np.ndarray, tau: float) -> list[tuple[float, int, int]]:
    ii, jj = np.nonzero(sim >= tau)
    edges = [(float(sim[i, j]), int(i), int(j)) for i, j in zip(ii, jj)]
    edges.sort(key=lambda e: -e[0])
    return edges


def upper_bound(sim: np.ndarray, tau: float) -> float:
    """UB on U(S,T): a matching takes at most one τ-edge per row and one per
    column, so neither Σ row maxima nor Σ column maxima can be beaten.

    The paper's greedy UB (§4.3) adds edges by descending weight until one
    side is covered; this bound never exceeds it.
    """
    w = threshold_edges(sim, tau)
    return float(min(w.max(axis=1, initial=0.0).sum(dtype=np.float64),
                     w.max(axis=0, initial=0.0).sum(dtype=np.float64)))


def lower_bound(sim: np.ndarray, tau: float) -> float:
    """Greedy LB (§4.3): maximal matching by descending weight."""
    used_s: set[int] = set()
    used_t: set[int] = set()
    total = 0.0
    for w, i, j in _sorted_edges(sim, tau):
        if i in used_s or j in used_t:
            continue
        total += w
        used_s.add(i)
        used_t.add(j)
    return total
