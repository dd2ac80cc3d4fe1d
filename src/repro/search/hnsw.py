"""HNSW index (paper §4.2; Malkov & Yashunin [34]) built from scratch.

Hierarchical navigable small world graph over cosine distance
(``1 − dot`` on unit vectors): nodes get a geometric random level
(``⌊−ln U · mL⌋``, ``mL = 1/ln M``); insertion greedily descends from
the entry point to the node's level, then runs an ef-bounded beam
search per layer to pick ``M`` neighbors (bidirectional, degree-pruned
to ``M_max``). Queries descend greedily to layer 0 and beam-search with
``ef_search``. No external ANN library exists in this container.
"""
from __future__ import annotations

import heapq

import numpy as np


class HNSW:
    def __init__(self, dim: int, *, M: int = 8, ef_construction: int = 64, seed: int = 0):
        self.dim = dim
        self.M = M
        self.M_max0 = 2 * M
        self.ef_construction = ef_construction
        self.mL = 1.0 / np.log(M)
        self._g = np.random.default_rng(seed)
        self.vecs = np.zeros((0, dim), dtype=np.float32)
        self.links: list[list[list[int]]] = []  # node -> level -> neighbor ids
        self.entry: int = -1
        self.max_level: int = -1

    # -- internals ---------------------------------------------------------
    def _dist(self, q: np.ndarray, ids: list[int]) -> np.ndarray:
        return 1.0 - self.vecs[ids] @ q

    def _search_layer(self, q: np.ndarray, eps: list[int], ef: int, level: int) -> list[tuple[float, int]]:
        """Beam search on one layer; returns up to ef (dist, id) sorted asc."""
        d0 = self._dist(q, eps)
        visited = set(eps)
        cand = [(float(d), e) for d, e in zip(d0, eps)]
        heapq.heapify(cand)  # min-heap by distance
        best = [(-float(d), e) for d, e in zip(d0, eps)]
        heapq.heapify(best)  # max-heap (neg dist)
        while len(best) > ef:
            heapq.heappop(best)
        while cand:
            d, c = heapq.heappop(cand)
            if best and d > -best[0][0] and len(best) >= ef:
                break
            neigh = [n for n in self.links[c][level] if n not in visited]
            if not neigh:
                continue
            visited.update(neigh)
            dn = self._dist(q, neigh)
            worst = -best[0][0] if best else np.inf
            for dd, n in zip(dn, neigh):
                dd = float(dd)
                if len(best) < ef or dd < worst:
                    heapq.heappush(cand, (dd, n))
                    heapq.heappush(best, (-dd, n))
                    if len(best) > ef:
                        heapq.heappop(best)
                    worst = -best[0][0]
        out = [(-d, n) for d, n in best]
        out.sort()
        return out

    def _select_neighbors(self, cands: list[tuple[float, int]], m: int) -> list[int]:
        return [n for _, n in cands[:m]]

    # -- API ----------------------------------------------------------------
    def add_batch(self, vecs: np.ndarray) -> None:
        vecs = np.asarray(vecs, dtype=np.float32)
        grow = np.zeros((self.vecs.shape[0] + vecs.shape[0], self.dim), dtype=np.float32)
        grow[: self.vecs.shape[0]] = self.vecs
        grow[self.vecs.shape[0] :] = vecs
        start = self.vecs.shape[0]
        self.vecs = grow
        for i in range(vecs.shape[0]):
            self._insert(start + i)

    def _insert(self, node: int) -> None:
        level = int(-np.log(max(self._g.random(), 1e-12)) * self.mL)
        self.links.append([[] for _ in range(level + 1)])
        q = self.vecs[node]
        if self.entry < 0:
            self.entry = node
            self.max_level = level
            return
        ep = [self.entry]
        for lv in range(self.max_level, level, -1):
            ep = [self._search_layer(q, ep, 1, lv)[0][1]]
        for lv in range(min(level, self.max_level), -1, -1):
            cands = self._search_layer(q, ep, self.ef_construction, lv)
            m_max = self.M_max0 if lv == 0 else self.M
            neighbors = self._select_neighbors(cands, self.M)
            self.links[node][lv] = list(neighbors)
            for n in neighbors:
                ln = self.links[n][lv]
                ln.append(node)
                if len(ln) > m_max:
                    d = self._dist(self.vecs[n], ln)
                    keep = np.argsort(d)[:m_max]
                    self.links[n][lv] = [ln[i] for i in keep]
            ep = [n for _, n in cands]
        if level > self.max_level:
            self.max_level = level
            self.entry = node

    def search(self, q: np.ndarray, k: int, ef: int) -> list[tuple[int, float]]:
        """Top-k (id, cosine-similarity) approximate nearest neighbors, from a
        beam of width ``max(ef, k)``."""
        if self.entry < 0:
            return []
        q = np.asarray(q, dtype=np.float32)
        ef = max(ef, k)
        ep = [self.entry]
        for lv in range(self.max_level, 0, -1):
            ep = [self._search_layer(q, ep, 1, lv)[0][1]]
        res = self._search_layer(q, ep, ef, 0)
        return [(n, 1.0 - d) for d, n in res[:k]]

    def memory_bytes(self) -> int:
        b = self.vecs.nbytes
        for node_links in self.links:
            for ln in node_links:
                b += 8 * len(ln) + 56
        return b
