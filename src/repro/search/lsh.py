"""simHash LSH index for cosine similarity (paper §4.2, Charikar [8]).

Random-hyperplane signatures: a vector's b-bit signature has bit ``t``
set iff it lies on the positive side of hyperplane ``t``; the collision
probability of two vectors is ``1 − θ/π`` per bit. We band the bits into
``n_tables`` independent hash tables (the standard LSH banding scheme
used by the table-search systems the paper cites); a query's candidates
are the union of its buckets across tables.
"""
from __future__ import annotations

import numpy as np


class SimHashLSH:
    def __init__(self, dim: int, *, n_tables: int = 8, n_bits: int = 12, seed: int = 0):
        g = np.random.default_rng(seed)
        self.dim = dim
        self.n_tables = n_tables
        self.n_bits = n_bits
        # (n_tables, n_bits, dim) hyperplanes
        self.planes = g.normal(size=(n_tables, n_bits, dim)).astype(np.float32)
        self.tables: list[dict[int, list[int]]] = [dict() for _ in range(n_tables)]
        self._weights = (1 << np.arange(n_bits)).astype(np.int64)
        self.n_items = 0

    def _signatures(self, vecs: np.ndarray) -> np.ndarray:
        """(n, n_tables) bucket keys for a batch of vectors."""
        out = np.empty((vecs.shape[0], self.n_tables), dtype=np.int64)
        for t in range(self.n_tables):
            bits = (vecs @ self.planes[t].T) > 0
            out[:, t] = bits @ self._weights
        return out

    def add(self, ids: np.ndarray, vecs: np.ndarray) -> None:
        sigs = self._signatures(np.asarray(vecs, dtype=np.float32))
        ids = np.asarray(ids).tolist()  # one int object per id, shared by every table
        for t, tab in enumerate(self.tables):
            for i, key in zip(ids, sigs[:, t].tolist()):
                tab.setdefault(key, []).append(i)
        self.n_items += len(ids)

    def query(self, vec: np.ndarray) -> list[int]:
        """Union of the query's buckets across all hash tables."""
        sigs = self._signatures(vec.reshape(1, -1).astype(np.float32))[0]
        out: set[int] = set()
        for t in range(self.n_tables):
            out.update(self.tables[t].get(int(sigs[t]), ()))
        return list(out)

    def memory_bytes(self) -> int:
        b = self.planes.nbytes
        for tab in self.tables:
            b += 64 * len(tab)  # dict entry overhead estimate
            for v in tab.values():
                b += 8 * len(v)
        return b
