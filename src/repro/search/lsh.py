"""simHash LSH index for cosine similarity (paper §4.2, Charikar [8]).

Random-hyperplane signatures: a vector's b-bit signature has bit ``t``
set iff it lies on the positive side of hyperplane ``t``; the collision
probability of two vectors is ``1 − θ/π`` per bit. We band the bits into
``n_tables`` independent hash tables (the standard LSH banding scheme
used by the table-search systems the paper cites); a query's candidates
are the union of its buckets across tables.

Each table is held as sorted arrays (a compressed-sparse-row layout):
the ids ordered by bucket key with a stable sort, the table's distinct
keys, and each bucket's start offset. A build is one projection product
for every table and bit, and one argsort per table.
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
        self._proj = self.planes.reshape(n_tables * n_bits, dim).T
        # A key packs one table's bits (bit i weighs 2**i) into the smallest
        # unsigned type that holds 2**n_bits - 1, so the packing is exact.
        self._key_dtype = np.min_scalar_type((1 << n_bits) - 1)
        self._weights = (np.uint64(1) << np.arange(n_bits, dtype=np.uint64)).astype(self._key_dtype)
        # Per table: ids in bucket-key order (one row of _ids), the distinct
        # keys ascending, and the buckets' start offsets followed by n_items.
        self._ids = np.zeros((n_tables, 0), dtype=np.int64)
        self._keys = [np.zeros(0, dtype=self._key_dtype) for _ in range(n_tables)]
        self._starts = [np.zeros(1, dtype=np.intp) for _ in range(n_tables)]
        self.n_items = 0

    def _signatures(self, vecs: np.ndarray) -> np.ndarray:
        """(n_tables, n) bucket keys of a batch of vectors."""
        bits = (vecs @ self._proj) > 0
        bits = bits.reshape(len(vecs), self.n_tables, self.n_bits)
        return (bits.astype(self._key_dtype) @ self._weights).T

    def add(self, ids: np.ndarray, vecs: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if not len(ids):
            return
        keys = self._signatures(np.asarray(vecs, dtype=np.float32).reshape(len(ids), self.dim))
        ids = np.broadcast_to(ids, keys.shape)
        if self.n_items:
            # Earlier ids come first, so each bucket keeps insertion order.
            old = [np.repeat(k, np.diff(s)) for k, s in zip(self._keys, self._starts)]
            keys = np.concatenate([np.stack(old), keys], axis=1)
            ids = np.concatenate([self._ids, ids], axis=1)
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        self._ids = np.take_along_axis(ids, order, axis=1)
        self.n_items = keys.shape[1]
        self._keys, self._starts = [], []
        for row in keys:
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            self._keys.append(row[starts])
            self._starts.append(np.append(starts, self.n_items))

    def query(self, vecs: np.ndarray) -> list[int]:
        """Ids in any bucket of any query vector, across all hash tables,
        ascending. ``vecs`` is one vector or a matrix with one per row."""
        vecs = np.asarray(vecs, dtype=np.float32).reshape(-1, self.dim)
        if not self.n_items or not len(vecs):
            return []
        keys = self._signatures(vecs)
        hits = []
        for t in range(self.n_tables):
            uniq, starts = self._keys[t], self._starts[t]
            j = np.searchsorted(uniq, keys[t])
            j = np.unique(j[uniq[np.minimum(j, len(uniq) - 1)] == keys[t]])
            hits.extend(self._ids[t, a:b] for a, b in zip(starts[j], starts[j + 1]))
        return np.unique(np.concatenate(hits)).tolist() if hits else []

    def memory_bytes(self) -> int:
        """Bytes of the hyperplanes and the bucket arrays."""
        return (self.planes.nbytes + self._ids.nbytes
                + sum(k.nbytes + s.nbytes for k, s in zip(self._keys, self._starts)))
