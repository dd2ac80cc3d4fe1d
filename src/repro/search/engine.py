"""Online query processing (paper Algorithm 3, §4).

``SearchEngine`` implements the filter-and-verification framework with
the paper's four design choices:

- ``linear``  — scan every lake table, exact verification each time;
- ``pruning`` — scan every table, but discard on ``UB ≤ X`` and use
  ``LB > X`` as a guaranteed-accept signal (we still verify accepted
  tables so the final scores are exact — this keeps Pruning's
  effectiveness identical to Linear, exactly what the paper's Table 5
  reports — while preserving the UB-discard savings that dominate);
- ``lsh``     — candidates from a simHash LSH index per query column;
- ``hnsw``    — candidates from an HNSW index per query column.

Verification = exact max-weight bipartite matching on the τ-thresholded
cosine graph. Results are a min-heap top-k (Definition 2.1).
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from .hnsw import HNSW
from .lsh import SimHashLSH
from .matching import lower_bound, table_union_score, upper_bound

MODES = ("linear", "pruning", "lsh", "hnsw")

# HNSW beam width per query column (efSearch, §4.2).
HNSW_EF_SEARCH = 48


@dataclass
class TableStore:
    """Normalized column-embedding matrices per table (the vector store)."""

    table_ids: list[str]
    mats: dict[str, np.ndarray]
    dim: int

    @classmethod
    def from_embeddings_df(cls, emb_df: DataFrame) -> "TableStore":
        rows = emb_df.select("table_id", "col_idx", "emb").collect()
        grouped: dict[str, list] = {}
        for r in rows:
            grouped.setdefault(r["table_id"], []).append((r["col_idx"], r["emb"]))
        mats = {}
        for tid, cols in grouped.items():
            cols.sort()
            m = np.asarray([c[1] for c in cols], dtype=np.float32)
            mats[tid] = m
        dim = next(iter(mats.values())).shape[1] if mats else 0
        return cls(table_ids=sorted(mats), mats=mats, dim=dim)

    @classmethod
    def from_arrays(cls, mats: dict[str, np.ndarray]) -> "TableStore":
        mats = {t: np.asarray(m, dtype=np.float32) for t, m in mats.items()}
        dim = next(iter(mats.values())).shape[1] if mats else 0
        return cls(table_ids=sorted(mats), mats=mats, dim=dim)

    def flat(self) -> tuple[np.ndarray, list[str]]:
        vecs, owners = [], []
        for tid in self.table_ids:
            m = self.mats[tid]
            vecs.append(m)
            owners.extend([tid] * m.shape[0])
        return (
            np.vstack(vecs) if vecs else np.zeros((0, self.dim), dtype=np.float32),
            owners,
        )

    def memory_bytes(self) -> int:
        return sum(m.nbytes for m in self.mats.values())


@dataclass
class QueryStats:
    n_candidates: int = 0
    n_verifications: int = 0
    n_ub_prunes: int = 0
    n_lb_accepts: int = 0
    seconds: float = 0.0


@dataclass
class SearchEngine:
    """Algorithm 3 over a ``TableStore``.

    The indexes are built on ``SimHashLSH``'s and ``HNSW``'s own defaults;
    ``n_neighbors`` HNSW hits per query column, searched with beam width
    ``HNSW_EF_SEARCH``, become candidates when their cosine is ≥ τ.
    """

    store: TableStore
    mode: str = "linear"
    tau: float = 0.6
    n_neighbors: int = 24
    seed: int = 0
    _index: object = field(init=False, default=None, repr=False)
    _owners: list[str] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self):
        assert self.mode in MODES, self.mode
        if self.mode in ("lsh", "hnsw"):
            vecs, owners = self.store.flat()
            self._owners = owners
            if self.mode == "lsh":
                idx = SimHashLSH(self.store.dim, seed=self.seed)
                idx.add(np.arange(len(owners)), vecs)
            else:
                idx = HNSW(self.store.dim, seed=self.seed)
                idx.add_batch(vecs)
            self._index = idx

    # -- findCandidates (§4.2) ---------------------------------------------
    def _find_candidates(self, q_mat: np.ndarray) -> list[str]:
        if self.mode in ("linear", "pruning"):
            return self.store.table_ids
        cands: set[str] = set()
        for s in q_mat:
            if self.mode == "lsh":
                for cid in self._index.query(s):
                    cands.add(self._owners[cid])
            else:
                for cid, sim in self._index.search(s, self.n_neighbors, ef=HNSW_EF_SEARCH):
                    if sim >= self.tau:
                        cands.add(self._owners[cid])
        return sorted(cands)

    # -- Algorithm 3 ---------------------------------------------------------
    def query(
        self, q: np.ndarray | str, k: int = 10, exclude_self: str | None = None
    ) -> tuple[list[tuple[str, float]], QueryStats]:
        """Top-k unionable tables for a query table id or column matrix.

        A query given by table id stays in the lake and can rank itself,
        as in the paper; ``exclude_self`` names a table to leave out.
        """
        if isinstance(q, str):
            q_mat = self.store.mats[q]
        else:
            q_mat = np.asarray(q, dtype=np.float32)
        stats = QueryStats()
        t0 = time.perf_counter()
        cands = self._find_candidates(q_mat)
        if exclude_self is not None:
            cands = [t for t in cands if t != exclude_self]
        stats.n_candidates = len(cands)
        use_bounds = self.mode != "linear"
        heap: list[tuple[float, str]] = []  # min-heap of (score, tid)
        for tid in cands:
            sim = q_mat @ self.store.mats[tid].T
            if len(heap) < k:
                stats.n_verifications += 1
                heapq.heappush(heap, (table_union_score(sim, self.tau), tid))
                continue
            x = heap[0][0]
            if use_bounds:
                if upper_bound(sim, self.tau) <= x:
                    stats.n_ub_prunes += 1
                    continue
                if lower_bound(sim, self.tau) > x:
                    stats.n_lb_accepts += 1
                    stats.n_verifications += 1
                    heapq.heapreplace(heap, (table_union_score(sim, self.tau), tid))
                    continue
            stats.n_verifications += 1
            score = table_union_score(sim, self.tau)
            if score > x:
                heapq.heapreplace(heap, (score, tid))
        stats.seconds = time.perf_counter() - t0
        ranked = sorted(heap, key=lambda e: (-e[0], e[1]))
        return [(tid, s) for s, tid in ranked], stats

    def memory_bytes(self) -> int:
        b = self.store.memory_bytes()
        if self._index is not None:
            b += self._index.memory_bytes()
        return b
