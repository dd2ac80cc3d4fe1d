"""Online query processing (paper Algorithm 3, §4).

``SearchEngine`` implements the filter-and-verification framework with
the paper's four design choices:

- ``linear``  — scan every lake table, exact verification each time;
- ``pruning`` — scan every table, drop those with no τ-edge, and verify
  the rest in descending ``upper_bound`` order, stopping once the bound
  cannot beat the k-th score. The bound is ≥ the exact score, so the
  result equals linear's (the paper's Table 5: same effectiveness);
- ``lsh``     — candidates from a simHash LSH index, one lookup for all
  query columns;
- ``hnsw``    — candidates from an HNSW index per query column.

``lsh`` and ``hnsw`` verify their candidates the way ``pruning`` does.
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
# lower_bound is not called here; starbench's tracer wraps it by this
# module's name until ROADMAP item 11 changes the traced names.
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
        return cls.from_arrays({tid: [emb for _, emb in sorted(cols)]
                                for tid, cols in grouped.items()})

    @classmethod
    def from_arrays(cls, mats: dict[str, np.ndarray]) -> "TableStore":
        mats = {t: np.asarray(m, dtype=np.float32) for t, m in mats.items()}
        dim = next(iter(mats.values())).shape[1] if mats else 0
        return cls(table_ids=sorted(mats), mats=mats, dim=dim)

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Every column in table order, and each row's table position in
        ``table_ids``."""
        mats = [self.mats[tid] for tid in self.table_ids]
        return (
            np.vstack(mats) if mats else np.zeros((0, self.dim), dtype=np.float32),
            np.repeat(np.arange(len(mats)), [m.shape[0] for m in mats]),
        )

    def memory_bytes(self) -> int:
        return sum(m.nbytes for m in self.mats.values())


@dataclass
class QueryStats:
    n_candidates: int = 0
    n_verifications: int = 0
    n_ub_prunes: int = 0  # candidates not verified: no τ-edge, or UB ≤ the k-th score
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
    _index: object = field(init=False, default=None, repr=False)
    _owner_pos: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; one of {MODES}")
        if self.mode in ("lsh", "hnsw"):
            vecs, self._owner_pos = self.store.flat()
            if self.mode == "lsh":
                idx = SimHashLSH(self.store.dim)
                idx.add(np.arange(len(vecs)), vecs)
            else:
                idx = HNSW(self.store.dim)
                idx.add_batch(vecs)
            self._index = idx

    # -- findCandidates (§4.2) ---------------------------------------------
    def _find_candidates(self, q_mat: np.ndarray) -> list[str]:
        if self.mode in ("linear", "pruning") or not self.store.table_ids:
            return self.store.table_ids
        if self.mode == "lsh":
            ids = self._index.query(q_mat)
        else:
            ids = [cid for s in q_mat
                   for cid, sim in self._index.search(s, self.n_neighbors, ef=HNSW_EF_SEARCH)
                   if sim >= self.tau]
        pos = np.unique(self._owner_pos[np.asarray(ids, dtype=np.intp)])
        return [self.store.table_ids[p] for p in pos.tolist()]

    # -- Algorithm 3 ---------------------------------------------------------
    def query(
        self, q: np.ndarray | str, k: int = 10
    ) -> tuple[list[tuple[str, float]], QueryStats]:
        """Top-k unionable tables for a query table id or column matrix.

        The result is the first ``k`` candidates in (score desc,
        ``table_id`` asc) order among those scoring above 0, so it holds
        fewer than ``k`` tables when fewer score, and none on an empty
        store. A query given by table id stays in the lake and can rank
        itself, as in the paper. ``k`` below 1 raises ``ValueError``.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if isinstance(q, str):
            q_mat = self.store.mats[q]
        else:
            q_mat = np.asarray(q, dtype=np.float32)
        stats = QueryStats()
        t0 = time.perf_counter()
        cands = self._find_candidates(q_mat)
        stats.n_candidates = len(cands)
        # Linear verifies every candidate in table_id order. The other modes
        # skip tables without a τ-edge and verify the rest by descending
        # UB, then position (table_id order).
        bounded = self.mode != "linear"
        todo = []
        for pos, tid in enumerate(cands):
            sim = q_mat @ self.store.mats[tid].T
            if not bounded:
                todo.append((0.0, pos, sim))
            elif sim.size and sim.max() >= self.tau:
                todo.append((-upper_bound(sim, self.tau), pos, sim))
        todo.sort(key=lambda e: e[:2])
        # Min-heap of (score, -position): its top is the entry that leaves
        # the top-k first, and a table enters a full heap only by beating it
        # as a whole tuple, so ties keep the smaller table_ids. Once a
        # table's (UB, -position) cannot beat the top, neither can its score
        # nor any later table's, as UB never falls below the exact score.
        heap: list[tuple[float, int]] = []
        for neg_ub, pos, sim in todo:
            full = len(heap) == k
            if bounded and full and (-neg_ub, -pos) <= heap[0]:
                break
            stats.n_verifications += 1
            score = table_union_score(sim, self.tau)
            if full:
                if (score, -pos) > heap[0]:
                    heapq.heapreplace(heap, (score, -pos))
            elif score > 0:
                heapq.heappush(heap, (score, -pos))
        stats.n_ub_prunes = len(cands) - stats.n_verifications
        stats.seconds = time.perf_counter() - t0
        return [(cands[-p], s) for s, p in sorted(heap, reverse=True)], stats

    def memory_bytes(self) -> int:
        b = self.store.memory_bytes()
        if self._index is not None:
            b += self._index.memory_bytes()
        return b
