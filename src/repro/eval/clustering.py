"""Column clustering case study (paper §5.5, Tables 9/10).

From a method's vector store we build a similarity graph (edges between
columns with cosine ≥ θ, paper uses θ=0.6) and cluster via connected
components, then score the clusters' purity against the lake's
``sem_type`` labels. Graph and components are built on the driver: the
pairwise similarity is a blocked numpy GEMM over a few thousand columns,
and the components come from one union-find pass over its edge list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..search.engine import TableStore
from .metrics import purity


def similarity_edges(vecs: np.ndarray, theta: float, block: int = 1024) -> list[tuple[int, int]]:
    """Undirected edges (i<j) with cosine ≥ θ, computed block-wise."""
    n = vecs.shape[0]
    edges: list[tuple[int, int]] = []
    for s in range(0, n, block):
        sim = vecs[s : s + block] @ vecs.T
        ii, jj = np.nonzero(sim >= theta)
        for i, j in zip(ii.tolist(), jj.tolist()):
            gi = s + i
            if gi < j:
                edges.append((gi, j))
    return edges


def connected_components(edges: list[tuple[int, int]], n_nodes: int) -> list[int]:
    """Union-find: each node's component, labelled by its smallest node id."""
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(n_nodes)]


@dataclass
class ClusteringResult:
    n_clusters: int
    avg_size: float
    purity: float


def column_labels(store: TableStore, tables: dict[str, list[dict]]) -> list[str]:
    """Each stored column's ``sem_type`` from ``tables`` (``Lake.tables()``),
    in ``store.flat()`` order: both list a table's columns by ``col_idx``."""
    return [c["sem_type"] for tid in store.table_ids for c in tables[tid]]


def cluster_columns(vecs: np.ndarray, labels: list[str], *, theta: float) -> ClusteringResult:
    """The Table 10 pipeline: graph at θ → components → purity vs sem_type."""
    comp = connected_components(similarity_edges(vecs, theta), len(labels))
    n = len(set(comp))
    avg = len(comp) / n if n else 0.0
    return ClusteringResult(
        n_clusters=n, avg_size=avg,
        purity=purity(dict(enumerate(comp)), dict(enumerate(labels))),
    )
