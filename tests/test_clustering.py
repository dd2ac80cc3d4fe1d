"""Similarity graph + connected components + purity (Table 10 machinery)."""
from collections import deque

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.eval.clustering import (
    cluster_columns,
    collect_columns,
    connected_components,
    similarity_edges,
)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def bfs_reference(edges, n):
    """Breadth-first search from each unvisited node in id order, so every
    node is labelled by the smallest node id of its component."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    for s in range(n):
        if label[s] != -1:
            continue
        label[s] = s
        todo = deque([s])
        while todo:
            for v in adj[todo.popleft()]:
                if label[v] == -1:
                    label[v] = s
                    todo.append(v)
    return label


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 120), st.integers(0, 120), st.floats(0, 2), st.integers(0, 2**32 - 1))
@example(n=60, chain_len=60, edge_ratio=0.0, seed=0)
def test_components_match_bfs_reference(n, chain_len, edge_ratio, seed):
    """Random graphs, each with a path through ``chain_len`` shuffled nodes
    (up to 120, so chains far longer than 50 nodes are common), plus random
    edges in either orientation, self-loops and duplicates included."""
    g = np.random.default_rng(seed)
    order = g.permutation(n)[: min(chain_len, n)].tolist()
    edges = list(zip(order, order[1:]))
    edges += [tuple(e) for e in g.integers(0, n, size=(int(edge_ratio * n), 2)).tolist()]
    edges = [edges[i] for i in g.permutation(len(edges))]
    assert connected_components(edges, n) == bfs_reference(edges, n)


def test_no_edges_all_singletons():
    assert connected_components([], 5) == [0, 1, 2, 3, 4]


def test_chain_single_component():
    edges = [(i, i + 1) for i in range(59)]
    assert connected_components(edges, 60) == [0] * 60


def test_similarity_edges_threshold():
    g = np.random.default_rng(0)
    a = unit(g.normal(size=8))
    vecs = np.stack([a, a, -a]).astype(np.float32)
    edges = similarity_edges(vecs, 0.9)
    assert (0, 1) in edges
    assert (0, 2) not in edges and (1, 2) not in edges


def test_similarity_edges_no_self_loops():
    vecs = unit(np.random.default_rng(1).normal(size=(10, 4))).astype(np.float32)
    edges = similarity_edges(vecs, -1.0)
    assert all(i < j for i, j in edges)
    assert len(edges) == 45  # complete graph at θ=-1


def test_similarity_edges_blocked_equals_unblocked():
    vecs = unit(np.random.default_rng(2).normal(size=(50, 8))).astype(np.float32)
    assert sorted(similarity_edges(vecs, 0.3, block=7)) == sorted(
        similarity_edges(vecs, 0.3, block=1024)
    )


def test_cluster_columns_counts_and_purity():
    """Two tight groups of three columns; one column in each carries a
    minority label, so purity is 4/6."""
    a, b = np.eye(4, dtype=np.float32)[:2]
    vecs = np.stack([a, a, a, b, b, b])
    labels = ["x", "x", "y", "z", "z", "x"]
    res = cluster_columns(vecs, labels, theta=0.9)
    assert (res.n_clusters, res.avg_size) == (2, 3.0)
    assert res.purity == 4 / 6
    assert cluster_columns(vecs, labels, theta=1.5).n_clusters == 6


def test_cluster_columns_end_to_end(prep_santos):
    from repro.experiments.common import method_embeddings_df

    vecs, labels = collect_columns(method_embeddings_df(prep_santos, "sherlock"))
    assert len(vecs) == len(labels) == len(prep_santos.lake.rows)
    res = cluster_columns(vecs, labels, theta=0.95)
    assert res.n_clusters > 0
    assert 0.0 <= res.purity <= 1.0
    assert res.avg_size >= 1.0
