"""Column clustering case study (paper §5.5, Tables 9/10).

From column embeddings we build a similarity graph (edges between
columns with cosine ≥ θ, paper uses θ=0.6) and cluster via connected
components. The dense pairwise similarity is a blocked numpy GEMM on
the driver (a few thousand columns); the connected-components step runs
as iterative Spark DataFrame min-label propagation so it scales with
the edge list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

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


def connected_components(
    spark: SparkSession, edges: list[tuple[int, int]], n_nodes: int, max_iter: int = 50
) -> dict[int, int]:
    """Min-label propagation over a Spark DataFrame until fixpoint."""
    nodes = spark.createDataFrame(
        pd.DataFrame({"node": np.arange(n_nodes, dtype=np.int64)})
    ).withColumn("comp", F.col("node"))
    if not edges:
        return {int(r["node"]): int(r["comp"]) for r in nodes.collect()}
    e = pd.DataFrame(edges, columns=["src", "dst"])
    # symmetric edge list
    edf = spark.createDataFrame(
        pd.concat([e, e.rename(columns={"src": "dst", "dst": "src"})], ignore_index=True)
    ).cache()
    nodes = nodes.localCheckpoint(eager=True)
    for _ in range(max_iter):
        neigh_min = (
            edf.join(nodes, edf.dst == nodes.node)
            .groupBy("src")
            .agg(F.min("comp").alias("nmin"))
        )
        updated = (
            nodes.join(neigh_min, nodes.node == neigh_min.src, "left")
            .select(
                "node",
                F.least(F.col("comp"), F.coalesce("nmin", F.col("comp"))).alias("comp"),
            )
        # localCheckpoint truncates the lineage: without it each iteration
        # nests the previous plan and Catalyst planning blows up
        ).localCheckpoint(eager=True)
        changed = (
            updated.alias("u")
            .join(nodes.alias("o"), "node")
            .where(F.col("u.comp") != F.col("o.comp"))
            .count()
        )
        nodes = updated
        if changed == 0:
            break
    out = {int(r["node"]): int(r["comp"]) for r in nodes.collect()}
    edf.unpersist()
    return out


def union_find_components(edges: list[tuple[int, int]], n_nodes: int) -> dict[int, int]:
    """Driver-side union-find — exact same semantics as the Spark CC.

    Used for cheap θ-grid scouting; the distributed label-propagation CC
    is used for the final clustering run (and is property-tested against
    this implementation).
    """
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
    return {i: find(i) for i in range(n_nodes)}


@dataclass
class ClusteringResult:
    n_clusters: int
    avg_size: float
    purity: float


def cluster_columns(
    spark: SparkSession,
    emb_df: DataFrame,
    *,
    theta: float = 0.6,
    use_spark: bool = True,
) -> ClusteringResult:
    """The full Table 10 pipeline: graph → components → purity vs sem_type."""
    rows = emb_df.select("table_id", "col_idx", "sem_type", "emb").collect()
    ids = [f"{r['table_id']}#{r['col_idx']}" for r in rows]
    labels = {i: r["sem_type"] for i, r in zip(ids, rows)}
    vecs = np.asarray([r["emb"] for r in rows], dtype=np.float32)
    edges = similarity_edges(vecs, theta)
    if use_spark:
        comp = connected_components(spark, edges, len(ids))
    else:
        comp = union_find_components(edges, len(ids))
    assignment = {ids[i]: comp[i] for i in range(len(ids))}
    sizes: dict[int, int] = {}
    for c in assignment.values():
        sizes[c] = sizes.get(c, 0) + 1
    n = len(sizes)
    avg = len(assignment) / n if n else 0.0
    return ClusteringResult(
        n_clusters=n, avg_size=avg, purity=purity(assignment, labels)
    )
