"""Shared feature blocks for the non-contrastive baseline encoders.

Each baseline (Sherlock, SATO, D3L) is reduced — as in the paper's
experiment design — to a dense column vector consumed by the *same*
search machinery as Starmie (Table 8 applies Linear/Pruning/LSH/HNSW to
every method). We build each method's vector as a concatenation of
L2-normalized feature *blocks*, each scaled by a weight with
``Σ w² = 1``; the cosine of two such vectors is then exactly the
weighted average of the per-block cosines — which is how D3L ensembles
per-feature distances.

Blocks:
- ``stats``    — column statistics (Sherlock's global statistics group)
- ``char``     — character distribution over [a-z0-9]
- ``format``   — regex-pattern histogram (D3L's formatting feature)
- ``emb``      — mean word-embedding of the column's tokens
- ``hashset``  — hashed distinct-token set (D3L's value-overlap feature:
  the cosine of two hashed set vectors estimates set cosine overlap)
- ``topic``    — table-level context vector (SATO's LDA stand-in): the
  mean of the table's per-column ``emb`` blocks
"""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..core.encoder import EMB_SCHEMA, Embedder

_ALPHANUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_CHAR_IDX = {c: i for i, c in enumerate(_ALPHANUM)}
_PAT_RUNS = re.compile(r"[A-Z]+|[a-z]+|[0-9]+|[^A-Za-z0-9]+")


def _l2(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 1e-12 else v


def _hash_idx(s: str, dim: int) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:4], "little") % dim


def stats_block(cells: list[str], tokens: list[str]) -> np.ndarray:
    lens = np.array([len(c) for c in cells if c], dtype=float)
    if lens.size == 0:
        lens = np.zeros(1)
    n = max(1, len(cells))
    joined = "".join(cells)
    total_chars = max(1, len(joined))
    digits = sum(ch.isdigit() for ch in joined)
    alphas = sum(ch.isalpha() for ch in joined)
    numeric_cells = sum(
        1 for c in cells if c and c.replace(".", "", 1).replace("-", "", 1).isdigit()
    )
    feats = np.array(
        [
            lens.mean() / 40.0,
            lens.std() / 20.0,
            numeric_cells / n,
            len(set(cells)) / n,
            sum(1 for c in cells if not c) / n,
            len(tokens) / (4.0 * n),
            digits / total_chars,
            alphas / total_chars,
        ]
    )
    return _l2(np.clip(feats, 0, 3))


def char_block(cells: list[str]) -> np.ndarray:
    v = np.zeros(len(_ALPHANUM))
    for c in cells:
        for ch in c.lower():
            i = _CHAR_IDX.get(ch)
            if i is not None:
                v[i] += 1
    return _l2(v)


def pattern_signature(cell: str) -> str:
    out = []
    for run in _PAT_RUNS.findall(cell):
        ch = run[0]
        if ch.isupper():
            out.append("A")
        elif ch.islower():
            out.append("a")
        elif ch.isdigit():
            out.append("9" if len(run) < 4 else "9+")
        else:
            out.append(ch if ch in "./-:," else "_")
    return "".join(out)


def format_block(cells: list[str], dim: int = 16) -> np.ndarray:
    v = np.zeros(dim)
    for c in cells:
        if c:
            v[_hash_idx(pattern_signature(c), dim)] += 1
    return _l2(v)


def hashset_block(tokens: list[str], dim: int = 256) -> np.ndarray:
    v = np.zeros(dim)
    for t in set(tokens):
        v[_hash_idx(t, dim)] = 1.0
    return _l2(v)


def emb_block(tokens: list[str], embedder: Embedder) -> np.ndarray:
    return _l2(embedder.tokens_vec(tokens).astype(np.float64))


# ---------------------------------------------------------------------------
# Spark pass producing baseline embeddings in the common EMB_SCHEMA.
# ---------------------------------------------------------------------------

SPECS: dict[str, list[tuple[str, float]]] = {
    # (block, weight) lists; weights are squared-mass shares (Σ = 1).
    # Sherlock (Hulsebos et al. [21]): its feature groups — statistics,
    # character distribution, word embeddings — used directly as the column
    # vector, since its labelled semantic-type training set is not available
    # offline and the paper uses it as a representation, not a classifier.
    "sherlock": [("stats", 0.2), ("char", 0.2), ("emb", 0.6)],
    # SATO (Zhang et al. [54]): Sherlock plus table context from an LDA topic
    # model; the ``topic`` block stands in for it with a fixed (untrained)
    # context signal, so SATO has context but no contrastive training.
    "sato": [("stats", 0.15), ("char", 0.15), ("emb", 0.4), ("topic", 0.3)],
    # D3L (Bogatu et al. [2]): an ensemble of value-overlap, format,
    # word-embedding and distribution features; the column-name feature is
    # omitted, as in the paper, for fairness.
    "d3l": [("hashset", 0.3), ("format", 0.2), ("emb", 0.3), ("stats", 0.2)],
}


def feature_embeddings(
    tokens_df: DataFrame, embedder: Embedder, method: str
) -> DataFrame:
    """Compute a baseline's column vectors lake-wide (applyInPandas per table)."""
    spec = SPECS[method]
    spark = tokens_df.sparkSession
    vec_b = spark.sparkContext.broadcast(embedder.vectors)
    dim = embedder.dim

    def _per_table(pdf: pd.DataFrame) -> pd.DataFrame:
        emb = Embedder(vectors=vec_b.value, dim=dim)
        pdf = pdf.sort_values("col_idx")
        per_col: list[dict[str, np.ndarray]] = []
        for cells, cell_tokens in zip(pdf["cells"], pdf["cell_tokens"]):
            cells = list(cells)
            tokens = [t for ct in cell_tokens for t in ct]
            blocks = {
                "stats": stats_block(cells, tokens),
                "char": char_block(cells),
                "format": format_block(cells),
                "hashset": hashset_block(tokens),
                "emb": emb_block(tokens, emb),
            }
            per_col.append(blocks)
        if any(b == "topic" for b, _ in spec):
            topic = _l2(np.mean([c["emb"] for c in per_col], axis=0))
            for c in per_col:
                c["topic"] = topic
        out = []
        for (_, row), blocks in zip(pdf.iterrows(), per_col):
            v = np.concatenate([np.sqrt(w) * blocks[b] for b, w in spec])
            out.append(
                {
                    "table_id": row["table_id"],
                    "col_idx": int(row["col_idx"]),
                    "sem_type": row["sem_type"],
                    "domain": row["domain"],
                    "emb": _l2(v).astype(np.float32).tolist(),
                }
            )
        return pd.DataFrame(out)

    return tokens_df.groupBy("table_id").applyInPandas(_per_table, schema=EMB_SCHEMA)
