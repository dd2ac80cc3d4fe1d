"""Column encoders: corpus-pretrained token embeddings + contrastive training.

This is the substitution for the paper's RoBERTa-based encoder (see
DESIGN.md §2): we pre-train `pyspark.ml.feature.Word2Vec` on the
serialized lake columns (fully unsupervised, like the LM), pool token
vectors into per-column *base vectors*, and learn a linear-contextual
projection with the paper's exact contrastive objective (Alg. 1, Eq.
1–3) and a Table 1 augmentation operator per encoder:

    MultiColumnEncoder (Starmie):  z_c = norm(W1·b_c + W2·b_ctx(c))
    SingleColEncoder   (SingleCol baseline): z_c = norm(W·b_c)

where ``b_ctx(c)`` is the mean base vector of the *other* columns of the
same table — the contextualization path. Ablating ``W2`` yields exactly
the paper's SingleCol baseline, so the Starmie-vs-SingleCol comparison
measures precisely what the paper measures: the value of table context.

The lake is collected to the driver once per build
(``collect_table_views``), and both stages read those views. The
collected lake holds each distinct cell unit once: one float32 matrix of
(distinct units × d) unit vectors, which each column indexes with one row
per unit, so driver memory follows the lake's distinct cells, not its
cell count. Query tables (``table_view``) are interned the same way.
Training pools every column's base vector once and re-pools only the
columns ``sample_row`` rewrote; inference (``infer_embeddings``) runs
``encode_view`` on each collected table on the driver, the same
featurization and forward pass as training.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
from pyspark.ml.feature import Word2Vec
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .augment import ColumnView, TableView, Units, aligned_pairs, apply_op
from .contrastive import Adam, TAU_DEFAULT, loss_and_grad, normalize_rows


@dataclass
class Embedder:
    """Token → dense vector map (the pre-trained 'LM' substitute)."""

    vectors: dict[str, np.ndarray]
    dim: int

    def tokens_vec(self, tokens: list[str]) -> np.ndarray:
        acc = np.zeros(self.dim, dtype=np.float32)
        k = 0
        for t in tokens:
            v = self.vectors.get(t)
            if v is not None:
                acc += v
                k += 1
        return acc / k if k else acc

    def unit_vecs(self, units: list[list[str]]) -> np.ndarray:
        if not units:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.stack([self.tokens_vec(u) for u in units])


# Word2Vec pre-training: 64-d vectors over a window of 8, every token kept
# (min count 1), 2 iterations, seed 42.
W2V_DIM = 64
W2V_WINDOW = 8
W2V_MIN_COUNT = 1
W2V_MAX_ITER = 2
W2V_SEED = 42


def train_word2vec(prep_df: DataFrame) -> Embedder:
    """Pre-train token embeddings on the serialized lake (one sentence per column)."""
    sent = prep_df.select(F.flatten("units").alias("text")).where(F.size("text") > 0)
    w2v = Word2Vec(
        vectorSize=W2V_DIM,
        windowSize=W2V_WINDOW,
        minCount=W2V_MIN_COUNT,
        maxIter=W2V_MAX_ITER,
        seed=W2V_SEED,
        inputCol="text",
        outputCol="vec",
    )
    model = w2v.fit(sent)
    vecs = {
        r["word"]: np.asarray(r["vector"].toArray(), dtype=np.float32)
        for r in model.getVectors().collect()
    }
    return Embedder(vectors=vecs, dim=W2V_DIM)


def _intern(cols: pa.ListArray, embedder: Embedder) -> tuple[Units, list[np.ndarray]]:
    """Each distinct unit of ``cols`` once, and the rows of every column's units.

    ``cols`` holds one list of units (token lists) per column. Its tokens are
    dictionary-encoded, units of equal length are compared as rows of token
    ids, and each distinct unit is pooled once by ``Embedder.unit_vecs``, so
    every unit vector has the bits a unit-by-unit ``unit_vecs`` gives it.
    """
    units = cols.flatten()
    tokens = units.flatten().dictionary_encode()
    ids = tokens.indices.to_numpy()
    start = units.offsets.to_numpy()
    start = start - start[0]
    lens = np.diff(start)
    rows = np.empty(len(lens), dtype=np.int32)
    first: list[int] = []  # the first occurrence of each distinct unit, by row
    for n in np.unique(lens).tolist():
        at = np.flatnonzero(lens == n)
        _, i, inv = np.unique(ids[start[at, None] + np.arange(n)], axis=0,
                              return_index=True, return_inverse=True)
        rows[at] = inv + len(first)
        first.extend(at[i].tolist())
    vocab = tokens.dictionary.to_pylist()
    distinct = [[vocab[t] for t in ids[start[u] : start[u + 1]].tolist()] for u in first]
    col_start = cols.offsets.to_numpy()
    col_start = col_start - col_start[0]
    return (Units(distinct, embedder.unit_vecs(distinct)),
            np.split(rows, col_start[1:-1]))


def table_view(table_id: str, cols, embedder: Embedder) -> TableView:
    """One table as a ``TableView``: the ML study's query tables.

    ``cols`` yields ``(col_idx, units)`` per column, in column order. The
    table's units are interned as ``collect_table_views`` interns the lake's.
    """
    cols = list(cols)
    units = pa.array([u for _, u in cols], type=pa.list_(pa.list_(pa.string())))
    distinct, rows = _intern(units, embedder)
    return TableView(table_id, [ColumnView(int(i), r, distinct)
                                for (i, _), r in zip(cols, rows)])


def collect_table_views(prep_df: DataFrame, embedder: Embedder) -> dict[str, TableView]:
    """Collect the preprocessed lake to driver-side TableViews, once per build.

    Training and inference both read these views; ground-truth labels
    stay in the ``Lake``. The lake arrives as one Arrow table and each
    distinct unit is held once: one ``Units`` table of (distinct units × d)
    float32 vectors, which every column indexes with one int32 row per
    unit. Lakes repeat cell values, so that is small (``tus_large_lite``:
    4,635 distinct of 149,397 units); the encoder's two 64×64 matrices make
    a distributed optimizer pure overhead (see DESIGN.md §3).
    """
    lake = prep_df.select("table_id", "col_idx", "units").toArrow()
    distinct, rows = _intern(lake.column("units").combine_chunks(), embedder)
    grouped: dict[str, list[ColumnView]] = {}
    for tid, col_idx, r in zip(lake.column("table_id").to_pylist(),
                               lake.column("col_idx").to_pylist(), rows):
        grouped.setdefault(tid, []).append(ColumnView(col_idx, r, distinct))
    return {tid: TableView(tid, sorted(cs, key=lambda c: c.col_id))
            for tid, cs in grouped.items()}


def base_vectors(cols: list[ColumnView], dim: int) -> np.ndarray:
    """Per-column base vector: mean of the column's unit vectors."""
    b = np.zeros((len(cols), dim), dtype=np.float64)
    for i, c in enumerate(cols):
        if len(c.rows):
            b[i] = c.vecs.mean(axis=0)
    return b


def context_vectors(b: np.ndarray) -> np.ndarray:
    """Mean base vector of the *other* columns (zero for 1-column tables)."""
    m = b.shape[0]
    if m <= 1:
        return np.zeros_like(b)
    total = b.sum(axis=0, keepdims=True)
    return (total - b) / (m - 1)


class _PooledLake:
    """The base vector of every lake column, pooled once per ``train``.

    The original views never change, and ``drop_col`` only selects their
    columns, so a batch gathers its base vectors from here; only a column
    that ``sample_row`` rewrote (a new ``ColumnView`` object) is pooled
    again.
    """

    def __init__(self, tables: dict[str, TableView], dim: int):
        cols = [c for v in tables.values() for c in v.cols]
        # Keyed by object identity: ``tables`` keeps every lake column alive
        # for the whole ``train``, so no other object can share its id.
        self.row = {id(c): r for r, c in enumerate(cols)}
        self.base = base_vectors(cols, dim)
        self.dim = dim

    def features(self, views: list[TableView]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked base and context vectors of ``views``, one block per view.

        Equal, bit for bit, to ``base_vectors`` and ``context_vectors``
        per view: each view's context sums its rows in the same order.
        """
        idx, fresh, sizes = [], [], []
        for v in views:
            for c in v.cols:
                r = self.row.get(id(c))
                if r is None:
                    fresh.append((len(idx), c))
                    r = 0  # a placeholder row, overwritten below
                idx.append(r)
            sizes.append(len(v.cols))
        b = self.base[idx]
        if fresh:
            pos, cols = zip(*fresh)
            b[list(pos)] = base_vectors(list(cols), self.dim)
        sizes = np.asarray(sizes)
        starts = np.cumsum(sizes) - sizes
        totals = np.repeat(np.add.reduceat(b, starts, axis=0), sizes, axis=0)
        m = np.repeat(sizes, sizes)
        c = np.zeros_like(b)
        multi = m > 1
        c[multi] = (totals[multi] - b[multi]) / (m[multi] - 1)[:, None]
        return b, c


@dataclass
class TrainStats:
    losses: list[float]


# The encoders' output dimension, and the tables per Alg. 1 batch.
D_OUT = 64
BATCH_TABLES = 8


class MultiColumnEncoder:
    """Starmie's contextualized column encoder (trainable W1, W2)."""

    # The augmentation op of Alg. 1. The paper (§5.1.5) found drop_col best
    # on SANTOS and a cell-level op best on TUS with RoBERTa. With our
    # Word2Vec + linear-contextual substitute, drop_col is best on both
    # families (cell-level perturbations barely move mean-pooled base
    # vectors), so every lake uses it (DESIGN.md §2).
    OP = "drop_col"

    def __init__(self, d_in: int, seed: int = 0):
        g = np.random.default_rng(seed)
        self.d_in = d_in
        scale = 1.0 / np.sqrt(d_in)
        self.W1 = np.eye(D_OUT, d_in) + g.normal(0, 0.01, (D_OUT, d_in))
        self.W2 = g.normal(0, 0.01 * scale, (D_OUT, d_in))

    # -- forward ----------------------------------------------------------
    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T + c @ self.W2.T

    def encode_view(self, view: TableView) -> np.ndarray:
        """One unit-norm row per column; a column with no units gets a zero
        row, so it matches nothing (DESIGN.md §2)."""
        b = base_vectors(view.cols, self.d_in)
        z = normalize_rows(self.forward(b, context_vectors(b)))
        z[[not len(c.rows) for c in view.cols]] = 0.0
        return z

    # -- training (Algorithm 1, multi-column variant of §3.3) -------------
    def train(
        self, tables: dict[str, TableView], *, n_epochs: int, lr: float, seed: int = 0,
    ) -> TrainStats:
        rng = np.random.default_rng(seed)
        opt = Adam([self.W1, self.W2], lr=lr)
        lake = _PooledLake(tables, self.d_in)
        tids = sorted(tables)
        losses: list[float] = []
        for _ in range(n_epochs):
            order = rng.permutation(len(tids))
            for s in range(0, len(tids), BATCH_TABLES):
                batch = [tables[tids[i]] for i in order[s : s + BATCH_TABLES]]
                loss = self._step(lake, batch, rng, opt)
                if loss is not None:
                    losses.append(loss)
        return TrainStats(losses=losses)

    def _items(self, batch: list[TableView]) -> list[TableView]:
        """The batch's training items, each augmented by ``OP``."""
        return batch

    def _step(self, lake, batch, rng, opt) -> float | None:
        """One Adam step on ``batch``, or ``None`` and no step for a batch of
        fewer than three rows, whose Eq. 1 denominators are empty (NaN loss)."""
        items = self._items(batch)
        views: list[TableView] = []
        pairs: list[tuple[int, int]] = []
        offset = 0
        for ori in items:
            aug = apply_op(ori, self.OP, rng)
            pairs.extend(aligned_pairs(ori, aug, offset, offset + len(ori.cols)))
            views.extend([ori, aug])
            offset += len(ori.cols) + len(aug.cols)
        if offset < 3:
            return None
        b, c = lake.features(views)
        u = self.forward(b, c)
        loss, du = loss_and_grad(u, pairs, TAU_DEFAULT)
        opt.step([du.T @ b, du.T @ c])
        return loss


class SingleColEncoder(MultiColumnEncoder):
    """The paper's SingleCol baseline: same training, no context path."""

    # Single-column training (§3.2): each column is an independent item and
    # augmentation transforms columns one at a time, so Starmie's column-level
    # op becomes the row-level one.
    OP = "sample_row"

    def __init__(self, d_in: int, seed: int = 0):
        super().__init__(d_in, seed)
        self.W2 = np.zeros_like(self.W2)

    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T

    def _items(self, batch: list[TableView]) -> list[TableView]:
        # A one-column view has a zero context vector, so W2 gets a zero
        # gradient and stays zero.
        return [TableView(v.table_id, [c]) for v in batch for c in v.cols]


EMB_SCHEMA = T.StructType(
    [
        T.StructField("table_id", T.StringType()),
        T.StructField("col_idx", T.IntegerType()),
        T.StructField("emb", T.ArrayType(T.FloatType())),
    ]
)


def infer_embeddings(
    spark: SparkSession, views: dict[str, TableView], encoder: MultiColumnEncoder
) -> DataFrame:
    """Lake-wide model inference: one contextualized embedding per column.

    The offline embedding pass of Fig. 2, on the driver: every collected
    table goes through ``encoder.encode_view``, the featurization and
    forward pass training uses. ``views`` is emptied as the tables are
    encoded: each table's view is released once its rows exist, so the
    driver's peak memory stays that of the collected lake. Returns an
    EMB_SCHEMA DataFrame built from plain row tuples in table order, each
    vector a float32 ``array`` (a list of Python floats takes over 6× the
    memory).
    """
    rows = []
    for tid in sorted(views):
        view = views.pop(tid)
        z = encoder.encode_view(view).astype(np.float32)
        rows.extend(
            (tid, c.col_id, array("f", vec.tobytes()))
            for c, vec in zip(view.cols, z)
        )
    return spark.createDataFrame(rows, EMB_SCHEMA)
