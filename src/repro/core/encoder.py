"""Column encoders: corpus-pretrained token embeddings + contrastive training.

This is the substitution for the paper's RoBERTa-based encoder (see
DESIGN.md §2): we pre-train `pyspark.ml.feature.Word2Vec` on the
serialized lake columns (fully unsupervised, like the LM), pool token
vectors into per-column *base vectors*, and learn a linear-contextual
projection with the paper's exact contrastive objective (Alg. 1, Eq.
1–3) and augmentation operators (Table 1):

    MultiColumnEncoder (Starmie):  z_c = norm(W1·b_c + W2·b_ctx(c))
    SingleColEncoder   (SingleCol baseline): z_c = norm(W·b_c)

where ``b_ctx(c)`` is the mean base vector of the *other* columns of the
same table — the contextualization path. Ablating ``W2`` yields exactly
the paper's SingleCol baseline, so the Starmie-vs-SingleCol comparison
measures precisely what the paper measures: the value of table context.

The lake is collected to the driver once per build
(``collect_table_views``), and both stages read those views. Training
pools every column's base vector once and re-pools only the columns a
cell- or token-level op rewrote; inference (``infer_embeddings``) runs
``encode_view`` on each collected table on the driver, the same
``table_view`` → ``encode_view`` path as training.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np
from pyspark.ml.feature import Word2Vec
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .augment import ColumnView, TableView, aligned_pairs, apply_op
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


def train_word2vec(
    prep_df: DataFrame,
    *,
    dim: int = 64,
    window: int = 8,
    min_count: int = 1,
    max_iter: int = 2,
    seed: int = 42,
) -> Embedder:
    """Pre-train token embeddings on the serialized lake (one sentence per column)."""
    sent = prep_df.select(F.col("tokens").alias("text")).where(F.size("tokens") > 0)
    w2v = Word2Vec(
        vectorSize=dim,
        windowSize=window,
        minCount=min_count,
        maxIter=max_iter,
        seed=seed,
        inputCol="text",
        outputCol="vec",
    )
    model = w2v.fit(sent)
    vecs = {
        r["word"]: np.asarray(r["vector"].toArray(), dtype=np.float32)
        for r in model.getVectors().collect()
    }
    return Embedder(vectors=vecs, dim=dim)


def table_view(table_id: str, cols, embedder: Embedder) -> TableView:
    """One table as a ``TableView``, the encoder's input in training and inference.

    ``cols`` yields ``(col_idx, units, numeric_frac, empty_frac)`` per
    column, in column order, optionally followed by the column's
    ``(sem_type, domain)`` labels. ``units`` (a list of token lists) is
    kept as given, not copied.
    """
    views = []
    for col_idx, units, numeric_frac, empty_frac, *labels in cols:
        views.append(ColumnView(
            int(col_idx),
            units,
            embedder.unit_vecs(units),
            numeric_frac > 0.5,
            float(empty_frac),
            *labels,
        ))
    return TableView(table_id=table_id, cols=views)


_VIEW_COLS = ("col_idx", "units", "numeric_frac", "empty_frac", "sem_type", "domain")


def collect_table_views(prep_df: DataFrame, embedder: Embedder) -> dict[str, TableView]:
    """Collect the preprocessed lake to driver-side TableViews, once per build.

    Training and inference both read these views, and each column keeps
    its ``sem_type``/``domain`` labels for the embedding rows. Lite lakes
    hold ≤ a few hundred thousand selected tokens, so this is small; the
    encoder's two 64×64 matrices make a distributed optimizer pure
    overhead (see DESIGN.md §3).
    """
    rows = prep_df.select("table_id", *_VIEW_COLS).collect()
    grouped: dict[str, list] = {}
    for r in rows:
        grouped.setdefault(r["table_id"], []).append(r)
    out: dict[str, TableView] = {}
    for tid, rs in grouped.items():
        rs.sort(key=lambda r: r["col_idx"])
        out[tid] = table_view(tid, [r[1:] for r in rs], embedder)
    return out


def base_vectors(cols: list[ColumnView], dim: int) -> np.ndarray:
    """Per-column base vector: mean of the column's unit vectors."""
    b = np.zeros((len(cols), dim), dtype=np.float64)
    for i, c in enumerate(cols):
        if len(c.vecs):
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

    The original views never change, and column-level ops only select or
    reorder their columns, so a batch gathers its base vectors from here;
    only a column that a cell- or token-level op rewrote (a new
    ``ColumnView`` object) is pooled again.
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


class MultiColumnEncoder:
    """Starmie's contextualized column encoder (trainable W1, W2)."""

    def __init__(self, d_in: int, d_out: int = 64, seed: int = 0):
        g = np.random.default_rng(seed)
        self.d_in, self.d_out = d_in, d_out
        scale = 1.0 / np.sqrt(d_in)
        self.W1 = np.eye(d_out, d_in) + g.normal(0, 0.01, (d_out, d_in))
        self.W2 = g.normal(0, 0.01 * scale, (d_out, d_in))

    # -- forward ----------------------------------------------------------
    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T + c @ self.W2.T

    def encode_view(self, view: TableView) -> np.ndarray:
        b = base_vectors(view.cols, self.d_in)
        return normalize_rows(self.forward(b, context_vectors(b)))

    # -- training (Algorithm 1, multi-column variant of §3.3) -------------
    def train(
        self,
        tables: dict[str, TableView],
        *,
        op: str = "drop_col",
        n_epochs: int = 12,
        batch_tables: int = 8,
        lr: float = 5e-3,
        tau: float = TAU_DEFAULT,
        seed: int = 0,
        embedder: Embedder | None = None,
    ) -> TrainStats:
        rng = np.random.default_rng(seed)
        opt = Adam([self.W1, self.W2], lr=lr)
        lake = _PooledLake(tables, self.d_in)
        tids = sorted(tables)
        losses: list[float] = []
        for _ in range(n_epochs):
            order = rng.permutation(len(tids))
            for s in range(0, len(tids), batch_tables):
                batch = [tables[tids[i]] for i in order[s : s + batch_tables]]
                loss = self._step(lake, batch, op, rng, opt, tau, embedder)
                losses.append(loss)
        return TrainStats(losses=losses)

    def _items(self, batch: list[TableView], op: str) -> tuple[list[TableView], str]:
        """The batch's training items and the op that augments them."""
        return batch, op

    def _step(self, lake, batch, op, rng, opt, tau, embedder) -> float:
        items, op = self._items(batch, op)
        views: list[TableView] = []
        pairs: list[tuple[int, int]] = []
        offset = 0
        for ori in items:
            aug = apply_op(ori, op, rng, embedder=embedder)
            pairs.extend(aligned_pairs(ori, aug, offset, offset + len(ori.cols)))
            views.extend([ori, aug])
            offset += len(ori.cols) + len(aug.cols)
        b, c = lake.features(views)
        u = self.forward(b, c)
        loss, du = loss_and_grad(u, pairs, tau)
        opt.step([du.T @ b, du.T @ c])
        return loss


class SingleColEncoder(MultiColumnEncoder):
    """The paper's SingleCol baseline: same training, no context path."""

    def __init__(self, d_in: int, d_out: int = 64, seed: int = 0):
        super().__init__(d_in, d_out, seed)
        self.W2 = np.zeros_like(self.W2)

    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T

    def _items(self, batch: list[TableView], op: str) -> tuple[list[TableView], str]:
        # Single-column training (§3.2): each column is an independent
        # item; augmentation transforms columns one at a time, so
        # column-level ops degrade to cell-level ones.
        col_op = op if op in ("drop_cell", "drop_token", "swap_token",
                              "repl_token", "sample_row", "sample_row_ordered",
                              "shuffle_row") else "sample_row"
        # A one-column view has a zero context vector, so W2 gets a zero
        # gradient and stays zero.
        return [TableView(v.table_id, [c]) for v in batch for c in v.cols], col_op


EMB_SCHEMA = T.StructType(
    [
        T.StructField("table_id", T.StringType()),
        T.StructField("col_idx", T.IntegerType()),
        T.StructField("sem_type", T.StringType()),
        T.StructField("domain", T.StringType()),
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
            (tid, c.col_id, c.sem_type, c.domain, array("f", vec.tobytes()))
            for c, vec in zip(view.cols, z)
        )
    return spark.createDataFrame(rows, EMB_SCHEMA)
