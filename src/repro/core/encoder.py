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

Inference is a Spark pass (``infer_embeddings``): ``applyInPandas``
grouped by table with the broadcast ``Embedder`` and trained encoder,
running the same ``table_view`` → ``encode_view`` path as training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.ml.feature import Word2Vec
from pyspark.sql import DataFrame
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
    column, in column order.
    """
    views = []
    for col_idx, units, numeric_frac, empty_frac in cols:
        units = [list(u) for u in units]
        views.append(ColumnView(
            col_id=int(col_idx),
            units=units,
            vecs=embedder.unit_vecs(units),
            is_numeric=numeric_frac > 0.5,
            empty_frac=float(empty_frac),
        ))
    return TableView(table_id=table_id, cols=views)


_VIEW_COLS = ("col_idx", "units", "numeric_frac", "empty_frac")


def collect_table_views(prep_df: DataFrame, embedder: Embedder) -> dict[str, TableView]:
    """Collect the preprocessed lake to driver-side TableViews for training.

    Lite lakes hold ≤ a few hundred thousand selected tokens, so this is
    small; the encoder's two 64×64 matrices make a distributed optimizer
    pure overhead (see DESIGN.md §3).
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


def base_vectors(view: TableView, dim: int) -> np.ndarray:
    """Per-column base vector: mean of the column's unit vectors."""
    b = np.zeros((len(view.cols), dim), dtype=np.float64)
    for i, c in enumerate(view.cols):
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
    def _features(self, view: TableView) -> tuple[np.ndarray, np.ndarray]:
        b = base_vectors(view, self.d_in)
        return b, context_vectors(b)

    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T + c @ self.W2.T

    def encode_view(self, view: TableView) -> np.ndarray:
        b, c = self._features(view)
        return normalize_rows(self.forward(b, c))

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
        tids = sorted(tables)
        losses: list[float] = []
        for _ in range(n_epochs):
            order = rng.permutation(len(tids))
            for s in range(0, len(tids), batch_tables):
                batch = [tables[tids[i]] for i in order[s : s + batch_tables]]
                loss = self._step(batch, op, rng, opt, tau, embedder)
                losses.append(loss)
        return TrainStats(losses=losses)

    def _step(self, batch, op, rng, opt, tau, embedder) -> float:
        views: list[tuple[TableView, TableView]] = []
        for v in batch:
            views.append((v, apply_op(v, op, rng, embedder=embedder)))
        b_blocks, c_blocks, pairs = [], [], []
        offset = 0
        for ori, aug in views:
            bo, co = self._features(ori)
            ba, ca = self._features(aug)
            pairs.extend(
                aligned_pairs(ori, aug, offset, offset + len(ori.cols))
            )
            b_blocks.extend([bo, ba])
            c_blocks.extend([co, ca])
            offset += len(ori.cols) + len(aug.cols)
        b = np.vstack(b_blocks)
        c = np.vstack(c_blocks)
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

    def _step(self, batch, op, rng, opt, tau, embedder) -> float:
        # Single-column training (§3.2): each column is an independent
        # item; augmentation transforms columns one at a time, so
        # column-level ops degrade to cell-level ones.
        col_op = op if op in ("drop_cell", "drop_token", "swap_token",
                              "repl_token", "sample_row", "sample_row_ordered",
                              "shuffle_row") else "sample_row"
        # A one-column view has a zero context vector, so W2 gets a zero
        # gradient and stays zero.
        singles = [TableView(v.table_id, [c]) for v in batch for c in v.cols]
        return super()._step(singles, col_op, rng, opt, tau, embedder)


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
    prep_df: DataFrame, embedder: Embedder, encoder: MultiColumnEncoder
) -> DataFrame:
    """Lake-wide model inference: one contextualized embedding per column.

    Runs as ``applyInPandas`` grouped by table with the token vectors and
    the trained encoder broadcast — the offline embedding pass of Fig. 2.
    Each table goes through ``table_view`` and ``encoder.encode_view``,
    the same featurization and forward pass training uses.
    """
    sc = prep_df.sparkSession.sparkContext
    emb_b = sc.broadcast(embedder)
    enc_b = sc.broadcast(encoder)

    def _per_table(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("col_idx")
        view = table_view(
            pdf["table_id"].iloc[0],
            zip(*(pdf[c] for c in _VIEW_COLS)),
            emb_b.value,
        )
        z = enc_b.value.encode_view(view)
        return pd.DataFrame(
            {
                "table_id": pdf["table_id"].values,
                "col_idx": pdf["col_idx"].values,
                "sem_type": pdf["sem_type"].values,
                "domain": pdf["domain"].values,
                "emb": [r.astype(np.float32).tolist() for r in z],
            }
        )

    return prep_df.groupBy("table_id").applyInPandas(_per_table, schema=EMB_SCHEMA)
