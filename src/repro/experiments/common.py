"""End-to-end pipeline shared by the per-table experiment runners.

Offline stage (Fig. 2): generate/persist lake → tokenize (Spark) →
TF-IDF (Spark) → preprocess (Spark, Alg. 2 cell selection per column) →
Word2Vec pre-training (MLlib) → contrastive training (driver, Alg. 1) →
model inference (driver, on the views training collected) → vector store /
index, all in ``build_method``, whose store every table, the ML study and
clustering read. Online stage: Algorithm 3 via ``SearchEngine``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from ..baselines.featurize import feature_embeddings
from ..baselines.santos import SantosRanker
from ..core.augment import TableView
from ..core.encoder import (
    Embedder,
    MultiColumnEncoder,
    SingleColEncoder,
    collect_table_views,
    infer_embeddings,
    train_word2vec,
)
from ..core.preprocess import preprocess_lake
from ..core.tfidf import idf_map
from ..core.tokenize import tokenize_lake
from ..datalake.generator import Lake
from ..search.engine import QueryStats, SearchEngine, TableStore

LEARNED_METHODS = ("starmie", "singlecol")  # contrastively trained (Alg. 1)

# Column-unionability thresholds τ per representation. The trained
# encoders produce sharply separated cosines; the feature baselines'
# blocks (char distributions etc.) keep unrelated columns at higher
# baseline cosine, so their τ sits higher. Calibrated once on
# santos_small_lite and held fixed across benchmarks.
DEFAULT_TAU = {
    "starmie": 0.6,
    "singlecol": 0.6,
    "sato": 0.80,
    "sherlock": 0.80,
    "d3l": 0.70,
}


@dataclass
class Prepared:
    """Cached offline artifacts for one lake."""

    spark: SparkSession
    lake: Lake
    tokens_df: DataFrame
    idf: dict[str, float]
    prep_df: DataFrame
    embedder: Embedder


def prepare(spark: SparkSession, lake: Lake) -> Prepared:
    """Tokenize, score, preprocess (Alg. 2) and pre-train Word2Vec on a lake.

    The token budget is ``core.preprocess.BUDGET`` and the Word2Vec
    settings are the ``W2V_*`` constants beside ``train_word2vec``
    (DESIGN.md §3).
    """
    tokens_df = tokenize_lake(lake.df).persist()
    idf = idf_map(tokens_df)
    # Cached because Word2Vec and every learned method's views read it. The
    # layout is preprocess_lake's own (LAYOUT_PARTITIONS), cached or not.
    prep_df = preprocess_lake(tokens_df, idf=idf).persist()
    prep_df.count()  # materialize
    embedder = train_word2vec(prep_df)
    return Prepared(spark, lake, tokens_df, idf, prep_df, embedder)


@dataclass
class MethodBundle:
    """A ready-to-search representation: a vector store or the SANTOS ranker.

    ``encoder`` is the trained column encoder of ``starmie``/``singlecol``
    (it embeds tables outside the lake, such as the ML study's queries),
    and ``None`` for the other methods.
    """

    name: str
    tau: float
    store: TableStore | None = None
    ranker: SantosRanker | None = None
    encoder: MultiColumnEncoder | None = None


def train_encoder(
    prep: Prepared,
    method: str,
    views: dict[str, TableView],
    *,
    op: str = "drop_col",
    epochs: int = 10,
    lr: float = 5e-3,
) -> MultiColumnEncoder:
    """Contrastively train Starmie's (or SingleCol's) column encoder (Alg. 1)
    on the collected lake ``views``. The one home of the training defaults.

    Each encoder augments with its own ``OP`` (Starmie ``drop_col``,
    SingleCol ``sample_row``). ``op`` names Starmie's op for callers that
    pass it, such as starbench's settings; any other value raises
    ``ValueError``.
    """
    if op != MultiColumnEncoder.OP:
        raise ValueError(f"unsupported augmentation op {op!r}; only "
                         f"{MultiColumnEncoder.OP!r} is built")
    cls = MultiColumnEncoder if method == "starmie" else SingleColEncoder
    enc = cls(d_in=prep.embedder.dim)
    enc.train(views, n_epochs=epochs, lr=lr)
    return enc


def build_method(prep: Prepared, method: str, **train_kw) -> MethodBundle:
    """Train/featurize one method on a prepared lake and load its vector store.

    The one way any table or study gets a method's vectors. The learned
    encoders (``LEARNED_METHODS``) collect the lake once, train on it with
    ``train_kw`` (``op``, ``epochs``, ``lr``; see ``train_encoder``) and
    encode every table with the trained encoder. The other methods have
    nothing to train, so ``train_kw`` for them raises ``ValueError``.
    """
    if train_kw and method not in LEARNED_METHODS:
        raise ValueError(f"{method!r} trains nothing; got {sorted(train_kw)}")
    tau = DEFAULT_TAU.get(method, 0.6)
    if method == "santos":
        return MethodBundle(name=method, tau=tau, ranker=SantosRanker(prep.lake.tables()))
    encoder = None
    if method in LEARNED_METHODS:
        views = collect_table_views(prep.prep_df, prep.embedder)
        encoder = train_encoder(prep, method, views, **train_kw)
        emb_df = infer_embeddings(prep.spark, views, encoder)
    else:
        emb_df = feature_embeddings(prep.tokens_df, prep.embedder, method)
    return MethodBundle(name=method, tau=tau, store=TableStore.from_embeddings_df(emb_df),
                        encoder=encoder)


@dataclass
class SearchRun:
    rankings: dict[str, list[str]]
    avg_query_seconds: float
    avg_verifications: float
    avg_candidates: float
    index_build_seconds: float = 0.0


def run_union_search(
    bundle: MethodBundle,
    queries: list[str],
    *,
    k: int = 10,
    mode: str = "pruning",
) -> SearchRun:
    """Top-k union search for all queries; aggregates Algorithm 3 stats."""
    if bundle.ranker is not None:
        t0 = time.perf_counter()
        rankings = {q: [t for t, _ in bundle.ranker.query(q, k)] for q in queries}
        dt = (time.perf_counter() - t0) / max(1, len(queries))
        return SearchRun(rankings, dt, 0.0, 0.0)
    t0 = time.perf_counter()
    engine = SearchEngine(store=bundle.store, mode=mode, tau=bundle.tau)
    build_s = time.perf_counter() - t0
    rankings: dict[str, list[str]] = {}
    agg = QueryStats()
    for q in queries:
        res, st = engine.query(q, k)
        rankings[q] = [t for t, _ in res]
        agg.n_candidates += st.n_candidates
        agg.n_verifications += st.n_verifications
        agg.seconds += st.seconds
    n = max(1, len(queries))
    return SearchRun(
        rankings,
        agg.seconds / n,
        agg.n_verifications / n,
        agg.n_candidates / n,
        build_s,
    )
