"""Column encoders: Word2Vec pretraining, contrastive training, driver-side inference."""
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.core._multiarray_umath import __cpu_features__

import repro
from repro.core.augment import ColumnView, TableView, Units
from repro.core.encoder import (
    Embedder,
    MultiColumnEncoder,
    SingleColEncoder,
    base_vectors,
    collect_table_views,
    context_vectors,
    infer_embeddings,
    table_view,
)
from repro.datalake.generator import _to_lake, santos_lake
from repro.experiments.common import build_method, prepare, run_union_search, train_encoder
from repro.search.engine import TableStore

from . import _reference as ref


@pytest.fixture(scope="module")
def views(prep_santos):
    return collect_table_views(prep_santos.prep_df, prep_santos.embedder)


def test_word2vec_vocabulary(prep_santos):
    emb = prep_santos.embedder
    assert emb.dim == 64
    assert len(emb.vectors) > 100
    v = next(iter(emb.vectors.values()))
    assert v.shape == (64,)


# sha256 of tiny_santos's Word2Vec vectors: each word in sorted order, then
# its float32 vector. Word2Vec's sentence order and vocabulary tie order
# follow preprocess_lake's row layout, so a change to that layout fails here.
W2V_SANTOS_SHA256 = "ce13433271a87fea74fecb313c77a64bbe6f36ed0c50ef83aa09da43de145c6d"


def test_word2vec_vectors_pinned(prep_santos):
    vectors = prep_santos.embedder.vectors
    h = hashlib.sha256()
    for w in sorted(vectors):
        h.update(w.encode())
        h.update(np.asarray(vectors[w], dtype=np.float32).tobytes())
    assert h.hexdigest() == W2V_SANTOS_SHA256


def test_word2vec_same_type_tokens_closer(prep_santos):
    """Tokens from one vocabulary pool should be closer than cross-pool."""
    from repro.datalake.vocab import TYPES

    emb = prep_santos.embedder

    def tok(pool_name, i):
        from repro.core.tokenize import tokenize_cell

        for v in TYPES[pool_name].pool[i:]:
            ts = tokenize_cell(v)
            if ts and ts[0] in emb.vectors:
                return emb.vectors[ts[0]] / np.linalg.norm(emb.vectors[ts[0]])
        return None

    cities = [tok("city", i) for i in (0, 3, 6, 9)]
    species = [tok("species_common", i) for i in (0, 3, 6, 9)]
    cities = [c for c in cities if c is not None]
    species = [s for s in species if s is not None]
    if len(cities) >= 2 and len(species) >= 2:
        within = np.mean([c1 @ c2 for c1 in cities for c2 in cities])
        cross = np.mean([c @ s for c in cities for s in species])
        assert within > cross


def test_collect_table_views_complete(views, tiny_santos):
    assert set(views) == set(tiny_santos.tables())
    for v in views.values():
        assert all(c.vecs.shape[1] == 64 for c in v.cols)
        assert [c.col_id for c in v.cols] == list(range(len(v.cols)))


def test_base_vectors_mean_of_units(views):
    v = next(iter(views.values()))
    b = base_vectors(v.cols, 64)
    for i, c in enumerate(v.cols):
        if len(c.vecs):
            assert np.allclose(b[i], c.vecs.mean(axis=0), atol=1e-6)


def _random_lake(seed):
    """A lake of repeated units, empty columns (and an empty unit), and
    tokens half of which the embedder lacks."""
    g = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(30)]
    embedder = Embedder({t: g.normal(size=8).astype(np.float32) for t in vocab[:15]}, 8)
    pool = [[str(w) for w in g.choice(vocab, size=g.integers(1, 5))] for _ in range(25)] + [[]]
    lake = {}
    for t in range(12):
        lake[f"t{t}"] = [[pool[i] for i in g.integers(len(pool), size=g.integers(0, 10))]
                         for _ in range(g.integers(1, 5))]
    return embedder, lake


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interned_views_equal_unit_by_unit_reference(spark, seed):
    """``collect_table_views`` and ``table_view`` hold each distinct unit once
    and give every column the units and vector bytes that pooling it unit by
    unit with ``Embedder.unit_vecs`` gives, so ``encode_view`` is unchanged."""
    embedder, lake = _random_lake(seed)
    enc = MultiColumnEncoder(d_in=8, seed=seed)
    rows = [(t, j, units) for t, cols in lake.items() for j, units in enumerate(cols)]
    df = spark.createDataFrame(
        rows[::-1], "table_id string, col_idx int, units array<array<string>>").repartition(3)
    collected = collect_table_views(df, embedder)
    assert set(collected) == set(lake)
    for views, distinct_units in [
        (collected, {tuple(u) for cols in lake.values() for units in cols for u in units}),
        *[({t: table_view(t, enumerate(cols), embedder)},
           {tuple(u) for units in cols for u in units}) for t, cols in lake.items()],
    ]:
        shared = next(iter(views.values())).cols[0].distinct
        assert len(shared.tokens) == len(shared.vecs) == len(distinct_units)
        assert {tuple(u) for u in shared.tokens} == distinct_units
        for t, view in views.items():
            reference = TableView(t, [
                ColumnView(j, np.arange(len(units)), Units(units, embedder.unit_vecs(units)))
                for j, units in enumerate(lake[t])])
            assert [c.col_id for c in view.cols] == list(range(len(lake[t])))
            for c, r in zip(view.cols, reference.cols):
                assert c.distinct is shared
                assert c.units == r.units
                assert c.vecs.dtype == np.float32
                assert c.vecs.tobytes() == r.vecs.tobytes()
            assert np.array_equal(enc.encode_view(view), enc.encode_view(reference))


def test_context_vectors_excludes_self():
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = context_vectors(b)
    assert np.allclose(c[0], [0.5, 1.0])
    assert np.allclose(c[1], [1.0, 0.5])


def test_context_vector_single_column():
    assert not context_vectors(np.ones((1, 4))).any()


def test_training_reduces_loss(views):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    stats = enc.train(views, n_epochs=6, lr=5e-3, seed=0)
    first = np.mean(stats.losses[: len(stats.losses) // 5])
    last = np.mean(stats.losses[-len(stats.losses) // 5 :])
    assert last < first


def test_singlecol_training_reduces_loss(views):
    enc = SingleColEncoder(d_in=64, seed=0)
    stats = enc.train(views, n_epochs=4, lr=5e-3, seed=0)
    assert np.mean(stats.losses[-5:]) < np.mean(stats.losses[:5])


def test_encode_view_unit_norm(views):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    z = enc.encode_view(next(iter(views.values())))
    norms = np.linalg.norm(z, axis=1)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-5)


def test_singlecol_ignores_context(views):
    enc = SingleColEncoder(d_in=64, seed=0)
    view = next(v for v in views.values() if len(v.cols) >= 3)
    z_full = enc.encode_view(view)
    # dropping a column must not change the remaining columns' embeddings
    sub = TableView(view.table_id, view.cols[:-1])
    z_sub = enc.encode_view(sub)
    assert np.allclose(z_full[: len(sub.cols)], z_sub, atol=1e-6)


def test_multicolumn_uses_context(views):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, n_epochs=4, lr=5e-3, seed=0)
    view = next(v for v in views.values() if len(v.cols) >= 3)
    z_full = enc.encode_view(view)
    sub = TableView(view.table_id, view.cols[:-1])
    z_sub = enc.encode_view(sub)
    # contextual path: removing a column shifts the others' embeddings
    assert not np.allclose(z_full[: len(sub.cols)], z_sub, atol=1e-6)


@pytest.mark.parametrize("cls", [MultiColumnEncoder, SingleColEncoder],
                         ids=lambda cls: f"{cls.__name__}-{cls.OP}")
def test_training_equals_repooling_reference(views, cls):
    """Pooling base vectors once and the vectorized NT-Xent are lossless:
    W1, W2 and every loss are byte-equal to a loop that re-pools both
    views at every step and computes the loss one anchor at a time."""
    enc, expect = cls(d_in=64, seed=1), cls(d_in=64, seed=1)
    kw = dict(n_epochs=2, lr=5e-3, seed=2)
    losses = enc.train(views, **kw).losses
    ref_losses = ref.train(expect, views, **kw)
    assert np.array_equal(enc.W1, expect.W1)
    assert np.array_equal(enc.W2, expect.W2)
    assert np.array_equal(losses, ref_losses)


# sha256 of W1 then W2 (float64 bytes) after ``train_encoder``'s defaults run
# 2 epochs on tiny_santos. Any change to the training arithmetic, or to the
# random draws of batching and augmentation or their order, fails here.
# The bytes are those of OpenBLAS's Prescott (generic) dgemm kernel at 4
# threads with numpy's AVX512 exp/log; another kernel or thread count gives
# weights that differ in the last bits, so the test trains in a child process
# under PIN_ENV. Reproduce them outside pytest, from the repository root, with
#   PYTHONPATH=src OPENBLAS_CORETYPE=Prescott OPENBLAS_NUM_THREADS=4 python -m tests.test_encoder
WEIGHTS_SANTOS_SHA256 = {
    "starmie": "95633b541e3638b051bb0064f1a450c0b04a29add42faa4ff91646f2c5423d8d",
    "singlecol": "b8ca648964a3544663a3f4b1b15ce855a375185f948a755ce26afd65442386f7",
}
PIN_ENV = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "4"}


def _openblas_dynamic_arch() -> bool:
    """numpy's BLAS is the OpenBLAS 0.3.23.dev build that picks its kernel at
    run time, so ``OPENBLAS_CORETYPE`` selects one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas["name"] and blas["version"] == "0.3.23.dev"
            and "DYNAMIC_ARCH=1" in blas["openblas configuration"])


# SingleCol's bytes change with the OpenBLAS thread count; Starmie's do not.
_FOUR_CPUS = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 4,
    reason="the singlecol pin is OpenBLAS at 4 threads, and OpenBLAS caps its "
           "threads at the fewer CPUs this process may use")


def _trained_digest(embedder, method, views) -> str:
    enc = train_encoder(SimpleNamespace(embedder=embedder), method, views, epochs=2)
    return hashlib.sha256(enc.W1.tobytes() + enc.W2.tobytes()).hexdigest()


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="the pins are OpenBLAS 0.3.23.dev's Prescott kernel, and "
                           "this numpy's BLAS is not that DYNAMIC_ARCH build")
@pytest.mark.skipif(not __cpu_features__["AVX512_SKX"],
                    reason="the pins are numpy's AVX512_SKX exp/log, which this CPU "
                           "lacks or numpy has disabled")
@pytest.mark.parametrize("method", ["starmie", pytest.param("singlecol", marks=_FOUR_CPUS)])
def test_trained_weights_pinned(prep_santos, views, method, tmp_path):
    lake = tmp_path / "lake.pkl"
    lake.write_bytes(pickle.dumps((prep_santos.embedder, views)))
    # the child imports the repro under test, whatever its working directory
    env = {**os.environ, **PIN_ENV, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    # the child's stderr goes to this test's captured output
    out = subprocess.run([sys.executable, "-m", "tests.test_encoder", str(lake), method],
                         cwd=Path(__file__).parents[1], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.split() == [method, WEIGHTS_SANTOS_SHA256[method]]


def test_only_drop_col_is_accepted(prep_santos):
    """``op`` stays for starbench's settings, which pass ``"drop_col"``;
    Table 1's other operators are not built."""
    with pytest.raises(ValueError):
        build_method(prep_santos, "starmie", op="drop_cell", epochs=1)


@pytest.mark.parametrize("cls", [MultiColumnEncoder, SingleColEncoder])
def test_training_stays_finite_without_negatives(cls):
    """Eight three-column tables and one one-column table: an epoch whose order
    ends on the one-column table has a batch of one positive pair and no
    negatives, which must make no step rather than turn W1/W2 into NaN."""
    g = np.random.default_rng(0)
    cols = [ColumnView(i % 3, np.arange(5),
                       Units([["tok"]] * 5, g.normal(size=(5, 64)).astype(np.float32)))
            for i in range(25)]
    lake = {f"t{t}": TableView(f"t{t}", cols[3 * t : 3 * t + 3]) for t in range(8)}
    lake["t8"] = TableView("t8", cols[24:])
    enc = cls(d_in=64, seed=0)
    losses = enc.train(lake, n_epochs=40, lr=5e-3, seed=0).losses
    assert len(losses) < 40 * 2  # some epoch ended on the one-column table
    assert np.isfinite(losses).all()
    assert np.isfinite(enc.W1).all() and np.isfinite(enc.W2).all()
    assert all(np.isfinite(enc.encode_view(v)).all() for v in lake.values())


def _infer(prep, views, enc):
    """The lake's EMB_SCHEMA DataFrame (``infer_embeddings`` empties its views)."""
    return infer_embeddings(prep.spark, dict(views), enc)


@pytest.mark.parametrize("cls", [MultiColumnEncoder, SingleColEncoder])
def test_stored_vectors_equal_encode_view(prep_santos, views, cls):
    """Every table's stored vectors are its ``encode_view`` in float32, exactly."""
    enc = cls(d_in=64, seed=3)
    enc.train(views, n_epochs=1, lr=5e-3, seed=0)
    store = TableStore.from_embeddings_df(_infer(prep_santos, views, enc))
    assert store.table_ids == sorted(views)
    for tid, view in views.items():
        assert np.array_equal(store.mats[tid], enc.encode_view(view).astype(np.float32)), tid


def test_infer_empties_views(prep_santos, views):
    lake = dict(views)
    infer_embeddings(prep_santos.spark, lake, SingleColEncoder(d_in=64, seed=0))
    assert lake == {}


def test_infer_schema_carries_ground_truth(prep_santos, views, tiny_santos):
    """Embedding rows are keyed by (table_id, col_idx) alone, one per lake
    column, so each vector joins to its ground truth in the ``Lake``."""
    emb_df = _infer(prep_santos, views, SingleColEncoder(d_in=64, seed=0))
    assert emb_df.columns == ["table_id", "col_idx", "emb"]
    got = sorted(tuple(r) for r in emb_df.select("table_id", "col_idx").collect())
    lake = sorted((c["table_id"], c["col_idx"]) for c in tiny_santos.rows)
    assert got == lake


def test_trained_encoder_separates_ambiguous_columns(prep_santos, views, tiny_santos):
    """The core claim (Fig. 1): context separates same-vocab columns from
    different domains; training must not collapse them together."""
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, n_epochs=8, lr=5e-3, seed=0)
    store = TableStore.from_embeddings_df(_infer(prep_santos, views, enc))
    tables = tiny_santos.tables()
    by_dom: dict[str, list[np.ndarray]] = {}
    for tid in store.table_ids:
        for c in tables[tid]:
            if c["sem_type"] == "year":
                by_dom.setdefault(c["domain"], []).append(store.mats[tid][c["col_idx"]])
    doms = [d for d, v in by_dom.items() if len(v) >= 2][:2]
    if len(doms) == 2:
        a = np.stack(by_dom[doms[0]])
        b = np.stack(by_dom[doms[1]])
        within = (np.mean(a @ a.T) + np.mean(b @ b.T)) / 2
        cross = np.mean(a @ b.T)
        assert within > cross


if __name__ == "__main__":
    # python -m tests.test_encoder [LAKE_PICKLE METHOD...]: each method's
    # digest, from the test's pickled (embedder, views) or from tiny_santos.
    if len(sys.argv) > 1:
        with open(sys.argv[1], "rb") as f:
            embedder, lake_views = pickle.load(f)
    else:
        from repro.datalake.generator import santos_lake
        from repro.experiments.common import prepare
        from repro.experiments.session import get_spark

        from .conftest import TINY_SANTOS

        spark = get_spark("repro")
        prep = prepare(spark, santos_lake(spark, **TINY_SANTOS))
        embedder = prep.embedder
        lake_views = collect_table_views(prep.prep_df, embedder)
        spark.stop()
    for m in sys.argv[2:] or sorted(WEIGHTS_SANTOS_SHA256):
        print(m, _trained_digest(embedder, m, lake_views))


def test_empty_column_matches_nothing(spark):
    """An all-empty column, in a multi-column table or as a table's only
    column, is stored as a zero row, so no query column has a τ-edge to it
    and the empty one-column table is never listed (DESIGN.md §2)."""
    base = santos_lake(spark, name="empty_cols", n_domains=4, tables_per_domain=3,
                       rows_range=(20, 30), n_queries=2, seed=3)
    rows = [dict(r) for r in base.rows]
    multi = rows[0]["table_id"]
    col = next(r for r in rows if r["table_id"] == multi and r["col_idx"] == 1)
    col["cells"] = [""] * len(col["cells"])
    rows.append({**rows[0], "table_id": "empty__t000", "col_idx": 0, "cells": [""] * 20})
    lake = _to_lake(spark, "empty_cols", rows, base.queries, base.ground_truth)
    prep = prepare(spark, lake)
    try:
        bundle = build_method(prep, "starmie", epochs=2)
    finally:
        prep.tokens_df.unpersist()
        prep.prep_df.unpersist()
    mats = bundle.store.mats
    assert len(mats[multi]) > 2
    empty = np.stack([mats[multi][1], mats["empty__t000"][0]])
    assert not empty.any()
    for tid, m in mats.items():
        norms = np.linalg.norm(m, axis=1)
        assert np.allclose(norms[norms > 0], 1.0, atol=1e-5), tid
        assert (m @ empty.T < bundle.tau).all(), tid
    run = run_union_search(bundle, sorted(mats), k=len(mats), mode="linear")
    assert not any("empty__t000" in ranked for ranked in run.rankings.values())
