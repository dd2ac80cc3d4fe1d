"""Column encoders: Word2Vec pretraining, contrastive training, driver-side inference."""
import numpy as np
import pytest

from repro.core.augment import OPS, TableView
from repro.core.encoder import (
    MultiColumnEncoder,
    SingleColEncoder,
    base_vectors,
    collect_table_views,
    context_vectors,
    infer_embeddings,
)
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


def test_context_vectors_excludes_self():
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = context_vectors(b)
    assert np.allclose(c[0], [0.5, 1.0])
    assert np.allclose(c[1], [1.0, 0.5])


def test_context_vector_single_column():
    assert not context_vectors(np.ones((1, 4))).any()


def test_training_reduces_loss(views, prep_santos):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    stats = enc.train(views, op="drop_col", n_epochs=6, embedder=prep_santos.embedder, seed=0)
    first = np.mean(stats.losses[: len(stats.losses) // 5])
    last = np.mean(stats.losses[-len(stats.losses) // 5 :])
    assert last < first


def test_singlecol_training_reduces_loss(views, prep_santos):
    enc = SingleColEncoder(d_in=64, seed=0)
    stats = enc.train(views, op="drop_cell", n_epochs=4, embedder=prep_santos.embedder, seed=0)
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


def test_multicolumn_uses_context(views, prep_santos):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, op="drop_col", n_epochs=4, embedder=prep_santos.embedder, seed=0)
    view = next(v for v in views.values() if len(v.cols) >= 3)
    z_full = enc.encode_view(view)
    sub = TableView(view.table_id, view.cols[:-1])
    z_sub = enc.encode_view(sub)
    # contextual path: removing a column shifts the others' embeddings
    assert not np.allclose(z_full[: len(sub.cols)], z_sub, atol=1e-6)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("cls", [MultiColumnEncoder, SingleColEncoder])
def test_training_equals_repooling_reference(views, prep_santos, cls, op):
    """Pooling base vectors once and the vectorized NT-Xent are lossless:
    W1, W2 and every loss are byte-equal to a loop that re-pools both
    views at every step and computes the loss one anchor at a time."""
    enc, expect = cls(d_in=64, seed=1), cls(d_in=64, seed=1)
    kw = dict(op=op, n_epochs=2, lr=5e-3, embedder=prep_santos.embedder, seed=2)
    losses = enc.train(views, **kw).losses
    ref_losses = ref.train(expect, views, **kw)
    assert np.array_equal(enc.W1, expect.W1)
    assert np.array_equal(enc.W2, expect.W2)
    assert np.array_equal(losses, ref_losses)


def _infer(prep, views, enc):
    """The lake's EMB_SCHEMA DataFrame (``infer_embeddings`` empties its views)."""
    return infer_embeddings(prep.spark, dict(views), enc)


@pytest.mark.parametrize("cls", [MultiColumnEncoder, SingleColEncoder])
def test_stored_vectors_equal_encode_view(prep_santos, views, cls):
    """Every table's stored vectors are its ``encode_view`` in float32, exactly."""
    enc = cls(d_in=64, seed=3)
    enc.train(views, n_epochs=1, embedder=prep_santos.embedder, seed=0)
    store = TableStore.from_embeddings_df(_infer(prep_santos, views, enc))
    assert store.table_ids == sorted(views)
    for tid, view in views.items():
        assert np.array_equal(store.mats[tid], enc.encode_view(view).astype(np.float32)), tid


def test_infer_empties_views(prep_santos, views):
    lake = dict(views)
    infer_embeddings(prep_santos.spark, lake, SingleColEncoder(d_in=64, seed=0))
    assert lake == {}


def test_infer_schema_carries_ground_truth(prep_santos, views):
    enc = SingleColEncoder(d_in=64, seed=0)
    emb_df = _infer(prep_santos, views, enc)
    assert {"table_id", "col_idx", "sem_type", "domain", "emb"} <= set(emb_df.columns)
    labels = ["table_id", "col_idx", "sem_type", "domain"]
    got = sorted(tuple(r) for r in emb_df.select(*labels).collect())
    assert got == sorted(tuple(r) for r in prep_santos.prep_df.select(*labels).collect())


def test_trained_encoder_separates_ambiguous_columns(prep_santos, views):
    """The core claim (Fig. 1): context separates same-vocab columns from
    different domains; training must not collapse them together."""
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, op="drop_col", n_epochs=8, embedder=prep_santos.embedder, seed=0)
    emb_df = _infer(prep_santos, views, enc)
    rows = emb_df.where("sem_type = 'year'").collect()
    by_dom: dict[str, list[np.ndarray]] = {}
    for r in rows:
        by_dom.setdefault(r["domain"], []).append(np.asarray(r["emb"]))
    doms = [d for d, v in by_dom.items() if len(v) >= 2][:2]
    if len(doms) == 2:
        a = np.stack(by_dom[doms[0]])
        b = np.stack(by_dom[doms[1]])
        within = (np.mean(a @ a.T) + np.mean(b @ b.T)) / 2
        cross = np.mean(a @ b.T)
        assert within > cross
