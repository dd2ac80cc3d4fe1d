"""HNSW index: recall vs brute force, incremental build, ef behaviour."""
import numpy as np
import pytest

from repro.search.hnsw import HNSW


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def random_vecs():
    g = np.random.default_rng(1)
    return unit(g.normal(size=(600, 32))).astype(np.float32)


@pytest.fixture(scope="module")
def built(random_vecs):
    idx = HNSW(32, M=8, ef_construction=80, seed=0)
    idx.add_batch(random_vecs)
    return idx


def brute_topk(vecs, q, k):
    return set(np.argsort(-(vecs @ q))[:k].tolist())


def test_self_is_nearest(built, random_vecs):
    for i in (0, 99, 300, 599):
        res = built.search(random_vecs[i], 1, ef=40)
        assert res[0][0] == i
        assert res[0][1] == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("qi", [3, 50, 123, 400, 555])
def test_recall_at_10(built, random_vecs, qi):
    got = {i for i, _ in built.search(random_vecs[qi], 10, ef=100)}
    expected = brute_topk(random_vecs, random_vecs[qi], 10)
    assert len(got & expected) >= 8  # ≥0.8 recall per query on random data


def test_overall_recall(built, random_vecs):
    g = np.random.default_rng(3)
    hits = total = 0
    for _ in range(30):
        q = unit(g.normal(size=32)).astype(np.float32)
        got = {i for i, _ in built.search(q, 10, ef=120)}
        expected = brute_topk(random_vecs, q, 10)
        hits += len(got & expected)
        total += 10
    assert hits / total >= 0.85


def test_higher_ef_not_worse(built, random_vecs):
    q = random_vecs[42]
    expected = brute_topk(random_vecs, q, 10)
    low = {i for i, _ in built.search(q, 10, ef=10)}
    high = {i for i, _ in built.search(q, 10, ef=200)}
    assert len(high & expected) >= len(low & expected) - 1


def test_similarities_sorted_desc(built, random_vecs):
    res = built.search(random_vecs[10], 8, ef=50)
    sims = [s for _, s in res]
    assert sims == sorted(sims, reverse=True)


def test_incremental_add():
    g = np.random.default_rng(5)
    vecs = unit(g.normal(size=(100, 16))).astype(np.float32)
    idx = HNSW(16, M=6, seed=2)
    idx.add_batch(vecs[:50])
    idx.add_batch(vecs[50:])
    res = idx.search(vecs[75], 1, ef=30)
    assert res[0][0] == 75


def test_empty_index():
    idx = HNSW(8)
    assert idx.search(np.ones(8, dtype=np.float32), 3, ef=32) == []


def test_single_element():
    idx = HNSW(8, seed=0)
    v = unit(np.ones((1, 8))).astype(np.float32)
    idx.add_batch(v)
    assert idx.search(v[0], 3, ef=32)[0][0] == 0


def test_memory_bytes(built):
    assert built.memory_bytes() > built.vecs.nbytes


def test_levels_geometric(built):
    levels = np.array([len(per_level) - 1 for per_level in built.links])
    assert levels.min() == 0
    assert (levels == 0).mean() > 0.5  # most nodes on the base layer
