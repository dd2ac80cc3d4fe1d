"""simHash LSH index: collision behaviour, recall, memory accounting, and
the array-backed index against the dict-of-lists reference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.lsh import SimHashLSH
from ._reference import SimHashLSH as ReferenceLSH


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def clustered():
    """3 tight clusters of unit vectors."""
    g = np.random.default_rng(0)
    centers = unit(g.normal(size=(3, 32)))
    vecs, labels = [], []
    for ci, c in enumerate(centers):
        for _ in range(40):
            v = unit(c + 0.15 * g.normal(size=32))
            vecs.append(v)
            labels.append(ci)
    return np.asarray(vecs, dtype=np.float32), np.asarray(labels)


def test_same_vector_always_retrieved(clustered):
    vecs, _ = clustered
    idx = SimHashLSH(32, seed=1)
    idx.add(np.arange(len(vecs)), vecs)
    for i in (0, 17, 100):
        assert i in idx.query(vecs[i])


def test_cluster_members_dominate_candidates(clustered):
    vecs, labels = clustered
    idx = SimHashLSH(32, n_tables=8, n_bits=10, seed=2)
    idx.add(np.arange(len(vecs)), vecs)
    hits = 0
    total = 0
    for i in range(0, len(vecs), 7):
        cands = idx.query(vecs[i])
        if len(cands) > 1:
            same = sum(1 for c in cands if labels[c] == labels[i])
            hits += same
            total += len(cands)
    assert total > 0
    assert hits / total > 0.8


def test_more_bits_fewer_candidates(clustered):
    vecs, _ = clustered
    coarse = SimHashLSH(32, n_tables=4, n_bits=4, seed=3)
    fine = SimHashLSH(32, n_tables=4, n_bits=16, seed=3)
    ids = np.arange(len(vecs))
    coarse.add(ids, vecs)
    fine.add(ids, vecs)
    n_coarse = np.mean([len(coarse.query(vecs[i])) for i in range(20)])
    n_fine = np.mean([len(fine.query(vecs[i])) for i in range(20)])
    assert n_fine <= n_coarse


def test_deterministic_given_seed(clustered):
    vecs, _ = clustered
    a = SimHashLSH(32, seed=5)
    b = SimHashLSH(32, seed=5)
    ids = np.arange(len(vecs))
    a.add(ids, vecs)
    b.add(ids, vecs)
    for i in range(10):
        assert sorted(a.query(vecs[i])) == sorted(b.query(vecs[i]))


def test_memory_bytes_grows(clustered):
    vecs, _ = clustered
    idx = SimHashLSH(32, seed=0)
    base = idx.memory_bytes()
    idx.add(np.arange(len(vecs)), vecs)
    assert idx.memory_bytes() > base
    assert idx.n_items == len(vecs)


def test_empty_query():
    idx = SimHashLSH(16, seed=0)
    assert idx.query(np.ones(16, dtype=np.float32)) == []


def test_empty_index_and_empty_query():
    idx = SimHashLSH(16, seed=0)
    assert idx.query(np.zeros((0, 16), dtype=np.float32)) == []
    assert idx.query(np.ones((3, 16), dtype=np.float32)) == []
    idx.add(np.zeros(0, dtype=np.int64), np.zeros((0, 16), dtype=np.float32))
    assert idx.n_items == 0
    vecs = unit(np.random.default_rng(0).normal(size=(4, 16))).astype(np.float32)
    idx.add(np.arange(4), vecs)
    assert idx.query(np.zeros((0, 16), dtype=np.float32)) == []
    idx.add(np.zeros(0, dtype=np.int64), np.zeros((0, 16), dtype=np.float32))
    assert idx.n_items == 4
    assert idx.query(vecs[:1]) == idx.query(vecs[0])


def test_memory_bytes_counts_planes_and_bucket_arrays():
    """Per table: every id (int64), the distinct keys (uint8 below 9 bits)
    and one intp start offset per bucket plus the end."""
    idx = SimHashLSH(4, n_tables=2, n_bits=1, seed=0)
    planes = 2 * 1 * 4 * 4
    assert idx.memory_bytes() == planes + 2 * 8
    v = unit(np.array([[1.0, 2.0, 3.0, 4.0]]))
    # v and -v lie on opposite sides of every hyperplane: two buckets a table.
    idx.add([5, 6, 7], np.vstack([v, -v, v]))
    assert idx.memory_bytes() == planes + 2 * 3 * 8 + 2 * 2 * 1 + 2 * 3 * 8


def off_planes(vecs, planes, margin=1e-4):
    """The rows whose every projection is at least ``margin`` from 0: a
    projection within float32 rounding of 0 takes either sign, depending on
    how the product sums, in the reference's per-table products as in the
    index's single one."""
    proj = vecs.astype(np.float64) @ planes.reshape(-1, planes.shape[-1]).T.astype(np.float64)
    return vecs[np.abs(proj).min(axis=1) >= margin]


@settings(max_examples=120, deadline=None)
@given(n_tables=st.sampled_from([1, 8]), n_bits=st.sampled_from([1, 4, 12, 16]),
       seed=st.integers(0, 2**16), n_first=st.integers(0, 40), n_second=st.integers(0, 40))
def test_candidates_equal_reference(n_tables, n_bits, seed, n_first, n_second):
    """Over two ``add`` calls with ids that are not 0..n-1, every query
    vector, alone or all in one matrix, gets exactly the reference's ids."""
    dim = 8
    new = SimHashLSH(dim, n_tables=n_tables, n_bits=n_bits, seed=seed)
    ref = ReferenceLSH(dim, n_tables=n_tables, n_bits=n_bits, seed=seed)
    g = np.random.default_rng(seed)
    pool = off_planes(unit(g.normal(size=(n_first + n_second + 10, dim))).astype(np.float32),
                      new.planes)
    ids = g.choice(10**6, size=len(pool), replace=False)
    for part in (slice(0, n_first), slice(n_first, n_first + n_second)):
        new.add(ids[part], pool[part])
        ref.add(ids[part], pool[part])
    assert new.n_items == len(pool[:n_first + n_second])
    every = set()
    for v in pool:  # indexed vectors and fresh ones
        want = sorted(ref.query(v))
        assert new.query(v) == want
        every.update(want)
    assert new.query(pool) == sorted(every)
