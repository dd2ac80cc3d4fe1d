"""Algorithm 3 engine: exactness of linear/pruning, index modes, stats."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.engine import MODES, SearchEngine, TableStore
from repro.search.matching import table_union_score


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def store():
    """60 synthetic tables from 5 column-archetype groups."""
    g = np.random.default_rng(7)
    archetypes = unit(g.normal(size=(5, 24)))
    mats = {}
    for t in range(60):
        grp = t % 5
        m = int(g.integers(3, 7))
        cols = unit(
            archetypes[grp] * 0.9
            + 0.25 * g.normal(size=(m, 24))
            + 0.15 * archetypes[(grp + t) % 5]
        )
        mats[f"tab{t:03d}_g{grp}"] = cols.astype(np.float32)
    return TableStore.from_arrays(mats)


def brute_force_topk(store, q_tid, k, tau):
    q = store.mats[q_tid]
    scored = [
        (tid, table_union_score(q @ store.mats[tid].T, tau))
        for tid in store.table_ids
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def test_linear_matches_brute_force(store):
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    for q in ("tab000_g0", "tab007_g2", "tab033_g3"):
        res, _ = eng.query(q, k=8)
        expected = brute_force_topk(store, q, 8, 0.6)
        assert [t for t, _ in res] == [t for t, _ in expected]
        for (_, a), (_, b) in zip(res, expected):
            assert a == pytest.approx(b)


def test_pruning_identical_to_linear(store):
    """The paper's Table 5: Pruning preserves effectiveness exactly."""
    lin = SearchEngine(store=store, mode="linear", tau=0.6)
    prn = SearchEngine(store=store, mode="pruning", tau=0.6)
    for q in store.table_ids[:10]:
        r1, s1 = lin.query(q, k=6)
        r2, s2 = prn.query(q, k=6)
        assert r1 == r2
        assert s2.n_verifications <= s1.n_verifications


@st.composite
def random_lakes(draw):
    """A random store plus a query, k from 1 to past the lake size, and τ.

    Columns come from a small pool of unit vectors (optionally jittered),
    so tables share columns and union scores tie, zero included. A tight
    pool puts many edges above τ, where greedy matching is not optimal.
    With ``no_edges`` the query and the lake span orthogonal subspaces,
    so no query column reaches τ against any table.
    """
    g = np.random.default_rng(draw(st.integers(0, 2**16)))
    spread = draw(st.sampled_from([0.4, 3.0]))
    pool = unit(np.ones(6) + spread * g.normal(size=(8, 6)))
    cols = st.lists(st.integers(0, 7), min_size=1, max_size=4)
    jitter = draw(st.sampled_from([0.0, 0.2]))
    no_edges = draw(st.booleans())
    lake_dims = np.repeat([1.0, float(not no_edges)], 3)
    query_dims = np.repeat([float(not no_edges), 1.0], 3)

    def table(idx, dims):
        return unit(dims * (pool[idx] + jitter * g.normal(size=(len(idx), 6))))

    n_tables = draw(st.integers(1, 12))
    mats = {f"t{t:02d}": table(draw(cols), lake_dims) for t in range(n_tables)}
    q = table(draw(cols), query_dims).astype(np.float32)
    k = draw(st.integers(1, n_tables + 3))
    tau = draw(st.sampled_from([0.3, 0.6, 0.9]))
    return TableStore.from_arrays(mats), q, k, tau, no_edges


@settings(max_examples=200, deadline=None)
@given(random_lakes())
def test_pruning_identical_to_linear_on_random_lakes(lake):
    """Pruning returns linear's exact list: ids, scores, order, zero padding."""
    store, q, k, tau, no_edges = lake
    lin, _ = SearchEngine(store=store, mode="linear", tau=tau).query(q, k)
    prn, _ = SearchEngine(store=store, mode="pruning", tau=tau).query(q, k)
    assert prn == lin
    assert len(lin) == min(k, len(store.table_ids))
    if no_edges:
        assert all(s == 0.0 for _, s in lin)


def test_pruning_reduces_verifications(store):
    lin = SearchEngine(store=store, mode="linear", tau=0.6)
    prn = SearchEngine(store=store, mode="pruning", tau=0.6)
    tot_lin = tot_prn = 0
    for q in store.table_ids[:10]:
        tot_lin += lin.query(q, k=5)[1].n_verifications
        tot_prn += prn.query(q, k=5)[1].n_verifications
    assert tot_prn < tot_lin


@pytest.mark.parametrize("mode", ["lsh", "hnsw"])
def test_index_modes_find_group_members(store, mode):
    eng = SearchEngine(store=store, mode=mode, tau=0.6, seed=0)
    res, stats = eng.query("tab000_g0", k=6)
    assert stats.n_candidates < len(store.table_ids)
    got = [t for t, _ in res]
    assert "tab000_g0" in got[:1]  # self is the best match
    same_group = sum(1 for t in got if t.endswith("_g0"))
    assert same_group >= 4


@pytest.mark.parametrize("mode", MODES)
def test_query_by_matrix(store, mode):
    eng = SearchEngine(store=store, mode=mode, tau=0.6, seed=0)
    q = store.mats["tab001_g1"]
    res, _ = eng.query(q, k=4)
    assert len(res) <= 4
    assert res[0][0] == "tab001_g1"


def test_scores_descending(store):
    eng = SearchEngine(store=store, mode="pruning", tau=0.6)
    res, _ = eng.query("tab010_g0", k=10)
    scores = [s for _, s in res]
    assert scores == sorted(scores, reverse=True)


def test_k_larger_than_lake(store):
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    res, _ = eng.query("tab000_g0", k=500)
    assert len(res) == len(store.table_ids)


def test_exclude_self(store):
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    res, _ = eng.query(store.mats["tab000_g0"], k=5, exclude_self="tab000_g0")
    assert "tab000_g0" not in [t for t, _ in res]


def test_memory_accounting(store):
    base = SearchEngine(store=store, mode="linear").memory_bytes()
    lsh = SearchEngine(store=store, mode="lsh", seed=0).memory_bytes()
    hnsw = SearchEngine(store=store, mode="hnsw", seed=0).memory_bytes()
    assert base == store.memory_bytes()
    assert lsh > base and hnsw > base


def test_store_flat_consistent(store):
    vecs, owners = store.flat()
    assert vecs.shape[0] == len(owners)
    assert vecs.shape[0] == sum(m.shape[0] for m in store.mats.values())


def test_invalid_mode_rejected(store):
    with pytest.raises(AssertionError):
        SearchEngine(store=store, mode="fancy")


def test_hnsw_much_fewer_candidates_than_linear(store):
    eng = SearchEngine(store=store, mode="hnsw", tau=0.6, n_neighbors=5, seed=0)
    _, stats = eng.query("tab005_g0", k=5)
    assert stats.n_candidates <= len(store.table_ids) // 2
