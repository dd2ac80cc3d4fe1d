"""Algorithm 3 engine: exactness of linear/pruning, index modes, stats."""
import numpy as np
import pytest
from hypothesis import example, given, settings
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


def brute_force_topk(store, q, k, tau):
    """The first k lake tables scoring above 0, in (score desc, table_id asc) order."""
    q = store.mats[q] if isinstance(q, str) else q
    scored = [
        (tid, table_union_score(q @ store.mats[tid].T, tau))
        for tid in store.table_ids
    ]
    scored = sorted((e for e in scored if e[1] > 0), key=lambda e: (-e[1], e[0]))
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
    """Pruning returns linear's exact list: ids, scores and order, and no
    table that scores 0."""
    store, q, k, tau, no_edges = lake
    lin, _ = SearchEngine(store=store, mode="linear", tau=tau).query(q, k)
    prn, _ = SearchEngine(store=store, mode="pruning", tau=tau).query(q, k)
    assert prn == lin
    n_scoring = sum(table_union_score(q @ m.T, tau) > 0 for m in store.mats.values())
    assert len(lin) == min(k, n_scoring)
    if no_edges:
        assert lin == []


@st.composite
def edge_lakes(draw):
    """Stores that are empty or hold 0-, 1- and 2-column tables, a query of
    0 to 2 columns, and k ∈ {1, n, n+5} for n tables (k = 0 on an empty
    store). With ``no_edges`` every query scores 0 against every table."""
    g = np.random.default_rng(draw(st.integers(0, 2**16)))
    pool = unit(np.ones(6) + 0.4 * g.normal(size=(4, 6)))
    no_edges = draw(st.booleans())
    lake_dims = np.repeat([1.0, float(not no_edges)], 3)
    query_dims = np.repeat([float(not no_edges), 1.0], 3)

    def table(width, dims):
        return unit(dims * pool[g.integers(0, 4, size=width)]).astype(np.float32)

    widths = draw(st.lists(st.integers(0, 2), max_size=4))
    mats = {f"t{t}": table(w, lake_dims) for t, w in enumerate(widths)}
    q = table(draw(st.integers(0, 2)), query_dims)
    k = draw(st.sampled_from([1, len(widths), len(widths) + 5]))
    tau = draw(st.sampled_from([0.3, 0.6, 0.9]))
    return TableStore.from_arrays(mats), q, k, tau, no_edges


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=80, deadline=None)
@given(edge_lakes())
def test_edge_cases_in_every_mode(mode, lake):
    """Linear and pruning return the brute-force top-k. LSH and HNSW return
    tables scoring above 0 in (score desc, table_id asc) order, each with
    its ``table_union_score`` recomputed. A store, query or lake with
    nothing that scores gives []; k < 1 raises ``ValueError``."""
    store, q, k, tau, no_edges = lake
    eng = SearchEngine(store=store, mode=mode, tau=tau)
    if k < 1:
        with pytest.raises(ValueError):
            eng.query(q, k)
        return
    res, stats = eng.query(q, k)
    expected = brute_force_topk(store, q, k, tau)
    if no_edges or not len(q):
        assert expected == []
    assert stats.n_verifications + stats.n_ub_prunes == stats.n_candidates
    if mode in ("linear", "pruning"):
        assert res == expected
    else:
        assert len(res) <= k
        assert res == sorted(res, key=lambda e: (-e[1], e[0]))
        for tid, score in res:
            assert score > 0
            assert score == table_union_score(q @ store.mats[tid].T, tau)
        if not expected:
            assert res == []


# One-column tables for the two tie cases below; query column E[0], k = 3.
E = np.eye(4, dtype=np.float32)[:, None, :]
T_POS = np.array([[0.8, 0.6, 0.0, 0.0]], dtype=np.float32)
# a and b tie at 0.8 behind c and q at 1: the top 3 are c, q, a.
POSITIVE_TIE = TableStore.from_arrays({"q": E[0], "a": T_POS, "b": T_POS, "c": E[0]})
# d and q score 1 and a, b, c, e score 0: the top 3 are d and q alone.
ZERO_SCORES = TableStore.from_arrays(
    {"q": E[0], "a": E[1], "b": E[2], "c": E[3], "d": E[0], "e": E[1]})


@pytest.mark.parametrize("mode", ["linear", "pruning"])
@settings(max_examples=100, deadline=None)
@given(random_lakes())
@example(lake=(POSITIVE_TIE, E[0], 3, 0.6, False))
@example(lake=(ZERO_SCORES, E[0], 3, 0.6, False))
def test_exact_modes_equal_brute_force(mode, lake):
    """Linear and pruning return the first k of (score desc, table_id asc)
    over the lake's tables scoring above 0: tied tables keep the smaller ids,
    and no score-0 table pads the list."""
    store, q, k, tau, _ = lake
    res, _ = SearchEngine(store=store, mode=mode, tau=tau).query(q, k)
    assert res == brute_force_topk(store, q, k, tau)


@pytest.mark.parametrize("mode", ["linear", "pruning"])
def test_tie_behind_a_loose_bound(mode):
    """Query columns e0, e1. b's edges are [[0.8, 0.85], [0, 0.7]]: its UB
    (1.55) exceeds its score (0.8 + 0.7), so b is verified before a, whose
    UB is its score. They tie, and a must still displace b by table_id."""
    q = np.eye(2, dtype=np.float32)
    store = TableStore.from_arrays({
        "a": np.array([[0.8, 0.0], [0.0, 0.7]]),
        "b": np.array([[0.8, 0.0], [0.85, 0.7]]),
    })
    res, _ = SearchEngine(store=store, mode=mode, tau=0.6).query(q, 1)
    assert res == brute_force_topk(store, q, 1, 0.6)
    assert [t for t, _ in res] == ["a"]


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
    eng = SearchEngine(store=store, mode=mode, tau=0.6)
    res, stats = eng.query("tab000_g0", k=6)
    assert stats.n_candidates < len(store.table_ids)
    got = [t for t, _ in res]
    assert "tab000_g0" in got[:1]  # self is the best match
    same_group = sum(1 for t in got if t.endswith("_g0"))
    assert same_group >= 4


@pytest.mark.parametrize("mode", MODES)
def test_query_by_matrix(store, mode):
    eng = SearchEngine(store=store, mode=mode, tau=0.6)
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
    """k past the lake size returns every table scoring above 0, and only those."""
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    res, _ = eng.query("tab000_g0", k=500)
    assert res == brute_force_topk(store, "tab000_g0", 500, 0.6)
    assert 0 < len(res) < len(store.table_ids)


@pytest.mark.parametrize("mode", MODES)
def test_every_candidate_verified_or_pruned(store, mode):
    eng = SearchEngine(store=store, mode=mode, tau=0.6)
    for q in store.table_ids[:10]:
        _, stats = eng.query(q, k=5)
        assert stats.n_verifications + stats.n_ub_prunes == stats.n_candidates
        if mode == "linear":
            assert stats.n_ub_prunes == 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(store, mode, k):
    with pytest.raises(ValueError):
        SearchEngine(store=store, mode=mode).query("tab000_g0", k)


@pytest.mark.parametrize("mode", MODES)
def test_empty_store_returns_nothing(mode):
    eng = SearchEngine(store=TableStore.from_arrays({}), mode=mode)
    q = np.ones((2, 24), dtype=np.float32) / np.sqrt(24)
    res, stats = eng.query(q, k=5)
    assert res == [] and stats.n_candidates == 0


def test_memory_accounting(store):
    base = SearchEngine(store=store, mode="linear").memory_bytes()
    lsh = SearchEngine(store=store, mode="lsh").memory_bytes()
    hnsw = SearchEngine(store=store, mode="hnsw").memory_bytes()
    assert base == store.memory_bytes()
    assert lsh > base and hnsw > base


def test_store_flat_consistent(store):
    vecs, owners = store.flat()
    assert vecs.shape[0] == len(owners)
    assert vecs.shape[0] == sum(m.shape[0] for m in store.mats.values())


def test_invalid_mode_rejected(store):
    with pytest.raises(ValueError):
        SearchEngine(store=store, mode="fancy")


def test_hnsw_much_fewer_candidates_than_linear(store):
    eng = SearchEngine(store=store, mode="hnsw", tau=0.6, n_neighbors=5)
    _, stats = eng.query("tab005_g0", k=5)
    assert stats.n_candidates <= len(store.table_ids) // 2
