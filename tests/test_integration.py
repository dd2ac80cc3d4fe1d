"""End-to-end integration: full pipeline → search → paper-shape assertions."""
import numpy as np
import pytest

from repro.eval.metrics import evaluate_rankings
from repro.experiments.common import build_method, method_embeddings_df, run_union_search
from repro.search.engine import TableStore


@pytest.fixture(scope="module")
def tus_bundles(prep_tus):
    out = {"starmie": None, "singlecol": None, "sherlock": None, "d3l": None}
    out["starmie"] = build_method(prep_tus, "starmie", op="drop_col", epochs=10)
    out["singlecol"] = build_method(prep_tus, "singlecol", op="drop_col", epochs=10)
    out["sherlock"] = build_method(prep_tus, "sherlock")
    out["d3l"] = build_method(prep_tus, "d3l")
    return out


def _score(bundle, lake, k=10, mode="pruning"):
    run = run_union_search(bundle, lake.queries, k=k, mode=mode)
    return evaluate_rankings(run.rankings, lake.ground_truth, k), run


def test_starmie_high_map_on_tus(tiny_tus, tus_bundles):
    ev, _ = _score(tus_bundles["starmie"], tiny_tus)
    assert ev["map"] >= 0.8


def test_starmie_ordering_at_scale(spark, medium_tus, prep_medium_tus):
    """The paper's central result (Table 3) needs a non-trivial lake:
    Starmie > SingleCol and Starmie > the feature baselines."""
    k = 60
    scores = {}
    for m, kw in (
        ("starmie", dict(op="drop_col", epochs=12)),
        ("singlecol", dict(op="drop_col", epochs=12)),
        ("sherlock", {}),
        ("d3l", {}),
    ):
        bundle = build_method(prep_medium_tus, m, **kw)
        run = run_union_search(bundle, medium_tus.queries, k=k, mode="pruning")
        scores[m] = evaluate_rankings(run.rankings, medium_tus.ground_truth, k)["map"]
    assert scores["starmie"] > scores["singlecol"]
    assert scores["starmie"] > scores["sherlock"]
    assert scores["starmie"] > scores["d3l"]
    assert scores["starmie"] >= 0.9


def test_linear_equals_pruning_end_to_end(tiny_tus, tus_bundles):
    ev_lin, run_lin = _score(tus_bundles["starmie"], tiny_tus, mode="linear")
    ev_prn, run_prn = _score(tus_bundles["starmie"], tiny_tus, mode="pruning")
    assert run_lin.rankings == run_prn.rankings
    assert run_prn.avg_verifications <= run_lin.avg_verifications


@pytest.mark.parametrize("mode", ["lsh", "hnsw"])
def test_index_modes_preserve_most_quality(tiny_tus, tus_bundles, mode):
    """Table 5 shape: approximate indexes lose some but not all quality."""
    ev_exact, _ = _score(tus_bundles["starmie"], tiny_tus, mode="pruning")
    ev_idx, run = _score(tus_bundles["starmie"], tiny_tus, mode=mode)
    assert ev_idx["map"] >= 0.5 * ev_exact["map"]
    assert run.avg_candidates <= len(tus_bundles["starmie"].store.table_ids)


def test_hnsw_filters_candidates(tiny_tus, tus_bundles):
    _, run = _score(tus_bundles["starmie"], tiny_tus, mode="hnsw")
    n_tables = len(tus_bundles["starmie"].store.table_ids)
    assert run.avg_candidates < n_tables


def test_santos_runs_on_santos_lake(tiny_santos, prep_santos):
    bundle = build_method(prep_santos, "santos")
    run = run_union_search(bundle, tiny_santos.queries, k=5)
    ev = evaluate_rankings(run.rankings, tiny_santos.ground_truth, 5)
    assert ev["map"] > 0.5


def test_starmie_effective_on_santos_lake(tiny_santos, starmie_santos):
    run = run_union_search(starmie_santos, tiny_santos.queries, k=5, mode="pruning")
    ev = evaluate_rankings(run.rankings, tiny_santos.ground_truth, 5)
    assert ev["map"] >= 0.8


def test_query_returns_self_first(tiny_santos, starmie_santos):
    """A query table must retrieve itself with the top score."""
    run = run_union_search(starmie_santos, tiny_santos.queries[:3], k=3)
    for q, ranked in run.rankings.items():
        assert ranked[0] == q


def test_engine_memory_is_small_fraction(starmie_santos, tiny_santos):
    """Table 6 shape: the vector store is far smaller than the lake."""
    lake_cells = sum(
        len(c["cells"]) for cols in tiny_santos.tables().values() for c in cols
    )
    approx_lake_bytes = lake_cells * 8  # very conservative lower bound
    assert starmie_santos.store.memory_bytes() < 50 * approx_lake_bytes


@pytest.mark.parametrize("method", ["starmie", "sherlock"])
def test_build_method_loads_method_embeddings(prep_santos, method):
    """build_method's store is exactly method_embeddings_df's vectors."""
    kw = dict(op="drop_col", epochs=3, lr=3e-3)
    store = build_method(prep_santos, method, **kw).store
    ref = TableStore.from_embeddings_df(method_embeddings_df(prep_santos, method, **kw))
    assert store.table_ids == ref.table_ids
    for tid in ref.table_ids:
        np.testing.assert_array_equal(store.mats[tid], ref.mats[tid])
