"""Bipartite matching, bounds, and the paper's worked example (Fig. 7 / Ex. 4.2)."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.matching import (
    hungarian_max,
    lower_bound,
    table_union_score,
    threshold_edges,
    upper_bound,
)


def brute_force_max_matching(w: np.ndarray) -> float:
    """Reference: maximum-weight matching by exhaustive column subsets."""
    m, n = w.shape
    best = 0.0
    rows = list(range(m))
    for k in range(0, min(m, n) + 1):
        for rsub in itertools.combinations(rows, k):
            for csub in itertools.permutations(range(n), k):
                s = sum(w[i, j] for i, j in zip(rsub, csub))
                best = max(best, s)
    return best


@st.composite
def weight_matrices(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    vals = draw(
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32), min_size=m * n, max_size=m * n
        )
    )
    return np.array(vals).reshape(m, n)


@settings(max_examples=120, deadline=None)
@given(weight_matrices())
def test_hungarian_matches_brute_force(w):
    score, matching = hungarian_max(w)
    assert score == pytest.approx(brute_force_max_matching(w), abs=1e-9)
    # matching validity: one edge per node, positive weights only
    rows = [i for i, _ in matching]
    cols = [j for _, j in matching]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    assert score == pytest.approx(sum(w[i, j] for i, j in matching), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(weight_matrices(), st.floats(0.1, 0.9))
def test_bounds_sandwich_exact(w, tau):
    exact = table_union_score(w, tau)
    lb = lower_bound(w, tau)
    ub = upper_bound(w, tau)
    assert lb <= exact + 1e-9
    assert exact <= ub + 1e-9


@st.composite
def float32_weights(draw):
    """float32 weight matrices; a few repeated values make rows share their
    heaviest column, which sends the score to Hungarian."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    val = st.floats(0, 1, width=32) | st.sampled_from([0.0, 0.5, 0.75, 1.0])
    vals = draw(st.lists(val, min_size=m * n, max_size=m * n))
    return np.array(vals, dtype=np.float32).reshape(m, n)


@settings(max_examples=300, deadline=None)
@given(float32_weights(), st.floats(0.1, 0.9))
def test_union_score_equals_hungarian_exactly(w, tau):
    """Whether certified or not, the score is Hungarian's float, and the
    brute-force optimum."""
    t = threshold_edges(w, tau)
    score = table_union_score(w, tau)
    assert score == hungarian_max(t)[0]
    assert score == brute_force_max_matching(t.astype(np.float64))


def test_certificate_skips_hungarian(monkeypatch):
    calls = []
    real = hungarian_max
    monkeypatch.setattr(
        "repro.search.matching.hungarian_max", lambda w: calls.append(w) or real(w))
    w = np.array([[0.9, 0.6, 0.0], [0.7, 0.8, 0.0]])
    assert table_union_score(w, 0.5) == 0.9 + 0.8  # row maxima in distinct columns
    assert calls == []
    # rows 0 and 1 of Fig. 7 both peak in column 1, so Hungarian decides
    assert table_union_score(fig7_matrix(), 0.5) == pytest.approx(2.15)
    assert len(calls) == 1


def fig7_matrix():
    sim = np.zeros((4, 3))
    sim[0, 0] = 0.8
    sim[0, 1] = 0.85
    sim[1, 1] = 0.7
    sim[2, 2] = 0.3  # below τ=0.5 — discarded (dashed edge in Fig. 7)
    sim[3, 2] = 0.65
    return sim


def test_fig7_exact_score():
    assert table_union_score(fig7_matrix(), 0.5) == pytest.approx(2.15)


def test_example_4_2_upper_bound():
    """The paper's greedy UB is 3.0 here (0.85 + 0.8 + 0.7 + 0.65, stopping
    once every lake column is covered). Our bound takes the smaller of
    Σ row maxima (0.85 + 0.7 + 0.65 = 2.2) and Σ column maxima (2.3)."""
    assert upper_bound(fig7_matrix(), 0.5) == pytest.approx(2.2)


def test_example_4_2_lower_bound():
    assert lower_bound(fig7_matrix(), 0.5) == pytest.approx(1.5)


def test_threshold_removes_subtau_edges():
    w = threshold_edges(fig7_matrix(), 0.5)
    assert w[2, 2] == 0.0
    assert w[0, 1] == pytest.approx(0.85)


def test_empty_matrix():
    assert table_union_score(np.zeros((0, 3)), 0.5) == 0.0
    assert table_union_score(np.zeros((3, 0)), 0.5) == 0.0
    assert upper_bound(np.zeros((2, 2)), 0.5) == 0.0
    assert lower_bound(np.zeros((2, 2)), 0.5) == 0.0


def test_all_below_threshold():
    w = np.full((3, 3), 0.4)
    assert table_union_score(w, 0.5) == 0.0


def test_identity_similarity():
    w = np.eye(4)
    assert table_union_score(w, 0.5) == pytest.approx(4.0)


def test_rectangular_more_rows():
    w = np.array([[0.9, 0.0], [0.8, 0.7], [0.0, 0.95]])
    # best: (0,0)=0.9 + (2,1)=0.95
    assert table_union_score(w, 0.5) == pytest.approx(1.85)


def test_lb_equals_exact_when_disjoint():
    w = np.diag([0.9, 0.8, 0.7])
    assert lower_bound(w, 0.5) == pytest.approx(table_union_score(w, 0.5))


def test_ub_equals_exact_for_perfect_match():
    w = np.eye(3) * 0.9
    assert upper_bound(w, 0.5) == pytest.approx(2.7)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_hungarian_square_random(n):
    g = np.random.default_rng(n)
    w = g.random((n, n))
    score, matching = hungarian_max(w)
    assert len(matching) == n  # all weights positive → perfect matching
    if n <= 5:
        best = max(
            sum(w[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert score == pytest.approx(best)
