"""Vocabulary / domain-schema invariants the generator relies on."""
import hashlib

import numpy as np
import pytest

from repro.datalake.vocab import DOMAINS, TYPES, make_words


def test_make_words_deterministic():
    assert make_words(3, 20) == make_words(3, 20)


def test_make_words_unique():
    ws = make_words(5, 200)
    assert len(set(ws)) == 200


def test_make_words_title_case():
    assert all(w[0].isupper() for w in make_words(1, 10, title=True))
    assert all(w[0].islower() for w in make_words(1, 10, title=False))


@pytest.mark.parametrize("name", sorted(TYPES))
def test_type_sample_shape_and_determinism(name):
    spec = TYPES[name]
    a = spec.sample(25, np.random.default_rng(0))
    b = spec.sample(25, np.random.default_rng(0))
    assert a == b
    assert len(a) == 25
    assert all(isinstance(v, str) and v for v in a)


@pytest.mark.parametrize("name", sorted(t for t in TYPES if TYPES[t].kind == "text"))
def test_text_types_have_pools(name):
    assert len(TYPES[name].pool) >= 4


@pytest.mark.parametrize("name", sorted(t for t in TYPES if TYPES[t].is_numeric))
def test_numeric_types_sample_numbers(name):
    vals = TYPES[name].sample(10, np.random.default_rng(1))
    for v in vals:
        float(v)  # parseable


def test_domain_specific_pools_disjoint():
    """Non-shared text types must have pairwise-disjoint vocabularies."""
    pools = {
        n: set(s.pool) for n, s in TYPES.items() if s.kind == "text" and not s.shared
    }
    names = sorted(pools)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not (pools[a] & pools[b]), f"{a} and {b} share vocabulary"


def test_shared_types_used_across_domains():
    """Ambiguous types must appear in ≥ 3 domains (the Fig. 1 setup)."""
    counts: dict[str, int] = {}
    for d in DOMAINS:
        for t in set(d.type_names):
            counts[t] = counts.get(t, 0) + 1
    for t in ("year", "city", "state", "date"):
        assert counts[t] >= 3, f"{t} appears in only {counts.get(t, 0)} domains"


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
def test_domain_schema_valid(domain):
    assert 3 <= len(domain.columns) <= 8
    for cname, tname in domain.columns:
        assert cname
        assert tname in TYPES


def test_domain_names_unique():
    names = [d.name for d in DOMAINS]
    assert len(set(names)) == len(names)
    assert len(names) >= 36


# sha256 over repr([(name, pool), ...]) for TYPES in definition order.
# Every generated lake draws its values from these pools, so a change here
# silently changes every corpus, ranking and committed result.
TYPES_POOLS_SHA256 = "b77c4c379d1f39fe8e05f78b26bc8690606b3132f8dc16a6457b299d9d0f5b80"


def test_type_pools_pinned():
    pairs = [(name, spec.pool) for name, spec in TYPES.items()]
    assert len(pairs) == 79
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == TYPES_POOLS_SHA256
