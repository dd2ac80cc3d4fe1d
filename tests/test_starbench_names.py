"""The pipeline names and calls starbench relies on must keep working.

``starbench/tracer.py`` replaces functions and methods by name, its
``StoreCapture`` wraps ``TableStore.from_embeddings_df``, and its offline
build calls ``build_method`` with the keywords of ``SETTINGS``; a refactor
that breaks one of them would otherwise only fail in a benchmark run. The
starbench modules are loaded from their files, unchanged.
"""
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.search.engine import SearchEngine, TableStore

_STARBENCH = Path(__file__).resolve().parents[1] / "starbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"starbench_{name}", _STARBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


_T = _load("tracer")
LAYERS = _T.OFFLINE_LAYERS + _T.SEARCH_LAYERS + _T.HNSW_LAYERS


@pytest.mark.parametrize("module,cls,attr", [layer[:3] for layer in LAYERS],
                         ids=[layer[3] for layer in LAYERS])
def test_traced_name_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in vars(owner)


def test_lsh_engine_calls_traced_methods():
    """An ``lsh`` engine makes one ``SimHashLSH.add`` per build and one
    ``SimHashLSH.query`` per query, whatever the query's width, so the
    traced ``search.lsh.*`` layers see every build and query."""
    g = np.random.default_rng(0)
    mats = {f"t{i}": g.normal(size=(i % 3 + 1, 8)) for i in range(6)}
    mats = {t: m / np.linalg.norm(m, axis=1, keepdims=True) for t, m in mats.items()}
    t = _T.Tracer(_T.SEARCH_LAYERS)
    try:
        engine = SearchEngine(store=TableStore.from_arrays(mats), mode="lsh")
        for q in ("t0", "t2", "t4"):
            engine.query(q, 2)
    finally:
        t.restore()
    assert t.calls["search.lsh.build"] == 1
    assert t.calls["search.lsh.query"] == t.calls["search.engine.query"] == 3


def test_units_kept_counts_every_collected_unit(prep_santos):
    """The traced ``collect_table_views`` counts every unit of the preprocessed
    lake. Its observer reads ``ColumnView.units`` and reports 0 when a view no
    longer has that shape, so this is the only check on ``units_kept``."""
    from pyspark.sql import functions as F

    from repro.experiments import common

    layers = [layer for layer in _T.OFFLINE_LAYERS if layer[2] == "collect_table_views"]
    t = _T.Tracer(layers)
    try:
        common.collect_table_views(prep_santos.prep_df, prep_santos.embedder)
    finally:
        t.restore()
    n_units = prep_santos.prep_df.select(F.sum(F.size("units"))).first()[0]
    assert n_units > 0
    assert t.values["core.preprocess.units_kept"] == n_units


def test_store_capture_name_resolves():
    assert "from_embeddings_df" in TableStore.__dict__


def test_offline_build_entry_point(spark, tiny_santos):
    """``spark_env.build_store`` with the benchmark's ``SETTINGS`` (1 epoch
    instead of 30) stores one finite unit-norm vector per lake column."""
    spark_env, store_cache = _load("spark_env"), _load("store_cache")
    prep, bundle = spark_env.build_store(spark, tiny_santos, {**store_cache.SETTINGS, "epochs": 1})
    try:
        n_cols = Counter(c["table_id"] for c in tiny_santos.rows)
        assert {t: len(m) for t, m in bundle.store.mats.items()} == n_cols
        vecs, _ = bundle.store.flat()
        assert np.isfinite(vecs).all()
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-5)
    finally:
        spark_env.release(prep)
