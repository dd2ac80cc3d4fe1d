"""The workloads: the offline lake→store build, exact and LSH table-union search.

Each workload runs in its own process with one closed-loop client (the
next build or query starts when the previous one has returned). Set-up
time is measured from after the imports. Search workloads never start a
JVM: they load the store from the cache. A failed output check counts
its operation as failed; a failed check of the whole store or of the
quality figures counts every operation of the run as failed.
"""
from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from store_cache import SETTINGS, Cache

SEARCH_MODES = {
    "search_exact_tus_large": "pruning",
    "search_lsh_tus_large": "lsh",
}
OFFLINE = "offline_build_tus_large"
WORKLOADS = (OFFLINE, *SEARCH_MODES)

# Set-up is repeated until it has taken MIN_SETUP_SECONDS, and its median
# reported: a millisecond set-up is timed hundreds of times, a slow one once.
MIN_SETUP_SECONDS = 2.0
# The offline warm-up builds one in WARMUP_SHARE of the lake's tables, picked by the seed.
WARMUP_SHARE = 32
SCORE_TOL = 1e-6
NORM_TOL = 1e-4

# The reproduction's figures on tus_large_lite with k = 60 (Starmie, drop_col,
# 30 epochs, lr 3e-3). The cache is rebuilt by the code under test, so the
# checks also hold the store and the quality to these fixed values: a run
# whose quality is further than QUALITY_TOL from them fails.
LAKE_TABLES = 2080
LAKE_COLUMNS = 7205
EXPECTED_QUALITY = {
    "pruning": {"map_at_k": 0.904, "recall_at_k": 0.841, "recall_vs_exact": 1.0},
    "lsh": {"map_at_k": 0.903, "recall_at_k": 0.840, "recall_vs_exact": 0.985},
}
QUALITY_TOL = 0.01

# name -> unit; BENCHMARK.json holds which way is better and the bounds.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "qps": "1/s",
    "map_at_k": "ratio",
    "recall_at_k": "ratio",
    "recall_vs_exact": "ratio",
    "engine_mb": "MiB",
    "peak_rss_mb": "MiB",
}


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _positive(ranking):
    """Positive-score entries in (score desc, table_id asc) order."""
    return sorted(((t, s) for t, s in ranking if s > 0), key=lambda e: (-e[1], e[0]))


def same_ranking(got, ref) -> bool:
    g, r = _positive(got), _positive(ref)
    return (len(g) == len(r)
            and all(a[0] == b[0] and abs(a[1] - b[1]) <= SCORE_TOL for a, b in zip(g, r)))


def recall_vs_exact(results: dict, reference: dict) -> float:
    """Share of the exact top-k's positive-score tables that a mode returns."""
    hit = total = 0
    for q, ref in reference.items():
        want = {t for t, s in ref if s > 0}
        got = {t for t, s in results[q] if s > 0}
        hit += len(want & got)
        total += len(want)
    return hit / total if total else 1.0


def mismatched_scores(results: dict, mats: dict, tau: float) -> set[str]:
    """Queries whose returned scores differ from ``table_union_score``
    recomputed from the store's embeddings."""
    from repro.search.matching import table_union_score

    return {q for q, res in results.items()
            if any(abs(s - table_union_score(mats[q] @ mats[t].T, tau)) > SCORE_TOL
                   for t, s in res)}


def _quality(results: dict, cache: Cache) -> dict[str, float]:
    from repro.eval.metrics import evaluate_rankings

    rankings = {q: [t for t, _ in results[q]] for q in cache.labelled}
    ev = evaluate_rankings(rankings, cache.ground_truth, SETTINGS["k"])
    return {"map_at_k": ev["map"], "recall_at_k": ev["r"]}


def quality_problems(quality: dict[str, float], mode: str) -> list[str]:
    return [f"{name}={quality[name]:.4f} expected {want}"
            for name, want in EXPECTED_QUALITY[mode].items()
            if abs(quality[name] - want) > QUALITY_TOL]


def store_problems(emb) -> list[str]:
    """The store must hold one finite, unit-norm vector per lake column."""
    out = []
    if len(emb.table_ids) != LAKE_TABLES or emb.vecs.shape[0] != LAKE_COLUMNS:
        out.append(f"store has {len(emb.table_ids)} tables and {emb.vecs.shape[0]} columns, "
                   f"expected {LAKE_TABLES} and {LAKE_COLUMNS}")
    if not np.isfinite(emb.vecs).all():
        out.append("store has non-finite embeddings")
    elif not np.all(np.abs(np.linalg.norm(emb.vecs.astype(np.float64), axis=1) - 1) <= NORM_TOL):
        out.append("store has embeddings that are not unit-norm")
    return out


def _scaled(raw: dict[str, float], setup: float, run: float) -> dict[str, float]:
    """Raw times at the reference host speed, each phase with its own factor."""
    return {
        "setup_s": raw["setup_s"] * setup,
        "build_s": raw["build_s"] * setup,
        "latency_p50_ms": raw["latency_p50_ms"] * run,
        "latency_p95_ms": raw["latency_p95_ms"] * run,
        "qps": raw["qps"] / run,
    }


def _overhead_pct(t, traced_s: float) -> float:
    """The wrappers' added time as a share of the traced time without it."""
    added = t.overhead_s()
    return added / (traced_s - added) * 100.0


def _raw_note(raw: dict[str, float], f_setup: float, f_run: float) -> str:
    figures = " ".join(f"{k}={v:.6g}" for k, v in raw.items())
    return f"raw {figures} speed_factor setup={f_setup:.4f} run={f_run:.4f}"


# -- search -------------------------------------------------------------------

def _query_passes(engine, population, rng, seconds, meter):
    """Whole passes over the population, each in a fresh seeded order.

    The calibration kernel runs between queries, outside their timers.
    """
    k = SETTINGS["k"]
    lat: list[float] = []
    passes: list[dict] = []
    perf = time.perf_counter
    gc.collect()
    gc.freeze()
    meter.burst()
    end = perf() + seconds
    try:
        while not passes or perf() < end:
            out = {}
            for i in rng.permutation(len(population)):
                q = population[i]
                meter.tick()
                t0 = perf()
                res, _ = engine.query(q, k)
                lat.append(perf() - t0)
                out[q] = res
            passes.append(out)
    finally:
        gc.unfreeze()
    meter.burst()
    return lat, passes


def _build_engine(cache: Cache, mode: str):
    from repro.search.engine import SearchEngine, TableStore

    t0 = time.perf_counter()
    mats = cache.load_embeddings().mats()
    t1 = time.perf_counter()
    store = TableStore.from_arrays(mats)
    engine = SearchEngine(store=store, mode=mode, tau=cache.meta["tau"])
    t2 = time.perf_counter()
    return engine, t2 - t0, t2 - t1


def run_search(workload: str, cache: Cache, seed: int, seconds: float,
               trace: bool) -> tuple[Result, dict | None]:
    from pyspark import SparkContext

    import hostspeed as hs
    import repro.search.engine  # noqa: F401  (loaded before the set-up clock starts)

    mode = SEARCH_MODES[workload]
    setup, build = [], []
    setup_meter = hs.Meter(interval=0.0)  # a kernel before every repeat
    setup_meter.burst()
    gc.collect()
    t_setup = time.perf_counter()
    while not setup or time.perf_counter() - t_setup < MIN_SETUP_SECONDS:
        setup_meter.tick()
        engine, s, b = _build_engine(cache, mode)
        setup.append(s)
        build.append(b)
    setup_meter.burst()
    f_setup = setup_meter.factor()

    rng = np.random.default_rng(seed)
    population = cache.population
    meter = hs.Meter()
    lat, passes = _query_passes(engine, population, rng, seconds, meter)
    f_run = meter.factor()

    # Check the first pass (exact: against the linear reference; LSH: every
    # score against a recomputation); later passes must repeat it exactly.
    reference = cache.reference
    emb = cache.load_embeddings()
    first = passes[0]
    if mode == "pruning":
        bad = {q for q, res in first.items() if not same_ranking(res, reference[q])}
    else:
        bad = mismatched_scores(first, emb.mats(), cache.meta["tau"])
    failed = sum(1 for p in passes for q, res in p.items() if q in bad or res != first[q])

    quality = {**_quality(first, cache), "recall_vs_exact": recall_vs_exact(first, reference)}
    problems = store_problems(emb) + quality_problems(quality, mode)
    if problems:
        failed = len(lat)

    raw = {
        "setup_s": statistics.median(setup),
        "build_s": statistics.median(build),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(lat, 95)) * 1e3,
        "qps": len(lat) / sum(lat),
    }
    metrics = {
        **_scaled(raw, f_setup, f_run),
        **quality,
        "engine_mb": engine.memory_bytes() / 2**20,
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = [f"mode={mode} queries={len(population)} passes={len(passes)} "
             f"latency samples={len(lat)} setups={len(setup)} "
             f"jvm_started={SparkContext._gateway is not None} failed queries={sorted(bad)[:5]}",
             *(f"check failed: {p}" for p in problems),
             _raw_note(raw, f_setup, f_run)]
    attempted = len(lat)

    layers = None
    if trace:
        layers, n_traced = _traced_search(mode, cache, rng, seconds)
        attempted += n_traced
        if mode == "lsh":
            # The HNSW index has no workload of its own (see README.md): its
            # layer is traced here, and its scores are checked like LSH's.
            hnsw, n_hnsw, hnsw_bad = _traced_hnsw(cache, rng, emb)
            layers.update(hnsw)
            attempted += n_hnsw
            failed += len(hnsw_bad)
            notes.append(f"traced hnsw: queries={n_hnsw} failed queries={sorted(hnsw_bad)[:5]}")
    return Result(attempted, failed, metrics, notes), layers


def _traced_search(mode: str, cache: Cache, rng, seconds: float) -> tuple[dict, int]:
    """Per-layer figures: a second engine build and ``seconds`` of query
    passes with the search layers wrapped."""
    import hostspeed as hs
    import tracer as tr

    meter = hs.Meter()
    t = tr.Tracer(tr.SEARCH_LAYERS)
    try:
        meter.burst()
        engine, _, _ = _build_engine(cache, mode)
        lat, _ = _query_passes(engine, cache.population, rng, seconds, meter)
    finally:
        t.restore()
    layers = tr.search_metrics(t, len(lat), meter.factor())
    layers["trace.overhead_pct"] = _overhead_pct(t, sum(lat))
    return layers, len(lat)


def _traced_hnsw(cache: Cache, rng, emb) -> tuple[dict, int, set[str]]:
    """An HNSW engine built and queried once over the population, with the
    index's build and search traced; returns the queries whose scores are wrong."""
    import hostspeed as hs
    import tracer as tr

    build_meter, meter = hs.Meter(), hs.Meter()
    t = tr.Tracer(tr.HNSW_LAYERS)
    try:
        build_meter.burst()
        engine, _, _ = _build_engine(cache, "hnsw")
        build_meter.burst()
        lat, passes = _query_passes(engine, cache.population, rng, 0.0, meter)
    finally:
        t.restore()
    bad = mismatched_scores(passes[0], emb.mats(), cache.meta["tau"])
    return tr.hnsw_metrics(t, len(lat), build_meter.factor(), meter.factor()), len(lat), bad


# -- offline ------------------------------------------------------------------

def _check_build(emb, bundle, cache: Cache) -> tuple[list[str], dict[str, float]]:
    """Problems with a built store, and the quality of exact search on it.

    The store must hold one finite unit-norm vector per lake column, for
    the cache's tables, and exact search on it must give the expected and
    the cached reference quality.
    """
    from repro.search.engine import SearchEngine

    if emb is None:
        return ["build_method loaded no embedding DataFrame through "
                "TableStore.from_embeddings_df; nothing to check"], {}
    problems = store_problems(emb)
    if emb.table_ids != cache.load_embeddings().table_ids:
        problems.append("store tables differ from the cache's")
    engine = SearchEngine(store=bundle.store, mode="pruning", tau=bundle.tau)
    results = {q: engine.query(q, SETTINGS["k"])[0] for q in cache.labelled}
    ref = cache.reference
    quality = {**_quality(results, cache),
               "recall_vs_exact": recall_vs_exact(results, {q: ref[q] for q in cache.labelled})}
    problems += quality_problems(quality, "pruning")
    ref_map = cache.meta["reference_quality"]["map"]
    if abs(quality["map_at_k"] - ref_map) > 1e-9:
        problems.append(f"map_at_k={quality['map_at_k']:.6f} differs from the cached "
                        f"reference {ref_map:.6f}")
    return problems, {**quality, "engine_mb": engine.memory_bytes() / 2**20}


def run_offline(cache: Cache, work, seed: int, seconds: float,
                trace: bool) -> tuple[Result, dict | None]:
    """Warm up on a seeded share of the lake, then time whole-lake builds.

    Spark's JVM starts while the pipeline's modules are imported (each takes
    about 15 s); set-up is timed from when both are done. Times are raw:
    the host-speed kernel does not track this workload (see ``hostspeed``).
    """
    import importlib
    import threading

    from pyspark.sql import functions as F

    import spark_env
    import tracer as tr

    importer = threading.Thread(target=importlib.import_module,
                                args=("repro.experiments.common",))
    importer.start()
    spark = spark_env.start_spark(work)
    capture = None
    try:
        importer.join()
        from repro.datalake.generator import Lake

        t_setup = time.perf_counter()
        lake = spark_env.read_lake(spark, cache.lake_path, cache.labelled,
                                   cache.ground_truth)
        capture = spark_env.StoreCapture()
        tids = np.asarray(cache.load_embeddings().table_ids)
        rng = np.random.default_rng(seed)
        warm_ids = sorted(rng.choice(tids, size=len(tids) // WARMUP_SHARE,
                                     replace=False).tolist())
        warm = Lake(name="warmup", df=lake.df.where(F.col("table_id").isin(warm_ids)),
                    queries=[], ground_truth={})
        prep, _ = spark_env.build_store(spark, warm, SETTINGS)
        capture.clear()
        spark_env.release(prep)
        setup_s = time.perf_counter() - t_setup

        # A traced run times one traced build in place of the untraced ones
        # (two whole-lake builds would not fit in a run).
        t = tr.Tracer(tr.OFFLINE_LAYERS) if trace else None
        builds, failed, notes, checked = [], 0, [], {}
        while not builds or sum(builds) < seconds:
            spark_env.jvm_gc(spark)
            t0 = time.perf_counter()
            prep, bundle = spark_env.build_store(spark, lake, SETTINGS)
            builds.append(time.perf_counter() - t0)
            if t is not None:
                t.restore()
            t1 = time.perf_counter()
            emb = capture.take()
            spark_env.release(prep)
            t2 = time.perf_counter()
            problems, checked = _check_build(emb, bundle, cache)
            failed += bool(problems)
            notes.append(f"build {len(builds)}: columns="
                         f"{'-' if emb is None else emb.vecs.shape[0]} "
                         f"map={checked.get('map_at_k', float('nan')):.6f} "
                         f"collect_s={t2 - t1:.1f} check_s={time.perf_counter() - t2:.1f}")
            notes.extend(f"check failed: {p}" for p in problems)
        layers = None
        if t is not None:
            layers = tr.offline_metrics(t)
            layers["trace.overhead_pct"] = _overhead_pct(t, sum(builds))
    finally:
        if capture is not None:
            capture.close()
        spark_env.stop_spark(spark)

    metrics = {
        "setup_s": setup_s,
        "build_s": statistics.median(builds),
        "latency_p50_ms": float(np.percentile(builds, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(builds, 95)) * 1e3,
        "qps": len(builds) / sum(builds),
        "map_at_k": checked.get("map_at_k", 0.0),
        "recall_at_k": checked.get("recall_at_k", 0.0),
        "recall_vs_exact": checked.get("recall_vs_exact", 0.0),
        "engine_mb": checked.get("engine_mb", 0.0),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes.append(f"builds={len(builds)} warmup_tables={len(warm_ids)} "
                 f"spark=local[{spark_env.spark_threads()}]")
    return Result(len(builds), failed, metrics, notes), layers
