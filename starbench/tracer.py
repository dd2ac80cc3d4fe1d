"""Per-layer tracing from outside the program.

The tracer replaces the pipeline's public functions at the names the
pipeline calls them by (``repro.experiments.common.tokenize_lake``,
``repro.search.engine.upper_bound`` ...) with wrappers
that time each call. Spans are aggregated in memory per layer (calls,
total time, self time = total minus the time of traced calls made inside
it), because an exact-search pass makes about 600k bounds calls. A layer
that touches Spark runs its calls under its own job group, so Spark jobs
are counted per layer from the status tracker.

Offline stages return lazy DataFrames. A traced ``tokenize_lake`` or
``preprocess_lake`` materialises its result (persist + count) inside its
span, so the stage's Spark work is timed in its own layer instead of in
the next action; the extra count job is part of the tracing overhead.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

_GROUP = "spark.jobGroup.id"


def _materialise(tracer, name, args, out):
    out.persist()
    out.count()


def _observe_vocab(tracer, name, args, out):
    tracer.values["core.encoder.vocab_size"] += len(out.vectors)


def _observe_units(tracer, name, args, out):
    tracer.values["core.preprocess.units_kept"] += sum(
        len(c.units) for view in out.values() for c in view.cols)


def _observe_steps(tracer, name, args, out):
    tracer.values["core.encoder.train_steps"] += len(out.losses)


def _observe_pairs(tracer, name, args, out):
    tracer.values["core.contrastive.pairs"] += len(args[1])


def _observe_query(tracer, name, args, out):
    st = out[1]
    k = args[2] if len(args) > 2 else 10
    v = tracer.values
    v["search.engine.candidates"] += st.n_candidates
    v["search.engine.verifications"] += st.n_verifications
    v["search.engine.ub_prunes"] += st.n_ub_prunes
    v["search.engine.beyond_k"] += max(st.n_candidates - k, 0)


# (module, class or None, attribute, layer, counts Spark jobs, observer)
OFFLINE_LAYERS = (
    ("repro.experiments.common", None, "tokenize_lake", "core.tokenize", True, _materialise),
    ("repro.experiments.common", None, "idf_map", "core.tfidf", True, None),
    ("repro.experiments.common", None, "preprocess_lake", "core.preprocess", True, _materialise),
    ("repro.experiments.common", None, "train_word2vec", "core.encoder.word2vec", True,
     _observe_vocab),
    ("repro.experiments.common", None, "collect_table_views", "core.encoder.collect_views",
     True, _observe_units),
    ("repro.core.encoder", "MultiColumnEncoder", "train", "core.encoder.train", False,
     _observe_steps),
    ("repro.core.encoder", None, "loss_and_grad", "core.contrastive.loss_grad", False,
     _observe_pairs),
    ("repro.core.encoder", None, "apply_op", "core.augment.apply_op", False, None),
    ("repro.experiments.common", None, "infer_embeddings", "core.encoder.infer", True, None),
    ("repro.search.engine", "TableStore", "from_embeddings_df", "core.encoder.store_collect",
     True, None),
)

SEARCH_LAYERS = (
    ("repro.search.engine", "SearchEngine", "query", "search.engine.query", False,
     _observe_query),
    ("repro.search.engine", None, "upper_bound", "search.matching.upper_bound", False, None),
    ("repro.search.engine", None, "lower_bound", "search.matching.lower_bound", False, None),
    ("repro.search.engine", None, "table_union_score", "search.matching.verify", False, None),
    ("repro.search.matching", None, "hungarian_max", "search.matching.hungarian", False, None),
    ("repro.search.lsh", "SimHashLSH", "add", "search.lsh.build", False, None),
    ("repro.search.lsh", "SimHashLSH", "query", "search.lsh.query", False, None),
)

HNSW_LAYERS = (
    ("repro.search.hnsw", "HNSW", "add_batch", "search.hnsw.build", False, None),
    ("repro.search.hnsw", "HNSW", "search", "search.hnsw.search", False, None),
)

# name -> unit, in the order of BENCHMARK.json's per_layer.
PER_LAYER = {
    "core.tokenize.s": "s",
    "core.tokenize.spark_jobs": "count",
    "core.tfidf.s": "s",
    "core.tfidf.spark_jobs": "count",
    "core.preprocess.s": "s",
    "core.preprocess.spark_jobs": "count",
    "core.preprocess.units_kept": "count",
    "core.encoder.word2vec_s": "s",
    "core.encoder.word2vec_spark_jobs": "count",
    "core.encoder.vocab_size": "count",
    "core.encoder.collect_views_s": "s",
    "core.encoder.train_s": "s",
    "core.encoder.train_steps": "count",
    "core.encoder.train_self_s": "s",
    "core.contrastive.loss_grad_s": "s",
    "core.contrastive.loss_grad_calls": "count",
    "core.contrastive.pairs_per_call": "count",
    "core.augment.apply_op_s": "s",
    "core.augment.apply_op_calls": "count",
    "core.encoder.infer_collect_s": "s",
    "core.encoder.infer_spark_jobs": "count",
    "search.engine.query_ms": "ms",
    "search.engine.self_ms": "ms",
    "search.engine.candidates_per_query": "count",
    "search.engine.verifications_per_query": "count",
    "search.engine.ub_prune_ratio": "ratio",
    "search.matching.upper_bound_ms": "ms",
    "search.matching.upper_bound_calls": "count",
    "search.matching.lower_bound_ms": "ms",
    "search.matching.lower_bound_calls": "count",
    "search.matching.verify_ms": "ms",
    "search.matching.verify_calls": "count",
    "search.matching.hungarian_calls": "count",
    "search.hnsw.build_s": "s",
    "search.hnsw.search_ms": "ms",
    "search.hnsw.search_calls": "count",
    "search.lsh.build_s": "s",
    "search.lsh.query_ms": "ms",
    "search.lsh.query_calls": "count",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Wraps layer entry points and aggregates their spans until ``restore``."""

    def __init__(self, layers):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._groups: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []
        for module, cls, attr, layer, spark, observe in layers:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._wrap(owner, attr, layer, spark, observe)

    def _wrap(self, owner, attr, layer, spark, observe):
        raw = vars(owner)[attr]
        fn = getattr(owner, attr)  # bound for class methods, plain otherwise
        group = f"starbench-{id(self)}-{layer}" if spark else None
        if spark:
            self._groups[layer] = group
        stack, perf = self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            sc = prev = None
            if group is not None:
                from pyspark import SparkContext

                sc = SparkContext._active_spark_context
                prev = sc.getLocalProperty(_GROUP)
                sc.setLocalProperty(_GROUP, group)
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        observe(self, layer, args, out)
                    except (AttributeError, TypeError, IndexError):
                        # The result no longer has the shape this counter
                        # reads; the counter reports 0 instead of failing.
                        pass
                return out
            finally:
                dur = perf() - frame[0]
                stack.pop()
                calls[layer] += 1
                total[layer] += dur
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sc is not None:
                    sc.setLocalProperty(_GROUP, prev)

        wrapped = staticmethod(traced) if isinstance(raw, (staticmethod, classmethod)) else traced
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def overhead_s(self) -> float:
        """Time the wrappers added: calls made × the cost of one wrapper call,
        timed on a no-op. (The count jobs of materialised stages are not
        included; they run work the next action would otherwise run.)"""
        import types

        def noop():
            return None

        probe = Tracer(())
        owner = types.SimpleNamespace(noop=noop)
        probe._wrap(owner, "noop", "probe", False, None)
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            owner.noop()
        per_call = max(time.perf_counter() - t0 - bare, 0.0) / n
        return per_call * sum(self.calls.values())

    def spark_jobs(self, layer: str) -> int:
        from pyspark import SparkContext

        sc = SparkContext._active_spark_context
        group = self._groups.get(layer)
        if sc is None or group is None:
            return 0
        return len(sc.statusTracker().getJobIdsForGroup(group))


def offline_metrics(t: Tracer) -> dict[str, float]:
    """Figures of the offline layers over one traced build (raw times)."""
    calls = t.calls
    lg = calls["core.contrastive.loss_grad"]
    return {
        "core.tokenize.s": t.total["core.tokenize"],
        "core.tokenize.spark_jobs": t.spark_jobs("core.tokenize"),
        "core.tfidf.s": t.total["core.tfidf"],
        "core.tfidf.spark_jobs": t.spark_jobs("core.tfidf"),
        "core.preprocess.s": t.total["core.preprocess"],
        "core.preprocess.spark_jobs": t.spark_jobs("core.preprocess"),
        "core.preprocess.units_kept": t.values["core.preprocess.units_kept"],
        "core.encoder.word2vec_s": t.total["core.encoder.word2vec"],
        "core.encoder.word2vec_spark_jobs": t.spark_jobs("core.encoder.word2vec"),
        "core.encoder.vocab_size": t.values["core.encoder.vocab_size"],
        "core.encoder.collect_views_s": t.total["core.encoder.collect_views"],
        "core.encoder.train_s": t.total["core.encoder.train"],
        "core.encoder.train_steps": t.values["core.encoder.train_steps"],
        "core.encoder.train_self_s": t.self_time["core.encoder.train"],
        "core.contrastive.loss_grad_s": t.total["core.contrastive.loss_grad"],
        "core.contrastive.loss_grad_calls": lg,
        "core.contrastive.pairs_per_call": t.values["core.contrastive.pairs"] / max(lg, 1),
        "core.augment.apply_op_s": t.total["core.augment.apply_op"],
        "core.augment.apply_op_calls": calls["core.augment.apply_op"],
        "core.encoder.infer_collect_s":
            t.total["core.encoder.infer"] + t.total["core.encoder.store_collect"],
        "core.encoder.infer_spark_jobs":
            t.spark_jobs("core.encoder.infer") + t.spark_jobs("core.encoder.store_collect"),
    }


def search_metrics(t: Tracer, queries: int, speed: float) -> dict[str, float]:
    """Per-query figures of the online layers over one engine build and
    ``queries`` queries (the LSH build per engine), times multiplied by the
    host-speed factor ``speed``."""
    ms = 1e3 * speed / queries
    per_q = 1.0 / queries
    v, calls, total = t.values, t.calls, t.total
    return {
        "search.engine.query_ms": total["search.engine.query"] * ms,
        "search.engine.self_ms": t.self_time["search.engine.query"] * ms,
        "search.engine.candidates_per_query": v["search.engine.candidates"] * per_q,
        "search.engine.verifications_per_query": v["search.engine.verifications"] * per_q,
        "search.engine.ub_prune_ratio":
            v["search.engine.ub_prunes"] / max(v["search.engine.beyond_k"], 1),
        "search.matching.upper_bound_ms": total["search.matching.upper_bound"] * ms,
        "search.matching.upper_bound_calls": calls["search.matching.upper_bound"] * per_q,
        "search.matching.lower_bound_ms": total["search.matching.lower_bound"] * ms,
        "search.matching.lower_bound_calls": calls["search.matching.lower_bound"] * per_q,
        "search.matching.verify_ms": total["search.matching.verify"] * ms,
        "search.matching.verify_calls": calls["search.matching.verify"] * per_q,
        "search.matching.hungarian_calls": calls["search.matching.hungarian"] * per_q,
        "search.lsh.build_s": total["search.lsh.build"] * speed,
        "search.lsh.query_ms": total["search.lsh.query"] * ms,
        "search.lsh.query_calls": calls["search.lsh.query"] * per_q,
    }


def hnsw_metrics(t: Tracer, queries: int, build_speed: float,
                 speed: float) -> dict[str, float]:
    """The HNSW index's build time and its per-query search figures over
    ``queries`` queries, times multiplied by their phase's host-speed factor."""
    return {
        "search.hnsw.build_s": t.total["search.hnsw.build"] * build_speed,
        "search.hnsw.search_ms": t.total["search.hnsw.search"] * 1e3 * speed / queries,
        "search.hnsw.search_calls": t.calls["search.hnsw.search"] / queries,
    }
