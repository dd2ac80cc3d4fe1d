"""The persisted lake and the column-embedding store every workload starts from.

A cache entry holds the generated ``tus_large_lite`` lake as parquet, the
Starmie store built from it (``embeddings.npz``), the 40 labelled queries
with their ground truth, the query population, and the ``mode="linear"``
rankings of every population query, which the correctness checks compare
against. The entry is keyed by a digest of ``src/repro``, the build code
in this directory and ``SETTINGS``, so a change to any of them rebuilds it.

A miss is built in a child process (the search workloads must not host a
JVM), before any workload starts its ``setup_s`` clock, and is reported on
stderr together with the entry's provenance.

Run directly to build an entry: ``python3 starbench/store_cache.py DEST WORK``.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# The settings of the Table 3 effectiveness runner for Starmie on tus_large_lite.
SETTINGS = {
    "lake": "tus_large_lite",
    "method": "starmie",
    "op": "drop_col",
    "epochs": 30,
    "lr": 3e-3,
    "k": 60,
    # Every 8th lake table (by id) plus the labelled queries: 297 queries on
    # tus_large_lite, one exact-search pass of which takes about 10 s on one
    # 2 GHz Xeon vCPU.
    "population_stride": 8,
}

BUILD_TIMEOUT_S = 840


def digest(root: Path) -> str:
    h = hashlib.sha256(json.dumps(SETTINGS, sort_keys=True).encode())
    files = sorted((root / "src" / "repro").rglob("*.py"))
    files += [HERE / "store_cache.py", HERE / "spark_env.py"]
    for f in files:
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:20]


@dataclass
class Cache:
    path: Path
    meta: dict

    @property
    def lake_path(self) -> Path:
        return self.path / "lake.parquet"

    @property
    def labelled(self) -> list[str]:
        return self.meta["labelled"]

    @property
    def ground_truth(self) -> dict[str, set[str]]:
        return {q: set(ts) for q, ts in self.meta["ground_truth"].items()}

    @property
    def population(self) -> list[str]:
        return self.meta["population"]

    @property
    def reference(self) -> dict[str, list[list]]:
        """query -> its ``mode="linear"`` ranking as [table_id, score] pairs."""
        return self.meta["reference"]

    def load_embeddings(self):
        from spark_env import Embeddings

        with np.load(self.path / "embeddings.npz") as z:
            return Embeddings(z["table_ids"].tolist(), z["offsets"], z["vecs"])


def ensure(root: Path, work: Path) -> Cache:
    """The cache entry for this checkout, built in a child process on a miss."""
    d = digest(root)
    path = work / f"store-{d}"
    if not (path / "meta.json").is_file():
        tmp = work / f"store-{d}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "store_cache.py"), str(tmp), str(work)],
            check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr,
        )
        try:
            tmp.rename(path)
        except OSError:  # another run finished the same entry first
            shutil.rmtree(tmp, ignore_errors=True)
        for stale in work.glob("store-*"):  # entries of other source versions
            if stale != path and ".tmp" not in stale.name:
                shutil.rmtree(stale, ignore_errors=True)
        print(f"[starbench] store cache miss: built store-{d} in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    cache = Cache(path, json.loads((path / "meta.json").read_text()))
    print(f"[starbench] store cache store-{d}: "
          f"{json.dumps(cache.meta['provenance'], sort_keys=True)}", file=sys.stderr)
    return cache


def _build(dest: Path, work: Path) -> None:
    from pyspark import __version__ as pyspark_version

    from repro.datalake.generator import build_benchmark
    from repro.eval.metrics import evaluate_rankings
    from repro.search.engine import SearchEngine, TableStore

    import spark_env

    t_start = time.perf_counter()
    dest.mkdir(parents=True)
    spark = spark_env.start_spark(work)
    try:
        generated = build_benchmark(spark, SETTINGS["lake"])
        generated.df.write.parquet(str(dest / "lake.parquet"))
        lake = spark_env.read_lake(spark, dest / "lake.parquet",
                                   generated.queries, generated.ground_truth)
        capture = spark_env.StoreCapture()
        prep, bundle = spark_env.build_store(spark, lake, SETTINGS)
        emb = capture.take()
        capture.close()
        if emb is None:
            raise RuntimeError("build_method loaded no embedding DataFrame through "
                               "TableStore.from_embeddings_df")
        spark_env.release(prep)
    finally:
        spark_env.stop_spark(spark)
    np.savez(dest / "embeddings.npz", table_ids=np.asarray(emb.table_ids),
             offsets=emb.offsets, vecs=emb.vecs)

    k = SETTINGS["k"]
    labelled = [str(q) for q in lake.queries]
    population = sorted(set(labelled) | set(emb.table_ids[::SETTINGS["population_stride"]]))
    engine = SearchEngine(store=TableStore.from_arrays(emb.mats()), mode="linear",
                          tau=bundle.tau)
    reference = {q: [(t, float(s)) for t, s in engine.query(q, k)[0]] for q in population}
    quality = evaluate_rankings({q: [t for t, _ in reference[q]] for q in labelled},
                                lake.ground_truth, k)
    meta = {
        "digest": digest(HERE.parent),
        "settings": SETTINGS,
        "tau": bundle.tau,
        "labelled": labelled,
        "ground_truth": {q: sorted(ts) for q, ts in lake.ground_truth.items()},
        "population": population,
        "reference": reference,
        "reference_quality": quality,
        "n_columns": int(emb.vecs.shape[0]),
        "provenance": {
            "built_unix_s": round(time.time()),
            "build_s": round(time.perf_counter() - t_start, 1),
            "python": platform.python_version(),
            "pyspark": pyspark_version,
            "numpy": np.__version__,
            "cpus": spark_env.spark_threads(),
        },
    }
    (dest / "meta.json").write_text(json.dumps(meta))


if __name__ == "__main__":
    _build(Path(sys.argv[1]), Path(sys.argv[2]))
