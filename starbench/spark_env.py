"""Spark lifetime and the offline build as the benchmark drives it.

Only the offline workload and the store-cache builder start a JVM; search
workloads never import this module's Spark half. Every process the JVM
starts (the JVM itself and its Python workers) carries ``STARBENCH_OWNER``
in its environment, so ``stop_spark`` can wait for all of them to end.
"""
from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OWNER_ENV = "STARBENCH_OWNER"


def spark_threads() -> int:
    """``local[n]`` width: at most 4, never more than the CPUs we may use."""
    try:
        ncpu = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        ncpu = os.cpu_count() or 1
    return max(1, min(4, ncpu))


def start_spark(work: Path):
    """A local SparkSession with the job runner's settings, writing only under ``work``."""
    from pyspark.sql import SparkSession

    tmp = work / "tmp"
    local = work / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ[OWNER_ENV] = str(os.getpid())
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    spark = (
        SparkSession.builder.master(f"local[{spark_threads()}]")
        .appName("starbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _owned_pids() -> list[int]:
    """Live processes (other than this one) started on behalf of this run."""
    marker = f"{OWNER_ENV}={os.getpid()}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as f:
                env = f.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as f:
                state = f.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if marker in env and state != b"Z":
            pids.append(int(entry))
    return pids


def stop_spark(spark, timeout: float = 30.0) -> None:
    """Stop the session, shut the JVM down and wait until its workers are gone."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()  # spark-submit exits when its stdin closes
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    while (pids := _owned_pids()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while _owned_pids() and time.monotonic() < deadline + timeout:
        time.sleep(0.1)


def jvm_gc(spark) -> None:
    """Collect both heaps so each timed build starts from the same state."""
    import gc

    gc.collect()
    spark.sparkContext._jvm.System.gc()


@dataclass
class Embeddings:
    """The store's contents in the order the cache keeps them."""

    table_ids: list[str]
    offsets: np.ndarray  # table i owns rows offsets[i]:offsets[i + 1]
    vecs: np.ndarray     # (n_columns, dim) float32

    def mats(self) -> dict[str, np.ndarray]:
        o = self.offsets
        return {t: self.vecs[o[i]:o[i + 1]] for i, t in enumerate(self.table_ids)}


class StoreCapture:
    """Remembers the embedding DataFrame ``TableStore.from_embeddings_df`` loads.

    The wrapper only keeps a reference, so the timed build does no extra
    work; ``take`` collects the DataFrame again afterwards, which re-runs
    inference from the still-cached preprocessed lake. Installed on the
    class attribute, so ``build_method`` goes through it.
    """

    def __init__(self):
        from repro.search.engine import TableStore

        self._cls = TableStore
        self._orig = TableStore.__dict__["from_embeddings_df"]
        self.frames: list = []
        bound = TableStore.from_embeddings_df

        def from_embeddings_df(emb_df):
            self.frames.append(emb_df)
            return bound(emb_df)

        TableStore.from_embeddings_df = staticmethod(from_embeddings_df)

    def take(self) -> Embeddings | None:
        """Collect the last captured DataFrame and forget every capture;
        None when the build loaded no DataFrame through the store."""
        if not self.frames:
            return None
        df = self.frames[-1]
        self.frames.clear()
        rows = df.select("table_id", "col_idx", "emb").collect()
        grouped: dict[str, list] = {}
        for r in rows:
            grouped.setdefault(r["table_id"], []).append((r["col_idx"], r["emb"]))
        tids = sorted(grouped)
        vecs, offsets = [], [0]
        for t in tids:
            cols = sorted(grouped[t], key=lambda c: c[0])
            vecs.extend(c[1] for c in cols)
            offsets.append(offsets[-1] + len(cols))
        return Embeddings(tids, np.asarray(offsets, dtype=np.int64),
                          np.asarray(vecs, dtype=np.float32))

    def clear(self) -> None:
        self.frames.clear()

    def close(self) -> None:
        self._cls.from_embeddings_df = self._orig


def read_lake(spark, path: Path, queries: list[str], ground_truth: dict[str, set[str]]):
    """The persisted lake as the pipeline's ``Lake``."""
    from repro.datalake.generator import Lake

    df = spark.read.parquet(str(path))
    return Lake(name="tus_large_lite", df=df, queries=queries, ground_truth=ground_truth)


def build_store(spark, lake, settings: dict):
    """One lake→store build through the pipeline's public entry points."""
    from repro.experiments.common import build_method, prepare

    prep = prepare(spark, lake)
    bundle = build_method(prep, settings["method"], op=settings["op"],
                          epochs=settings["epochs"], lr=settings["lr"])
    return prep, bundle


def release(prep) -> None:
    """Unpersist whatever DataFrames ``prepare`` cached for this build."""
    from pyspark.sql import DataFrame

    for value in vars(prep).values():
        if isinstance(value, DataFrame):
            value.unpersist()
