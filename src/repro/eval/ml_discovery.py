"""Data discovery for downstream ML (paper §5.4, Tables 7 and 11).

25 rating-regression tasks: each query table has a numeric ``Rating``
target driven partly by a *hidden* per-entity feature that lives in a
"good" data-lake table joinable on the entity column. A "decoy" table
(the paper's dog-competitions example, Fig. 11) shares high value
overlap with the query (same State vocabulary, person names from the
same global pool) but carries only noise features. Methods:

- NoJoin  — GBT on the query table's own features;
- Jaccard — left-join with the table maximizing token Jaccard over any
  column pair (rating-like lake columns excluded: label-leakage rule);
- Overlap — same with raw token-overlap counts;
- Starmie — contextualized-embedding retrieval with the target-column
  similarity term (Appendix F formula), over the vector store
  ``build_method`` returns; query tables are embedded with its encoder.

This module holds the corpus, the retrieval rules, the join, the GBT and
the Table 7 summary; the runner ``table7_ml`` ties them together.

The paper uses XGBoost + Sentence Transformers; we use MLlib's
``GBTRegressor`` + our Word2Vec column featurizer (see DESIGN.md §2).
The join preserves the query's row count via dedup-then-left-join,
exactly the paper's pandas recipe (oracle-checked in tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.ml.feature import VectorAssembler
from pyspark.ml.regression import GBTRegressor
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.encoder import Embedder, MultiColumnEncoder, table_view
from ..core.preprocess import select_cells
from ..core.tokenize import tokenize_cell
from ..datalake.generator import Lake, _domain_columns, _to_lake
from ..datalake.vocab import DOMAINS, TYPES

# Every task's regression target: the query table's rating column.
TARGET = "Rating"


@dataclass
class MLTask:
    name: str
    query_pdf: pd.DataFrame  # Entity, State, Category, WeakNum, Rating
    good_tid: str
    decoy_tid: str


def build_ml_corpus(
    spark: SparkSession, *, n_tasks: int, n_filler: int, seed: int
) -> tuple[list[MLTask], Lake]:
    """Synthetic WDC-ML corpus: ``n_tasks`` tasks + good/decoy/filler lake tables."""
    g = np.random.default_rng(seed)
    person_pool = np.asarray(TYPES["person_name"].pool, dtype=object)
    state_pool = np.asarray(TYPES["state"].pool, dtype=object)
    party_pool = np.asarray(TYPES["party"].pool, dtype=object)
    tasks: list[MLTask] = []
    rows: list[dict] = []

    def add_table(tid: str, domain: str, cols: list[tuple[str, str, list[str]]]):
        for i, (cname, stype, cells) in enumerate(cols):
            rows.append(
                {
                    "table_id": tid,
                    "domain": domain,
                    "col_idx": i,
                    "col_name": cname,
                    "sem_type": stype,
                    "cells": [str(c) for c in cells],
                }
            )

    for t in range(n_tasks):
        n_entities = int(g.integers(160, 280))
        entities = g.choice(person_pool, size=n_entities, replace=False)
        hidden = {e: float(g.random()) for e in entities}
        n_rows = int(g.integers(200, 480))
        e_rows = g.choice(entities, size=n_rows)
        weak = g.normal(size=n_rows)
        w01 = (weak - weak.min()) / max(1e-9, weak.max() - weak.min())
        noise = g.normal(0, 0.25, n_rows)
        # Per-task mix: some tasks are mostly-hidden-signal (joins help a
        # lot), some mostly-noise (joins barely help) — Table 11 spread.
        a_h = float(g.uniform(0.3, 0.6))
        rating = np.clip(
            a_h * np.array([hidden[e] for e in e_rows])
            + 0.2 * w01
            + (1 - a_h - 0.2) * (noise - noise.min()) / max(1e-9, noise.max() - noise.min()),
            0,
            1,
        )
        # per-task State coverage: when the query uses few states, the
        # State↔State Jaccard trap weakens and Jaccard can find the
        # entity join too (Table 11's mixed per-task outcomes)
        q_state_cov = float(g.uniform(0.3, 1.0))
        q_states = state_pool[: max(5, int(len(state_pool) * q_state_cov))]
        q = pd.DataFrame(
            {
                "Entity": e_rows,
                "State": g.choice(q_states, n_rows),
                "Category": g.choice(party_pool, n_rows),
                "WeakNum": np.round(weak, 3),
                TARGET: np.round(rating, 4),
            }
        )
        # good table: congress-votes-like context; the hidden feature is
        # exposed both at money scale (SupportAmt) and at rating scale
        # (ApprovalRate — the paper's "$ from interest groups" analog,
        # which the target-column term of the Starmie formula latches on)
        good_cov = float(g.uniform(0.55, 0.9))
        cover = entities[g.random(n_entities) < good_cov]
        extra = g.choice(person_pool, size=30)
        names = np.concatenate([cover, extra])
        support = [
            f"{int(hidden.get(e, g.random()) * 20000 + g.normal(0, 300))}" for e in names
        ]
        approval = [
            f"{np.clip(0.15 + 0.7 * hidden.get(e, g.random()) + g.normal(0, 0.04), 0, 1):.4f}"
            for e in names
        ]
        opposed = [f"{int(abs(g.normal(0, 800)))}" for _ in names]
        vote = ["Yes" if hidden.get(e, 0.5) > 0.5 else "No" for e in names]
        good_tid = f"mltask{t:02d}__good"
        add_table(
            good_tid,
            "congress_votes",
            [
                ("Name", "person_name", list(names)),
                ("State", "state", list(g.choice(state_pool, len(names)))),
                ("Party", "party", list(g.choice(party_pool, len(names)))),
                ("SupportAmt", "money", support),
                ("ApprovalRate", "gpa", approval),
                ("Vote", "party", vote),
            ],
        )
        # decoy: dog-show-like, high value overlap, noise features only;
        # size varies so its Handler column sometimes out-overlaps the
        # good table's Name column
        nd = int(g.integers(250, 900))
        decoy_tid = f"mltask{t:02d}__decoy"
        state_cov = float(g.uniform(0.5, 1.0))
        d_states = g.choice(state_pool[: max(5, int(len(state_pool) * state_cov))], nd)
        add_table(
            decoy_tid,
            "dog_shows",
            [
                ("Show", "dog_show", TYPES["dog_show"].sample(nd, g)),
                ("State", "state", list(d_states)),
                ("Handler", "person_name", list(g.choice(person_pool, nd))),
                ("City", "city", TYPES["city"].sample(nd, g)),
                ("Breed", "breed", TYPES["breed"].sample(nd, g)),
                ("Points", "points", TYPES["points"].sample(nd, g)),
            ],
        )
        tasks.append(MLTask(f"task{t:02d}", q, good_tid, decoy_tid))

    for i in range(n_filler):
        d = DOMAINS[int(g.integers(2, len(DOMAINS)))]
        rows.extend(
            _domain_columns(d, f"mlfiller{i:03d}__{d.name}", int(g.integers(60, 200)), g)
        )
    lake = _to_lake(spark, "wdc_ml_lite", rows, [], None)
    return tasks, lake


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------

def _col_tokens(cells: list[str]) -> set[str]:
    return {t for c in cells for t in tokenize_cell(c)}


def lake_token_sets(tokens_df: DataFrame) -> dict[tuple[str, int], set[str]]:
    """Each lake column's distinct tokens, keyed by ``(table_id, col_idx)``,
    from the tokenized lake (``core.tokenize.tokenize_lake``)."""
    rows = tokens_df.select("table_id", "col_idx",
                            F.array_distinct(F.flatten("cell_tokens"))).collect()
    return {(tid, ci): set(tokens) for tid, ci, tokens in rows}


def join_candidates(
    task: MLTask, tables: dict[str, list[dict]]
) -> tuple[list[str], dict[str, tuple[list[int], list[int]]]]:
    """Appendix F's candidate columns, the one rule every retrieval applies:
    the query's textual non-target columns, and per lake table, in lake order,
    the positions of its columns that are not rating-like (label leakage) and
    of those that are textual join keys. Joining on free floats is
    meaningless, and numeric magnitude buckets would make spurious key overlap.
    """
    q = task.query_pdf
    qcols = [c for c in q.columns if c != TARGET and q[c].dtype == object]
    lake = {}
    for tid, cols in tables.items():
        keep_any = [j for j, c in enumerate(cols) if c["sem_type"] != "rating_val"]
        lake[tid] = keep_any, [j for j in keep_any if not TYPES[cols[j]["sem_type"]].is_numeric]
    return qcols, lake


def retrieve_syntactic(task: MLTask, tables: dict[str, list[dict]],
                       token_sets: dict[tuple[str, int], set[str]],
                       metric: str) -> tuple[str, str, int]:
    """Best (table, query col, lake col) by Jaccard/Overlap (Appendix F)."""
    qcols, lake = join_candidates(task, tables)
    q_sets = {c: _col_tokens(task.query_pdf[c].astype(str).tolist()) for c in qcols}
    best_tid, best_qc, best_ci, best_score = None, None, None, -1.0
    for tid, (_, keep_join) in lake.items():
        for j in keep_join:
            ci = tables[tid][j]["col_idx"]
            tset = token_sets[(tid, ci)]
            for qc, qset in q_sets.items():
                inter = len(qset & tset)
                score = inter / max(1, len(qset | tset)) if metric == "jaccard" else float(inter)
                if score > best_score:
                    best_tid, best_qc, best_ci, best_score = tid, qc, ci, score
    return best_tid, best_qc, best_ci


def embed_query_table(
    task: MLTask,
    embedder: Embedder,
    encoder: MultiColumnEncoder,
    idf: dict[str, float],
) -> tuple[list[str], np.ndarray]:
    """Driver-side embedding of a query table with the trained encoder.

    Each query column goes through ``select_cells``, as ``prepare``'s
    ``preprocess_lake`` does for every lake column.
    """
    qcols = list(task.query_pdf.columns)
    units = [
        select_cells([tokenize_cell(str(v)) for v in task.query_pdf[c]], idf)
        for c in qcols
    ]
    view = table_view("query", enumerate(units), embedder)
    return qcols, encoder.encode_view(view)


def retrieve_starmie(task: MLTask, lake_emb: dict[str, np.ndarray], qcols: list[str],
                     qvecs: np.ndarray, tables: dict[str, list[dict]]) -> tuple[str, str, int]:
    """argmax_T [max cos(s_i,t_j) + max cos(s_target,t_j)] (Appendix F)."""
    join_qcols, lake = join_candidates(task, tables)
    target_i = qcols.index(TARGET)
    nontarget = [qcols.index(c) for c in join_qcols]
    best = (None, None, None, -np.inf)
    for tid, mat in lake_emb.items():
        keep_any, keep_join = lake[tid]
        if not keep_join:
            continue
        join_sims = qvecs[nontarget] @ mat[keep_join].T
        first = join_sims.max()
        second = (qvecs[target_i] @ mat[keep_any].T).max()
        qi, tj = np.unravel_index(np.argmax(join_sims), join_sims.shape)
        score = float(first + second)
        if score > best[3]:
            best = (tid, qcols[nontarget[int(qi)]], keep_join[int(tj)], score)
    return best[0], best[1], best[2]


# ---------------------------------------------------------------------------
# Join + GBT
# ---------------------------------------------------------------------------

def augment_with_join(
    spark: SparkSession, task: MLTask, cols: list[dict], qc: str, ci: int
) -> DataFrame:
    """Dedup-then-left-join of the query with the lake table of columns ``cols``
    on column ``ci``, preserving the query table's row count."""
    q = spark.createDataFrame(task.query_pdf)
    t_pdf = pd.DataFrame({f"t_{c['col_idx']}_{c['col_name']}": c["cells"] for c in cols})
    join_col = f"t_{ci}_{cols[ci]['col_name']}"
    t = spark.createDataFrame(t_pdf).dropDuplicates([join_col])
    # string-cast both sides: retrieval may pair a numeric query column
    # with a string lake column, and lake cells may be empty strings
    cond = q[qc].cast("string") == t[join_col].cast("string")
    return q.join(t, on=cond, how="left").drop(join_col)


_TEXT_PROJ_DIM = 6


def _featurize(df: DataFrame, embedder: Embedder) -> tuple[DataFrame, list[str]]:
    """Numeric columns as doubles; text columns → projected mean embedding."""
    g = np.random.default_rng(99)
    proj = g.normal(size=(embedder.dim, _TEXT_PROJ_DIM)).astype(np.float32)
    pdf = df.toPandas()
    feats: dict[str, np.ndarray] = {}
    for c in pdf.columns:
        if c == TARGET:
            continue
        num = pd.to_numeric(pdf[c], errors="coerce")
        if num.notna().mean() > 0.6:
            feats[f"f_{c}"] = num.fillna(0.0).to_numpy(dtype=float)
        else:
            vecs = np.zeros((len(pdf), _TEXT_PROJ_DIM))
            for i, v in enumerate(pdf[c].fillna("")):
                vecs[i] = embedder.tokens_vec(tokenize_cell(str(v))) @ proj
            for d in range(_TEXT_PROJ_DIM):
                feats[f"f_{c}_{d}"] = vecs[:, d]
    out = pd.DataFrame(feats)
    out["label"] = pd.to_numeric(pdf[TARGET], errors="coerce").fillna(0.0)
    fcols = [c for c in out.columns if c != "label"]
    return df.sparkSession.createDataFrame(out), fcols


# Seed of the train/test split and of the GBT.
GBT_SEED = 5


def train_eval_gbt(df: DataFrame, embedder: Embedder, *, max_iter: int) -> float:
    """4:1 split → GBTRegressor → test MSE (the Table 11 cell)."""
    fdf, fcols = _featurize(df, embedder)
    assembled = VectorAssembler(inputCols=fcols, outputCol="features").transform(fdf)
    train, test = assembled.randomSplit([0.8, 0.2], seed=GBT_SEED)
    gbt = GBTRegressor(
        featuresCol="features", labelCol="label",
        maxIter=max_iter, maxDepth=3, seed=GBT_SEED, stepSize=0.2,
    )
    model = gbt.fit(train)
    pred = model.transform(test)
    row = pred.select(
        F.avg(F.pow(F.col("prediction") - F.col("label"), 2)).alias("mse")
    ).collect()[0]
    return float(row["mse"])


def summarize_ml(results: pd.DataFrame) -> pd.DataFrame:
    """The Table 7 summary: avg MSE, improvement, #improved, avg improvement."""
    out = []
    base = results["NoJoin"]
    for m in ("NoJoin", "Jaccard", "Overlap", "Starmie"):
        mse = results[m]
        improved = mse < base - 1e-12
        red = (base - mse) / base.replace(0, np.nan)
        out.append({
            "method": m,
            "avg_mse": mse.mean(),
            "improvement_pct": 100 * (base.mean() - mse.mean()) / base.mean(),
            "n_improved": int(improved.sum()),
            "avg_task_improvement_pct": 100 * red[improved].mean() if improved.any() else 0.0,
        })
    return pd.DataFrame(out)
