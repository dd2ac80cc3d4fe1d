"""SANTOS-like baseline (paper §5.1.4, Khatiwada et al. [23]).

SANTOS annotates columns with semantic types from a knowledge base and
additionally annotates *binary relationships* (pairs of columns that
co-occur in a table); two tables are unionable when their column types
and relationships overlap. The external KB (YAGO) is not available
offline, so we build a **synthetic KB** from the generator's text
vocabularies with deliberately partial coverage — preserving SANTOS's
characteristic behaviour: strong when the KB covers the lake's types,
blind to numeric columns, and fooled by ambiguous types that carry one
KB label across different table contexts (the paper's Fig. 1 argument).

As in the paper, SANTOS needs labeled query intent columns and is only
run on benchmarks where that is meaningful (it is marked "–" on TUS
Large in Table 3).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..datalake.vocab import TYPES


def _covered(value: str, coverage: float) -> bool:
    h = int.from_bytes(hashlib.md5(value.encode()).digest()[:4], "little")
    return (h % 10_000) / 10_000.0 < coverage


# Share of text values the synthetic KB covers. 0.5 calibrates it to
# YAGO-like incompleteness on open data; with full coverage SANTOS becomes
# an oracle on class-partitioned synthetic lakes (it reads the hidden type
# labels), which no real KB achieves.
KB_COVERAGE = 0.5
# A column's majority KB type annotates it when it covers at least this
# share of the column's non-empty cells.
MIN_HIT = 0.3


def build_kb(coverage: float) -> dict[str, str]:
    """value (lowercased) → KB type, over text-type vocabularies only."""
    kb: dict[str, str] = {}
    for name, spec in TYPES.items():
        if spec.kind != "text":
            continue
        for v in spec.pool:
            if _covered(v, coverage):
                kb[v.lower()] = name
    return kb


@dataclass
class SantosAnnotation:
    types: dict[int, str]  # col_idx -> KB type
    rels: set[tuple[str, str]]  # sorted type pairs co-occurring in the table


def annotate_table(cols: list[dict], kb: dict[str, str]) -> SantosAnnotation:
    """Column type = majority KB type over covered cells (≥ ``MIN_HIT`` hit rate)."""
    types: dict[int, str] = {}
    for c in cols:
        votes: dict[str, int] = {}
        n = 0
        for cell in c["cells"]:
            if not cell:
                continue
            n += 1
            t = kb.get(cell.lower())
            if t:
                votes[t] = votes.get(t, 0) + 1
        if not votes or n == 0:
            continue
        best, cnt = max(votes.items(), key=lambda kv: kv[1])
        if cnt / n >= MIN_HIT:
            types[c["col_idx"]] = best
    tl = sorted(types.values())
    rels = {
        (tl[i], tl[j]) for i in range(len(tl)) for j in range(i + 1, len(tl))
    }
    return SantosAnnotation(types=types, rels=rels)


class SantosRanker:
    """Linear-scan union search over KB annotations (a KB of ``KB_COVERAGE``)."""

    def __init__(self, tables: dict[str, list[dict]]):
        self.kb = build_kb(KB_COVERAGE)
        self.ann = {tid: annotate_table(cols, self.kb) for tid, cols in tables.items()}

    def score(self, q: str, t: str) -> float:
        a, b = self.ann[q], self.ann[t]
        qt = sorted(a.types.values())
        tt = list(b.types.values())
        if not qt:
            return 0.0
        # multiset type overlap, symmetrically normalized so that a table
        # with *extra* annotated types (a superset schema) does not tie
        # with an exact schema match
        hit = 0
        pool = list(tt)
        for ty in qt:
            if ty in pool:
                pool.remove(ty)
                hit += 1
        type_score = hit / max(len(qt), len(tt)) if tt else 0.0
        rel_union = max(len(a.rels), len(b.rels))
        rel_score = len(a.rels & b.rels) / rel_union if rel_union else type_score
        return 0.5 * type_score + 0.5 * rel_score

    def query(self, q: str, k: int) -> list[tuple[str, float]]:
        """The first ``k`` tables in (score desc, table id asc) order among
        those scoring above 0, as ``SearchEngine.query`` lists them."""
        scored = [(t, s) for t in self.ann if (s := self.score(q, t)) > 0]
        scored.sort(key=lambda e: (-e[1], e[0]))
        return scored[:k]
