"""Seeded inputs of the workloads and the reference answers they need.

The survey draws distinct ``random_table`` tables and keeps them in fixed
quotas by the size of their depth-2 universe, which is what the
depth-1 ``report`` of a table mostly costs today (one-level-deeper builds).
Fixed quotas keep the workload's total cost nearly the same from seed to
seed while the tables themselves change.  Quota bounds follow the natural
distribution of ``random_table`` (measured on 400 tables).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nomsub.class_table import ClassTable, format_class_table, parse_class_table
from nomsub.random_tables import random_table

import reference

# (smallest depth-2 universe, largest + 1 or None, number of tables)
SURVEY_QUOTAS = ((0, 100, 13), (100, 300, 13), (300, 500, 28),
                 (500, 700, 28), (700, 900, 13), (900, None, 5))

QUERY_PAIRS = 2000        # distinct pairs, each checked against the oracle
QUERY_STREAM = 40000      # queries in one pass
QUERY_LABEL_SHARE = 0.4   # share of queries given as label text


@dataclass
class SurveyTable:
    name: str
    text: str
    table: ClassTable
    depth: int
    stratum: reference.Stratum | None = None  # oracle view at `depth`, when checked pairwise


def survey_tables(seed: int, quotas=SURVEY_QUOTAS) -> list[SurveyTable]:
    """Distinct random tables filling ``quotas``, in draw order."""
    rng = random.Random(seed)
    left = [count for _, _, count in quotas]
    chosen: list[SurveyTable] = []
    seen: set[ClassTable] = set()
    while any(left):
        table = random_table(rng.randrange(2**31))
        if table in seen:
            continue
        seen.add(table)
        depth1 = reference.strata(table, 1)[-1]
        size2 = reference.universe_size_above(table, depth1)
        for k, (lo, hi, _) in enumerate(quotas):
            if lo <= size2 and (hi is None or size2 < hi):
                break
        if left[k]:
            left[k] -= 1
            chosen.append(SurveyTable(f"random{len(chosen):03d}", format_class_table(table),
                                      table, 1, depth1))
    return chosen


def fixed_table(root: Path, name: str, depth: int) -> SurveyTable:
    text = (root / "tables" / f"{name}.table").read_text(encoding="utf-8")
    return SurveyTable(f"{name}{depth}", text, parse_class_table(text), depth)


@dataclass
class QueryStream:
    pairs: list[tuple[str, str]]  # distinct label pairs
    expected: list[bool]          # oracle answer per pair
    stream: list[int]             # pair index per query
    forms: list[int]              # 1 where the query is given as label text


def query_stream(seed: int, table: ClassTable, edges: np.ndarray,
                 top: reference.Stratum, n_pairs: int = QUERY_PAIRS,
                 n_queries: int = QUERY_STREAM) -> QueryStream:
    """Half the distinct pairs are drawn from related pairs of ``edges``
    (so that true answers are common), half uniformly; every answer is
    taken from the oracle over the universe of ``top``."""
    rng = random.Random(seed)
    n = len(top)
    related = np.argwhere(edges)
    pairs = []
    for k in range(n_pairs):
        if k % 2:
            i, j = (int(x) for x in related[rng.randrange(len(related))])
        else:
            i, j = rng.randrange(n), rng.randrange(n)
        pairs.append((i, j))
    oracle = top.oracle()
    expected = [oracle.is_subtype(top.universe[i], top.universe[j]) for i, j in pairs]
    stream = [k % n_pairs for k in range(n_queries)]
    rng.shuffle(stream)
    n_label = round(n_queries * QUERY_LABEL_SHARE)
    forms = [1] * n_label + [0] * (n_queries - n_label)
    rng.shuffle(forms)
    labels = top.labels
    return QueryStream([(labels[i], labels[j]) for i, j in pairs], expected, stream, forms)
