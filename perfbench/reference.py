"""Answers the benchmark checks the program against, computed without the
relation builder under test.

Subtype answers come from the brute-force oracle in ``tests/oracle.py``,
which shares only the term vocabulary with the program.  Universes are
enumerated here from the oracle's answers, following the construction's
definition: the depth-0 universe holds bottom, the co-free atoms of the
generic classes and the non-generic classes; depth d adds every
instantiation of a generic class whose interval arguments have endpoints
ordered at depth d-1.

Oracle matrices of the fixed ladder tables cost tens of seconds, so
``ReferenceCache`` keeps them in a directory keyed by the text of every
file they depend on; a changed oracle, vocabulary, table or this module
starts a fresh entry.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nomsub.class_table import ClassTable
from nomsub.terms import (
    BOTTOM,
    Cofree,
    Ground,
    Interval,
    TypeTerm,
    format_type,
    parse_type,
)
from oracle import Oracle

# Files whose text decides the reference answers, relative to the checkout.
DEPENDENCIES = ("tests/oracle.py", "src/nomsub/terms.py",
                "src/nomsub/class_table.py", "src/nomsub/_lex.py",
                "perfbench/reference.py")


@dataclass
class Stratum:
    """The oracle's view of one depth: the universe in canonical (label)
    order and, when computed, the related pairs as an n x n matrix."""

    table: ClassTable
    universe: tuple[TypeTerm, ...]
    labels: tuple[str, ...]
    related: np.ndarray | None = None

    def oracle(self) -> Oracle:
        return Oracle(self.table, self.universe)

    def __len__(self) -> int:
        return len(self.labels)


def _base_terms(table: ClassTable) -> set[TypeTerm]:
    terms: set[TypeTerm] = {BOTTOM}
    for decl in table.decls.values():
        terms.add(Cofree(decl.name) if decl.is_generic else Ground(decl.name))
    return terms


def _next_terms(table: ClassTable, below: Stratum) -> set[TypeTerm]:
    intervals = [Interval(below.universe[i], below.universe[j])
                 for i, j in zip(*np.nonzero(below.related))]
    terms = set(below.universe)
    for decl in table.decls.values():
        if decl.is_generic:
            for combo in itertools.product(intervals, repeat=decl.arity):
                terms.add(Ground(decl.name, combo))
    return terms


def _stratum(table: ClassTable, terms: set[TypeTerm], with_matrix: bool) -> Stratum:
    labeled = sorted((format_type(t, table), t) for t in terms)
    stratum = Stratum(table, tuple(t for _, t in labeled),
                      tuple(s for s, _ in labeled))
    if with_matrix:
        oracle = stratum.oracle()
        universe = stratum.universe
        stratum.related = np.array(
            [oracle.is_subtype(a, b) for a in universe for b in universe],
            dtype=bool).reshape(len(universe), len(universe))
    return stratum


def strata(table: ClassTable, depth: int, top_matrix: bool = True) -> list[Stratum]:
    """Strata 0..depth.  Every matrix below the top is computed, because it
    decides the next universe; the top one only when ``top_matrix``."""
    out = [_stratum(table, _base_terms(table), depth > 0 or top_matrix)]
    for d in range(1, depth + 1):
        out.append(_stratum(table, _next_terms(table, out[-1]),
                            d < depth or top_matrix))
    return out


def stratum_above(table: ClassTable, below: Stratum) -> Stratum:
    """The stratum one depth above ``below`` (which must have its matrix),
    without a matrix of its own."""
    return _stratum(table, _next_terms(table, below), False)


def universe_size_above(table: ClassTable, below: Stratum) -> int:
    """Size of the universe one depth above ``below``, without ordering it."""
    return len(_next_terms(table, below))


class ReferenceCache:
    """Reference answers about fixed tables, kept as JSON files."""

    def __init__(self, root: Path, directory: Path):
        self.directory = directory
        digest = hashlib.sha256()
        for rel in DEPENDENCIES:
            digest.update(rel.encode() + b"\0" + (root / rel).read_bytes())
        self._salt = digest.hexdigest()

    def get(self, key: str, compute):
        """The cached value of ``compute()`` under ``key`` (which must name
        every input besides the dependency files)."""
        name = hashlib.sha256(f"{self._salt}\0{key}".encode()).hexdigest()[:32]
        path = self.directory / f"{name}.json"
        if path.is_file():
            return json.loads(path.read_text(encoding="utf-8"))
        value = compute()
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(value), encoding="utf-8")
        tmp.replace(path)
        return value

    def stratum(self, table: ClassTable, table_text: str, depth: int) -> Stratum:
        """The depth-``depth`` stratum with its matrix."""
        def compute():
            stratum = strata(table, depth)[-1]
            packed = base64.b64encode(np.packbits(stratum.related).tobytes()).decode()
            return {"labels": list(stratum.labels), "related": packed}

        doc = self.get(f"stratum\0{table_text}\0{depth}", compute)
        labels = tuple(doc["labels"])
        n = len(labels)
        bits = np.frombuffer(base64.b64decode(doc["related"]), dtype=np.uint8)
        related = np.unpackbits(bits, count=n * n).astype(bool).reshape(n, n)
        universe = tuple(parse_type(table, s) for s in labels)
        return Stratum(table, universe, labels, related)
