"""Iterative construction of the depth-bounded subtyping relation.

The universe of terms at depth d is enumerated from the relation built at
depth d-1 (intervals admit only endpoint-ordered pairs), then the relation
over it is grown to a fixpoint by repeating one composable step:

  (a) containment edges between same-class instantiations,
  (b) inheritance edges along superclass chains,
  (c) co-free axioms (below the class's instantiations, between co-free
      atoms along subclassing, and below the root),
      plus bottom below everything,
  (d) transitive closure.

Edges live in a dense boolean matrix with an index map; the closure is
computed exactly on bit-packed rows.  Antisymmetry is not enforced —
mutual_pairs exposes any collapse instead.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import numpy as np

from .class_table import ClassTable, subclass_of
from .errors import (
    EndpointOutsideUniverse,
    TermOutsideUniverse,
    UniverseCapExceeded,
)
from .terms import (
    BOTTOM,
    Cofree,
    Ground,
    Interval,
    TypeTerm,
    format_type,
    parse_type,
    root_term,
    super_chain,
)

DEFAULT_CAP = 50_000


class SubtypeRelation:
    """Constructed subtyping preorder over an enumerated universe.

    Frozen after construction: the edge matrix is read-only and every query
    is safe to run concurrently.  Equality compares depth, universe, edges
    and the include_cofree flag; iteration provenance is excluded, since it
    records how the relation was built, not what it is.
    """

    def __init__(self, universe: tuple[TypeTerm, ...], labels: tuple[str, ...],
                 edges: np.ndarray, iterations: int, depth: int,
                 include_cofree: bool = True):
        self.universe = universe
        self.labels = labels
        edges.setflags(write=False)
        self.edges = edges
        self.iterations = iterations
        self.depth = depth
        self.include_cofree = include_cofree
        self._index = {t: i for i, t in enumerate(universe)}

    def __len__(self) -> int:
        return len(self.universe)

    def __contains__(self, term: TypeTerm) -> bool:
        return term in self._index

    def index(self, term: TypeTerm) -> int:
        try:
            return self._index[term]
        except KeyError:
            raise TermOutsideUniverse(
                f"term '{format_type(term)}' is outside the depth-{self.depth} "
                "universe (rebuild at a higher depth)") from None

    def label(self, term: TypeTerm) -> str:
        return self.labels[self.index(term)]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubtypeRelation)
                and self.depth == other.depth
                and self.include_cofree == other.include_cofree
                and self.universe == other.universe
                and bool(np.array_equal(self.edges, other.edges)))

    def __repr__(self) -> str:
        return (f"SubtypeRelation(depth={self.depth}, terms={len(self.universe)}, "
                f"edges={int(self.edges.sum())}, iterations={self.iterations})")


# -- queries ---------------------------------------------------------------


def is_subtype(rel: SubtypeRelation, t1: TypeTerm, t2: TypeTerm) -> bool:
    """Edge lookup; total over the relation's universe."""
    return bool(rel.edges[rel.index(t1), rel.index(t2)])


def interval_contains(rel: SubtypeRelation, inner: Interval, outer: Interval) -> bool:
    """[L1..U1] is contained in [L2..U2] iff L2 <: L1 and U1 <: U2."""
    idx = []
    for endpoint in (outer.lo, inner.lo, inner.hi, outer.hi):
        try:
            idx.append(rel.index(endpoint))
        except TermOutsideUniverse:
            raise EndpointOutsideUniverse(
                f"endpoint '{format_type(endpoint)}' is outside the universe") from None
    return bool(rel.edges[idx[0], idx[1]] and rel.edges[idx[2], idx[3]])


def mutual_pairs(rel: SubtypeRelation) -> list[tuple[TypeTerm, TypeTerm]]:
    """Distinct term pairs related in both directions; the antisymmetry
    diagnostic, expected empty on well-behaved tables."""
    sym = rel.edges & rel.edges.T
    np.fill_diagonal(sym, False)
    pairs = []
    for i, j in np.argwhere(sym):
        if i < j:
            pairs.append((rel.universe[i], rel.universe[j]))
    return pairs


# -- universe enumeration ----------------------------------------------------


def enumerate_universe(table: ClassTable, depth: int,
                       cap: int = DEFAULT_CAP) -> tuple[TypeTerm, ...]:
    """All admittable terms of nesting depth <= depth, in canonical order
    (lexicographic on printed form).

    Interval arguments admit only endpoint-ordered pairs, judged under the
    relation built at the previous depth; declared parameter bounds are
    ignored (admittability, not validity).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    universe, _rel = _stage(table, depth, cap, True)
    return universe


@lru_cache(maxsize=64)
def _stage(table: ClassTable, depth: int, cap: int, include_cofree: bool):
    """Universe at `depth` plus the relation over it.

    Without the co-free axioms the atoms they define are dropped from the
    universe as well: the extension-free model contains only ordinary terms,
    which makes it directly comparable with the full model on its Ground
    fragment.
    """
    if depth == 0:
        terms = {BOTTOM}
        for decl in table.decls.values():
            if decl.is_generic:
                if include_cofree:
                    terms.add(Cofree(decl.name))
            else:
                terms.add(Ground(decl.name))
    else:
        prev_universe, prev_rel = _stage(table, depth - 1, cap, include_cofree)
        intervals = [Interval(prev_universe[i], prev_universe[j])
                     for i, j in np.argwhere(prev_rel.edges)]
        terms = set(prev_universe)
        for decl in table.decls.values():
            if not decl.is_generic:
                continue
            for combo in itertools.product(intervals, repeat=decl.arity):
                terms.add(Ground(decl.name, combo))
                if len(terms) > cap:
                    raise UniverseCapExceeded(
                        f"universe at depth {depth} exceeds the cap of {cap} terms")
    if len(terms) > cap:
        raise UniverseCapExceeded(
            f"universe at depth {depth} exceeds the cap of {cap} terms")
    labeled = sorted((format_type(t, table), t) for t in terms)
    universe = tuple(t for _, t in labeled)
    labels = tuple(s for s, _ in labeled)
    rel = _solve(table, universe, labels, depth, include_cofree)
    return universe, rel


# -- construction ------------------------------------------------------------


def initial_relation(table: ClassTable, depth: int, cap: int = DEFAULT_CAP,
                     include_cofree: bool = True) -> SubtypeRelation:
    """The reflexive relation over the enumerated universe; the starting
    point for construction_step."""
    universe, rel = _stage(table, depth, cap, include_cofree)
    eye = np.eye(len(universe), dtype=bool)
    return SubtypeRelation(universe, rel.labels, eye, 0, depth, include_cofree)


def construction_step(table: ClassTable, rel: SubtypeRelation) -> SubtypeRelation:
    """One composable pass of rules (a)-(d).  Never removes edges; applying
    the step to a fixpoint returns an equal relation."""
    static = _static_edges(table, rel.universe, rel._index, rel.include_cofree)
    groups = _containment_groups(table, rel.universe, rel._index)
    bottom = rel._index.get(BOTTOM)
    new = _apply_step(rel.edges, static, groups, bottom)
    return SubtypeRelation(rel.universe, rel.labels, new, rel.iterations + 1,
                           rel.depth, rel.include_cofree)


def build_relation(table: ClassTable, depth: int, cap: int = DEFAULT_CAP,
                   include_cofree: bool = True) -> SubtypeRelation:
    """Enumerate the universe at `depth`, then apply construction_step to a
    fixpoint; the iteration count includes the confirming pass."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _universe, rel = _stage(table, depth, cap, include_cofree)
    return rel


def _solve(table: ClassTable, universe: tuple[TypeTerm, ...],
           labels: tuple[str, ...], depth: int,
           include_cofree: bool) -> SubtypeRelation:
    index = {t: i for i, t in enumerate(universe)}
    static = _static_edges(table, universe, index, include_cofree)
    groups = _containment_groups(table, universe, index)
    bottom = index.get(BOTTOM)
    edges = np.eye(len(universe), dtype=bool)
    iterations = 0
    while True:
        new = _apply_step(edges, static, groups, bottom)
        iterations += 1
        if np.array_equal(new, edges):
            break
        edges = new
    return SubtypeRelation(universe, labels, edges, iterations, depth,
                           include_cofree)


def _static_edges(table: ClassTable, universe, index, include_cofree: bool):
    """Relation-independent edges: inheritance chains and co-free axioms.

    Inheritance walks the whole superclass chain so that targets whose
    intermediate instantiations fall outside the universe are still reached
    (depth-0 relations must restrict to subclassing exactly).
    """
    rows: list[int] = []
    cols: list[int] = []
    root = root_term(table)
    by_class: dict[str, list[int]] = {}
    for i, term in enumerate(universe):
        if isinstance(term, Ground):
            by_class.setdefault(term.cls, []).append(i)
            for sup in super_chain(table, term):
                j = index.get(sup)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
    if include_cofree:
        root_i = index.get(root)
        for i, term in enumerate(universe):
            if not isinstance(term, Cofree):
                continue
            for j, other in enumerate(universe):
                if isinstance(other, Cofree) and subclass_of(table, term.cls, other.cls):
                    rows.append(i)
                    cols.append(j)
            for j in by_class.get(term.cls, ()):
                rows.append(i)
                cols.append(j)
            if root_i is not None:
                rows.append(i)
                cols.append(root_i)
    return np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)


def _containment_groups(table: ClassTable, universe, index):
    """Per generic class: instantiation row indices and per-position endpoint
    index arrays, for vectorized containment."""
    grouped: dict[str, list[int]] = {}
    for i, term in enumerate(universe):
        if isinstance(term, Ground) and term.args:
            grouped.setdefault(term.cls, []).append(i)
    groups = []
    for cls, members in grouped.items():
        arity = table.arity(cls)
        los = np.empty((len(members), arity), dtype=np.intp)
        his = np.empty((len(members), arity), dtype=np.intp)
        for k, i in enumerate(members):
            term = universe[i]
            for p, iv in enumerate(term.args):
                los[k, p] = index[iv.lo]
                his[k, p] = index[iv.hi]
        groups.append((np.asarray(members, dtype=np.intp), los, his))
    return groups


def _apply_step(edges: np.ndarray, static, groups, bottom: int | None) -> np.ndarray:
    new = edges.copy()
    for rows, los, his in groups:
        k, arity = los.shape
        cont = np.ones((k, k), dtype=bool)
        for p in range(arity):
            lo = los[:, p]
            hi = his[:, p]
            # cont[i, j]: argument p of instantiation i fits inside that of j
            cont &= edges[np.ix_(lo, lo)].T & edges[np.ix_(hi, hi)]
        new[np.ix_(rows, rows)] |= cont
    srows, scols = static
    if srows.size:
        new[srows, scols] = True
    if bottom is not None:
        new[bottom, :] = True
    return _transitive_closure(new)


def _transitive_closure(edges: np.ndarray) -> np.ndarray:
    """Exact reachability closure on bit-packed rows."""
    n = edges.shape[0]
    packed = np.packbits(edges, axis=1)
    while True:
        changed = False
        for i in range(n):
            row = packed[i]
            succs = np.flatnonzero(np.unpackbits(row, count=n))
            merged = np.bitwise_or.reduce(packed[succs], axis=0)
            if not np.array_equal(merged, row):
                packed[i] = merged
                changed = True
        if not changed:
            break
    return np.unpackbits(packed, axis=1, count=n).astype(bool)


# -- export / import ---------------------------------------------------------


def export_json(rel: SubtypeRelation) -> str:
    """Serialize as {depth, include_cofree, universe, edges} with indices
    into the canonical universe order; deterministic."""
    doc = {
        "depth": rel.depth,
        "include_cofree": rel.include_cofree,
        "universe": list(rel.labels),
        "edges": [[int(i), int(j)] for i, j in np.argwhere(rel.edges)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def relation_from_json(table: ClassTable, text: str) -> SubtypeRelation:
    """Rebuild a relation exported by export_json, using the table to parse
    the printed terms; a document without include_cofree gets the
    build_relation default, and a `cap` key (written by older versions) is
    ignored."""
    doc = json.loads(text)
    labels = tuple(doc["universe"])
    universe = tuple(parse_type(table, s) for s in labels)
    n = len(universe)
    edges = np.zeros((n, n), dtype=bool)
    for i, j in doc["edges"]:
        edges[i, j] = True
    return SubtypeRelation(universe, labels, edges, 0, int(doc["depth"]),
                           doc.get("include_cofree", True))


def export_dot(rel: SubtypeRelation) -> str:
    """Hasse diagram (transitive reduction) in DOT form, edges pointing from
    subtype to supertype; deterministic."""
    n = len(rel.universe)
    strict = rel.edges & ~np.eye(n, dtype=bool)
    f = strict.astype(np.float32)
    indirect = (f @ f) > 0
    hasse = strict & ~indirect
    lines = ["digraph subtyping {", "  rankdir=BT;"]
    for label in rel.labels:
        lines.append(f'  "{label}";')
    for i, j in np.argwhere(hasse):
        lines.append(f'  "{rel.labels[i]}" -> "{rel.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
