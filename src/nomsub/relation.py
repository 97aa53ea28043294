"""Stratified construction of the depth-bounded subtyping relation.

The universe of terms at depth d is enumerated from the relation built at
depth d-1, as products of its intervals (its edges, so endpoint-ordered
pairs).  The relation over it is the least one closed under four rules:

  (a) containment edges between same-class instantiations,
  (b) inheritance edges along superclass chains,
  (c) co-free axioms (below the class's instantiations, between co-free
      atoms along subclassing, and below the root),
      plus bottom below everything,
  (d) transitivity.

construction_step applies the rules once and is the reference path: stepped
from initial_relation it reaches the fixpoint.  build_relation computes the
same fixpoint directly, one stratum from the one below, with no closure:
containment is read off the depth-(d-1) relation, and each row is assembled
from containment rows along the term's superclass chain.

Edges live in a dense boolean matrix with an index map; rows are assembled
as packed bits.  Antisymmetry is not enforced — mutual_pairs exposes any
collapse instead.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache

import numpy as np

from .class_table import ClassTable, subclass_of
from .errors import (
    EndpointOutsideUniverse,
    InvalidRelationDocument,
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

    @cached_property
    def _index(self) -> dict[TypeTerm, int]:
        return {t: i for i, t in enumerate(self.universe)}

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
    return _stage(table, depth, cap, True).universe


@lru_cache(maxsize=64)
def _stage(table: ClassTable, depth: int, cap: int,
           include_cofree: bool) -> SubtypeRelation:
    """The relation at `depth`, over its universe: the depth-0 terms plus,
    per generic class, every product of the intervals (edges ``lo <: hi``)
    of the stratum below, kept as endpoint indices into that stratum.  Edges
    only grow from one stratum to the next, so the products re-generate
    every instantiation below and the universe's size is known before any
    term is built.  A class's instantiations are sorted within the class;
    their labels all begin ``C<``, so merging the classes and the depth-0
    terms by leading label gives the label order.

    Without the co-free axioms the atoms they define are dropped from the
    universe as well: the extension-free model contains only ordinary terms,
    which makes it directly comparable with the full model on its Ground
    fragment.
    """
    singles = [BOTTOM]
    for decl in table.decls.values():
        if not decl.is_generic:
            singles.append(Ground(decl.name))
        elif include_cofree:
            singles.append(Cofree(decl.name))
    if depth == 0:
        below, generics = None, []
    else:
        below = _stage(table, depth - 1, cap, include_cofree)
        pairs = np.argwhere(below.edges)
        generics = [decl for decl in table.decls.values() if decl.is_generic]
    if len(singles) + sum(len(pairs) ** decl.arity for decl in generics) > cap:
        raise UniverseCapExceeded(
            f"universe at depth {depth} exceeds the cap of {cap} terms")
    # (labels, terms, endpoint indices or None), each unit in label order
    units = [([format_type(t, table)], [t], None) for t in singles]
    if generics:
        intervals = [Interval(below.universe[i], below.universe[j]) for i, j in pairs]
    for decl in generics:
        block = [Ground(decl.name, args)
                 for args in itertools.product(intervals, repeat=decl.arity)]
        # ends[k, p] = (lo, hi) of argument p of block[k], in product order
        ends = pairs[np.indices((len(pairs),) * decl.arity).reshape(decl.arity, -1).T]
        names = [format_type(t, table) for t in block]
        order = sorted(range(len(block)), key=names.__getitem__)
        units.append(([names[k] for k in order], [block[k] for k in order], ends[order]))
    units.sort(key=lambda unit: unit[0][0])
    starts = itertools.accumulate((len(unit[1]) for unit in units), initial=0)
    blocks = [(start, ends[..., 0], ends[..., 1])
              for start, (_names, _terms, ends) in zip(starts, units) if ends is not None]
    return _stratum(table, tuple(t for unit in units for t in unit[1]),
                    tuple(s for unit in units for s in unit[0]), blocks, depth,
                    include_cofree, below)


# -- construction ------------------------------------------------------------


def initial_relation(table: ClassTable, depth: int, cap: int = DEFAULT_CAP,
                     include_cofree: bool = True) -> SubtypeRelation:
    """The reflexive relation over the enumerated universe; the starting
    point for construction_step."""
    rel = _stage(table, depth, cap, include_cofree)
    eye = np.eye(len(rel), dtype=bool)
    return SubtypeRelation(rel.universe, rel.labels, eye, 0, depth, include_cofree)


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
    """Enumerate the universe at `depth` and build the fixpoint of
    construction_step over it, each stratum directly from the one below.

    `iterations` is the number of construction_step passes that stepping
    from initial_relation takes to reach the same relation, confirming pass
    included: 2 plus the deepest nesting in the universe.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _stage(table, depth, cap, include_cofree)


def _stratum(table: ClassTable, universe: tuple[TypeTerm, ...],
             labels: tuple[str, ...], blocks, depth: int, include_cofree: bool,
             below: SubtypeRelation | None) -> SubtypeRelation:
    """The fixpoint of construction_step over `universe`, built row by row
    from the relation `below` it (None at depth 0, where no term has
    arguments).

    `blocks` holds each generic class's first universe index and its
    instantiations' endpoint indices into the universe below, where
    containment is read off the small relation.  A ground term's row is its
    containment row OR-ed with the containment rows of its superclass-chain
    members in the universe (a member's chain is a suffix of the term's own
    chain).  A co-free atom's row holds the co-free atoms of its
    superclasses, the rows of every instantiation of those classes, and the
    root; bottom's row holds every term.

    The new stratum may relate old terms that the relation below did not: a
    co-free atom reaches a plain superclass only through an instantiation,
    and a term reaches its superclass-chain members only where they exist,
    so an instantiation or chain member first enumerated here can add edges
    between old terms.  While the result restricted to the old terms differs
    from the relation used for containment, containment is recomputed from
    that restriction (semi-naive evaluation); in practice this takes at most
    one extra pass.

    Stepping needs one construction_step pass per nesting level, one for the
    static edges and a confirming one; `iterations` records that count.
    """
    n = len(universe)
    index = {t: i for i, t in enumerate(universe)}
    chains = [(i, j) for i, term in enumerate(universe) if isinstance(term, Ground)
              for j in map(index.get, super_chain(table, term)) if j is not None]
    cofree_rows = _cofree_rows(table, universe, index, blocks) if include_cofree else []
    diagonal = np.arange(n)
    bottom = index.get(BOTTOM)
    below_edges = below.edges if below is not None else None
    while True:
        packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        for start, los, his in blocks:
            _write_containment(packed, start, los, his, below_edges)
        packed[diagonal, diagonal >> 3] |= _column_bits(diagonal)
        for i, j in chains:
            packed[i] |= packed[j]
        if cofree_rows:
            reach = {start: np.bitwise_or.reduce(packed[start:start + len(los)], axis=0)
                     for start, los, _his in blocks}
            for i, starts, direct in cofree_rows:
                packed[i] |= direct
                for start in starts:
                    packed[i] |= reach[start]
        if bottom is not None:
            packed[bottom] = 0xFF
        if below is None:
            break
        old = np.fromiter((index[t] for t in below.universe), dtype=np.intp,
                          count=len(below))
        lifted = np.unpackbits(packed[old], axis=1, count=n).view(bool)[:, old]
        if np.array_equal(lifted, below_edges):
            break
        below_edges = lifted
    edges = np.unpackbits(packed, axis=1, count=n).view(bool)
    # with a generic class, some instantiation is nested `depth` deep
    nesting = depth if any(decl.is_generic for decl in table.decls.values()) else 0
    rel = SubtypeRelation(universe, labels, edges, 2 + nesting, depth, include_cofree)
    rel._index = index
    return rel


def _write_containment(packed: np.ndarray, start: int, los: np.ndarray,
                       his: np.ndarray, below: np.ndarray) -> None:
    """OR one class's containment block into the packed rows: instantiation
    i lies below j when every argument of i fits inside that of j, i.e.
    ``below[lo_j, lo_i] and below[hi_i, hi_j]`` at each position.

    Bit rows are laid out from byte ``start // 8`` so that the block is a
    plain slice of the packed matrix.
    """
    k, arity = los.shape
    offset = start % 8
    cont = None
    for p in range(arity):
        lo, hi = los[:, p], his[:, p]
        fits_lo = np.zeros((below.shape[0], offset + k), dtype=bool)
        fits_lo[:, offset:] = below[lo, :].T  # [e, j]: lo_j <: e
        fits_hi = np.zeros_like(fits_lo)
        fits_hi[:, offset:] = below[:, hi]   # [e, j]: e <: hi_j
        part = np.packbits(fits_lo, axis=1)[lo] & np.packbits(fits_hi, axis=1)[hi]
        cont = part if cont is None else cont & part
    first = start // 8
    packed[start:start + k, first:first + cont.shape[1]] |= cont


def _cofree_rows(table: ClassTable, universe, index, blocks):
    """Per co-free atom ``C<!>``: its index, the blocks of the superclasses
    of ``C`` whose instantiation rows it joins, and the packed row of the
    terms it reaches directly (the superclasses' co-free atoms and the
    root)."""
    block_of = {universe[start].cls: start for start, _los, _his in blocks}
    atoms = [(i, t) for i, t in enumerate(universe) if isinstance(t, Cofree)]
    root = index.get(root_term(table))
    rows = []
    for i, atom in atoms:
        supers = [other for _j, other in atoms if subclass_of(table, atom.cls, other.cls)]
        starts = [block_of[s.cls] for s in supers if s.cls in block_of]
        direct = np.zeros(len(universe), dtype=bool)
        direct[[index[s] for s in supers]] = True
        if root is not None:
            direct[root] = True
        rows.append((i, starts, np.packbits(direct)))
    return rows


def _column_bits(cols: np.ndarray) -> np.ndarray:
    """The bit of each column within its byte of an `np.packbits` row."""
    return (0x80 >> (cols & 7)).astype(np.uint8)


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
    into the canonical universe order; deterministic.

    The text is that of ``json.dumps(doc, indent=2, sort_keys=True)``,
    written directly: the pure-Python encoder that ``indent`` selects is
    slow on large edge lists.
    """
    # one string per nonempty row, its pairs joined with the row's head
    tails = np.array([f"{j}\n    ]" for j in range(len(rel))], dtype=object)
    edges = []
    for i, row in enumerate(rel.edges):
        if row.any():
            head = f"    [\n      {i},\n      "
            edges.append(head + (",\n" + head).join(tails[row]))
    universe = [f"    {json.dumps(label)}" for label in rel.labels]
    return (f'{{\n  "depth": {json.dumps(rel.depth)},\n'
            f'  "edges": {_json_array(edges)},\n'
            f'  "include_cofree": {json.dumps(rel.include_cofree)},\n'
            f'  "universe": {_json_array(universe)}\n}}\n')


def _json_array(items: list[str]) -> str:
    """Encoded items (runs of items joined by ``",\\n"`` count as one) as the
    array value of a top-level key, laid out as ``json.dumps(indent=2)``
    lays it out."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def relation_from_json(table: ClassTable, text: str) -> SubtypeRelation:
    """Rebuild a relation exported by export_json, using the table to parse
    the printed terms; a document without include_cofree gets the
    build_relation default, and a `cap` key (written by older versions) is
    ignored.  A universe entry that repeats an earlier term, or an edge
    index outside the universe, raises InvalidRelationDocument."""
    doc = json.loads(text)
    labels = tuple(doc["universe"])
    universe = tuple(parse_type(table, s) for s in labels)
    index: dict[TypeTerm, int] = {}
    for k, term in enumerate(universe):
        first = index.setdefault(term, k)
        if first != k:
            raise InvalidRelationDocument(
                f"universe entry {k} '{labels[k]}' repeats entry {first} '{labels[first]}'")
    n = len(universe)
    pairs = np.asarray(doc["edges"], dtype=np.intp).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        raise InvalidRelationDocument(
            f"edge {bad[0]} {pairs[bad[0]].tolist()} has an index outside the "
            f"universe of {n} terms")
    edges = np.zeros((n, n), dtype=bool)
    edges[pairs[:, 0], pairs[:, 1]] = True
    rel = SubtypeRelation(universe, labels, edges, 0, int(doc["depth"]),
                          doc.get("include_cofree", True))
    rel._index = index
    return rel


def export_dot(rel: SubtypeRelation) -> str:
    """Hasse diagram (transitive reduction) in DOT form, edges pointing from
    subtype to supertype; deterministic."""
    n = len(rel.universe)
    strict = np.packbits(rel.edges, axis=1)
    diagonal = np.arange(n)
    strict[diagonal, diagonal >> 3] &= ~_column_bits(diagonal)
    lines = ["digraph subtyping {", "  rankdir=BT;"]
    for label in rel.labels:
        lines.append(f'  "{label}";')
    for i in range(n):
        # an edge is kept unless it is also a path of two strict edges
        row = strict[i]
        successors = np.flatnonzero(np.unpackbits(row, count=n))
        hasse = row & ~np.bitwise_or.reduce(strict[successors], axis=0)
        for j in np.flatnonzero(np.unpackbits(hasse, count=n)):
            lines.append(f'  "{rel.labels[i]}" -> "{rel.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
