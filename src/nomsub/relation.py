"""Stratified construction of the depth-bounded subtyping relation.

The universe of terms at depth d is enumerated from the relation built at
depth d-1, as products of its intervals (its edges, so endpoint-ordered
pairs).  The relation over it is the least one closed under four rules:

  (a) containment edges between same-class instantiations,
  (b) inheritance edges along superclass chains,
  (c) co-free atoms below every term of every class their class
      subclasses, plus bottom below everything,
  (d) transitivity.

construction_step applies the rules once and is the reference path: stepped
from initial_relation it reaches the fixpoint.  build_relation computes the
same fixpoint directly, in one forward loop over the strata that holds only
the stratum below, with no closure (a table with no generic class has one
stratum, built once).  Each stratum records each class's run of the
label-sorted universe once, with a generic class's endpoint and product
indices into the stratum below; from that one layout, containment is read
off the depth-(d-1) relation, and each row is its containment row OR-ed
with the final row of its chain parent, the nearest superclass-chain member
in the universe.  Nothing is cached between builds; the only resource limit
is a fixed 4 GiB budget for a stratum's packed rows, checked from its exact
term count before any of its terms is built.

Edges live in packed bit rows (``np.packbits`` along each row, n x
ceil(n/8) bytes) with an index map, from the build to every query and
analysis; the dense boolean ``edges`` view is unpacked only on request.
Antisymmetry is not enforced — mutual_pairs exposes any collapse instead.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property

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
    format_interval,
    format_type,
    has_cofree,
    nesting_depth,
    parse_type,
    super_chain,
    term_from_typeuse,
)

_ROW_BUDGET = 1 << 32  # bytes of packed rows per stratum; fixed, not read from the host
# rows per band keep a band's temporaries near 16 MiB
_BAND_BYTES = 1 << 24


class SubtypeRelation:
    """Constructed subtyping preorder over an enumerated universe.

    `bits` holds the edges as packed rows: bit j of row i (byte ``j >> 3``,
    most significant bit first, as ``np.packbits`` lays it out) is set when
    term i is a subtype of term j.  It is an n x ceil(n/8) ``uint8`` array
    whose padding bits, past column n-1 in the last byte of each row, are
    all zero, so equal relations have equal bytes; the constructor raises
    ValueError on any other dtype, shape or padding.

    Frozen after construction: the rows are read-only and every query is
    safe to run concurrently.  Equality compares depth, universe, edges and
    the include_cofree flag; iteration provenance is excluded, since it
    records how the relation was built, not what it is.
    """

    def __init__(self, universe: tuple[TypeTerm, ...], labels: tuple[str, ...],
                 bits: np.ndarray, iterations: int, depth: int,
                 include_cofree: bool = True):
        n = len(universe)
        if bits.dtype != np.uint8:
            raise ValueError(f"packed rows must be uint8, not {bits.dtype}")
        if bits.shape != (n, (n + 7) // 8):
            raise ValueError(f"packed rows of {n} terms must have shape "
                             f"{(n, (n + 7) // 8)}, not {bits.shape}")
        if n % 8 and (bits[:, -1] & (0xFF >> n % 8)).any():
            raise ValueError("packed rows have a padding bit set")
        self.universe = universe
        self.labels = labels
        bits.setflags(write=False)
        self.bits = bits
        self.iterations = iterations
        self.depth = depth
        self.include_cofree = include_cofree

    @property
    def edges(self) -> np.ndarray:
        """The dense n x n boolean matrix, unpacked afresh on each access."""
        edges = _unpack(self.bits, len(self.universe))
        edges.setflags(write=False)
        return edges

    def related(self, rows, cols) -> np.ndarray:
        """``edges[rows, cols]`` under numpy broadcasting, read from the
        packed rows without unpacking them."""
        return _bits_at(self.bits, rows, cols)

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
                and bool(np.array_equal(self.bits, other.bits)))

    def __repr__(self) -> str:
        edges = _edge_count(self.bits)
        return (f"SubtypeRelation(depth={self.depth}, terms={len(self.universe)}, "
                f"edges={edges}, iterations={self.iterations})")


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _unpack(bits: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(bits, axis=1, count=n).view(bool)


def _bits_at(bits: np.ndarray, rows, cols) -> np.ndarray:
    cols = np.asarray(cols)
    picked = bits[rows, cols >> 3]
    picked >>= (~cols & 7).astype(np.uint8)
    picked &= 1
    return picked.view(bool)


def _set_bits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every set bit of packed rows, in row-major order;
    only the nonzero bytes are unpacked."""
    rows, byte_cols = np.nonzero(bits)
    k, bit = np.nonzero(np.unpackbits(bits[rows, byte_cols][:, None], axis=1))
    return rows[k], byte_cols[k] * 8 + bit


def _edge_count(bits: np.ndarray) -> int:
    """The number of set bits of packed rows, counted a band of rows at a
    time so that no temporary of the rows' size is made."""
    band = max(1, _BAND_BYTES // max(1, bits.shape[1]))
    return sum(int(_POPCOUNT[bits[start:start + band]].sum(dtype=np.int64))
               for start in range(0, len(bits), band))


def _column_bits(cols: np.ndarray) -> np.ndarray:
    """The bit of each column within its byte of an `np.packbits` row."""
    return (0x80 >> (cols & 7)).astype(np.uint8)


# -- queries ---------------------------------------------------------------


def is_subtype(rel: SubtypeRelation, t1: TypeTerm, t2: TypeTerm) -> bool:
    """Edge lookup; total over the relation's universe."""
    return _bit(rel.bits, rel.index(t1), rel.index(t2))


def _bit(bits: np.ndarray, i: int, j: int) -> bool:
    return bool(bits.item(i, j >> 3) >> (~j & 7) & 1)


def interval_contains(rel: SubtypeRelation, inner: Interval, outer: Interval) -> bool:
    """[L1..U1] is contained in [L2..U2] iff L2 <: L1 and U1 <: U2."""
    idx = []
    for endpoint in (outer.lo, inner.lo, inner.hi, outer.hi):
        try:
            idx.append(rel.index(endpoint))
        except TermOutsideUniverse:
            raise EndpointOutsideUniverse(
                f"endpoint '{format_type(endpoint)}' is outside the universe") from None
    return _bit(rel.bits, idx[0], idx[1]) and _bit(rel.bits, idx[2], idx[3])


def mutual_pairs(rel: SubtypeRelation) -> list[tuple[TypeTerm, TypeTerm]]:
    """Distinct term pairs related in both directions; the antisymmetry
    diagnostic, expected empty on well-behaved tables."""
    found = []
    # a band of rows at a time, from its diagonal byte on, bounds the edge
    # lists held at once
    for start in range(0, len(rel), 256):
        sub, sup = _set_bits(rel.bits[start:start + 256, start >> 3:])
        sub += start
        sup += start >> 3 << 3
        ahead = sub < sup
        sub, sup = sub[ahead], sup[ahead]
        mutual = rel.related(sup, sub)
        found += zip(sub[mutual].tolist(), sup[mutual].tolist())
    return [(rel.universe[i], rel.universe[j]) for i, j in found]


# -- universe enumeration ----------------------------------------------------


def enumerate_universe(table: ClassTable, depth: int) -> tuple[TypeTerm, ...]:
    """All admittable terms of nesting depth <= depth, in canonical order
    (lexicographic on printed form).

    Interval arguments admit only endpoint-ordered pairs, judged under the
    relation built at the previous depth; declared parameter bounds are
    ignored (admittability, not validity).
    """
    return build_relation(table, depth).universe


def _stage(table: ClassTable, below: SubtypeRelation | None, depth: int,
           include_cofree: bool) -> SubtypeRelation:
    """The relation at `depth`, over its universe: the depth-0 terms plus,
    per generic class, every product of the intervals (edges ``lo <: hi``)
    of the stratum `below` (None at depth 0), kept as endpoint indices into
    that stratum.  Edges only grow from one stratum to the next, so the
    products re-generate every instantiation below and the universe's size
    is known, and checked against the row budget, before any term is built.
    A class's instantiations are sorted within the class; their labels all
    begin ``C<``, so merging the classes and the depth-0 terms by leading
    label gives the label order.

    Every class with ground terms is then one run of that order, recorded
    once as ``(start, stop, ends, order)``: a plain class's one term, with
    `ends` and `order` None, or a generic class's block, with its terms'
    endpoint indices into the stratum below and their product indices into
    its intervals.  This is the index part of the stratum as a partial
    product over the one below; every row writer reads it.

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
    generics = [] if below is None else [d for d in table.decls.values() if d.is_generic]
    m = _edge_count(below.bits) if generics else 0
    n = len(singles) + sum(m ** decl.arity for decl in generics)
    need = n * ((n + 7) // 8)
    if need > _ROW_BUDGET:
        raise UniverseCapExceeded(
            f"universe at depth {depth} has {n} terms, whose packed rows need "
            f"{need} bytes, over the budget of {_ROW_BUDGET} bytes")
    # (labels, terms, endpoint indices, product index of each term), each
    # unit in label order; the last two are None for a depth-0 term
    units = [([format_type(t, table)], [t], None, None) for t in singles]
    pairs = None
    if generics:
        pairs = np.stack(_set_bits(below.bits), axis=1)
        listed = pairs.tolist()
        intervals = [Interval(below.universe[i], below.universe[j]) for i, j in listed]
        arguments = [format_interval(below.labels[i], below.labels[j], table.root)
                     for i, j in listed]
    for decl in generics:
        block = [Ground(decl.name, args)
                 for args in itertools.product(intervals, repeat=decl.arity)]
        # ends[k, p] = (lo, hi) of argument p of block[k], in product order
        ends = pairs[np.indices((len(pairs),) * decl.arity).reshape(decl.arity, -1).T]
        names = [f"{decl.name}<{', '.join(args)}>"
                 for args in itertools.product(arguments, repeat=decl.arity)]
        order = sorted(range(len(block)), key=names.__getitem__)
        units.append(([names[k] for k in order], [block[k] for k in order], ends[order],
                      np.array(order, dtype=np.intp)))
    units.sort(key=lambda unit: unit[0][0])
    runs, start = {}, 0
    for _labels, terms, ends, order in units:
        if isinstance(terms[0], Ground):
            runs[terms[0].cls] = (start, start + len(terms), ends, order)
        start += len(terms)
    return _stratum(table, tuple(t for unit in units for t in unit[1]),
                    tuple(s for unit in units for s in unit[0]), runs, pairs, depth,
                    include_cofree, below)


# -- construction ------------------------------------------------------------


def initial_relation(table: ClassTable, depth: int,
                     include_cofree: bool = True) -> SubtypeRelation:
    """The reflexive relation over the enumerated universe; the starting
    point for construction_step."""
    rel = build_relation(table, depth, include_cofree)
    eye = np.packbits(np.eye(len(rel), dtype=bool), axis=1)
    return SubtypeRelation(rel.universe, rel.labels, eye, 0, depth, include_cofree)


def construction_step(table: ClassTable, rel: SubtypeRelation) -> SubtypeRelation:
    """One composable pass of rules (a)-(d).  Never removes edges; applying
    the step to a fixpoint returns an equal relation."""
    static = _static_edges(table, rel.universe, rel._index)
    groups = _containment_groups(table, rel.universe, rel._index)
    bottom = rel._index.get(BOTTOM)
    new = np.packbits(_apply_step(rel.edges, static, groups, bottom), axis=1)
    return SubtypeRelation(rel.universe, rel.labels, new, rel.iterations + 1,
                           rel.depth, rel.include_cofree)


def build_relation(table: ClassTable, depth: int,
                   include_cofree: bool = True) -> SubtypeRelation:
    """Enumerate the universe at `depth` and build the fixpoint of
    construction_step over it, in one loop over the strata: each pass builds
    stratum d directly from stratum d-1, after checking the row budget
    against the exact size of stratum d.  A table with no generic class has
    the depth-0 terms at every depth, so its one stratum is built once, at
    `depth`.

    `iterations` is the number of construction_step passes that stepping
    from initial_relation takes to reach the same relation, confirming pass
    included: 2 plus the deepest nesting in the universe.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    first = 0 if any(decl.is_generic for decl in table.decls.values()) else depth
    rel = _stage(table, None, first, include_cofree)
    for d in range(first + 1, depth + 1):
        rel = _stage(table, rel, d, include_cofree)
    return rel


def _stratum(table: ClassTable, universe: tuple[TypeTerm, ...], labels: tuple[str, ...],
             runs: dict, pairs: np.ndarray | None, depth: int, include_cofree: bool,
             below: SubtypeRelation | None) -> SubtypeRelation:
    """The fixpoint of construction_step over `universe`, built row by row
    from the relation `below` it (None at depth 0, where no term has
    arguments).

    `runs` maps each class with ground terms to its run ``(start, stop,
    ends, order)`` of the universe (see _stage).  A generic class's `ends`
    are its instantiations' endpoint indices into the universe below, where
    containment is read off the small relation.  A ground term's row is its
    containment row OR-ed with the final row of its parent, the nearest
    member of its superclass chain in the universe (see _parents): the
    runs are OR-ed in superclass-depth order, so each parent row is final
    before it is read, a band of rows at a time.  A co-free atom's row is
    set from class runs (see _cofree_rows); bottom's row holds every term.

    The new stratum may relate old terms that the relation below did not,
    for one cause: a term reaches its superclass-chain members only where
    they exist, so a chain member first enumerated here (from a superclass
    argument that nests a parameter, or a closed type deeper than the
    stratum below) can add edges between old terms.  While the result
    restricted to the old terms differs from the relation used for
    containment, containment is recomputed from that restriction
    (semi-naive evaluation); in practice this takes at most one extra pass.

    Stepping needs one construction_step pass per nesting level, one for the
    static edges and a confirming one; `iterations` records that count.
    """
    n = len(universe)
    width = (n + 7) // 8
    band = max(1, _BAND_BYTES // width)
    index = {t: i for i, t in enumerate(universe)}
    parent = _parents(table, universe, index, runs, below, pairs)
    order = sorted(runs, key=lambda cls: len(table.ancestors(cls)))
    cofree_rows = list(_cofree_rows(table, n, index, runs)) if include_cofree else []
    diagonal = np.arange(n)
    bottom = index[BOTTOM]
    if below is not None:
        # the stratum below is read densely: with a generic class it holds under
        # a third of this one's terms, and without one only the depth-0 terms
        below_edges = _unpack(below.bits, len(below))
        old = np.fromiter((index[t] for t in below.universe), dtype=np.intp,
                          count=len(below))
    packed = np.zeros((n, width), dtype=np.uint8)
    while True:
        for start, _stop, ends, _order in runs.values():
            if ends is not None:
                _write_containment(packed, start, ends, below_edges, band)
        packed[diagonal, diagonal >> 3] |= _column_bits(diagonal)
        for cls in order:
            start, stop = runs[cls][:2]
            for first in range(start, stop, band):
                last = min(first + band, stop)
                packed[first:last] |= packed[parent[first:last]]
        for i, row in cofree_rows:
            packed[i] = row
        packed[bottom] = np.packbits(np.ones(n, dtype=bool))  # no padding bit
        if below is None:
            break
        lifted = _bits_at(packed, old[:, None], old)
        if np.array_equal(lifted, below_edges):
            break
        below_edges = lifted
        packed.fill(0)
    # with a generic class, some instantiation is nested `depth` deep
    nesting = depth if any(decl.is_generic for decl in table.decls.values()) else 0
    rel = SubtypeRelation(universe, labels, packed, 2 + nesting, depth, include_cofree)
    rel._index = index
    return rel


def _parents(table: ClassTable, universe: tuple[TypeTerm, ...], index: dict[TypeTerm, int],
             runs: dict, below: SubtypeRelation | None, pairs: np.ndarray | None) -> np.ndarray:
    """Each ground term's parent, by universe index: the first member of its
    superclass chain that lies in the universe, or the term itself where
    none does.  A chain member's own chain is a suffix of the term's chain,
    so the parent's final row covers every member the term reaches.

    Where a generic class's superclass arguments are its parameters at
    direct positions or closed types of the stratum below, its terms'
    parents follow by index arithmetic (_block_parents).  The other terms
    walk their chain: the depth-0 ones, and those whose superclass
    arguments nest a parameter or are deeper closed types.
    """
    parent = np.arange(len(universe))
    for cls, (start, stop, _ends, order) in runs.items():
        found = None if order is None else _block_parents(table, cls, order, runs, below, pairs)
        if found is None:
            found = [next((index[m] for m in super_chain(table, universe[i]) if m in index), i)
                     for i in range(start, stop)]
        parent[start:stop] = found
    return parent


def _block_parents(table: ClassTable, cls: str, order: np.ndarray, runs: dict,
                   below: SubtypeRelation, pairs: np.ndarray):
    """The parents of generic class `cls`'s terms, in block order, by index
    arithmetic; None where a superclass argument nests a parameter or is a
    closed type outside the stratum below.

    Term k of the block is the index product ``order[k]`` of `pairs`, one
    mixed-radix digit per argument.  Its super-instantiation takes the
    digit of the parameter at each direct position and a closed type's
    point pair elsewhere, which gives that member's product index in its
    own class; the class's label order ranks it.
    """
    decl = table.decl(cls)
    sup = decl.superclass
    if not sup.args:
        return runs[sup.name][0]
    position = {p.name: q for q, p in enumerate(decl.params)}
    digits = np.unravel_index(order, (len(pairs),) * decl.arity)
    chosen = []
    for arg in sup.args:
        if not arg.args and arg.name in position:
            chosen.append(digits[position[arg.name]])
            continue
        if any(name in position for name in arg.mentioned_names()):
            return None
        closed = term_from_typeuse(table, arg)
        if closed not in below:
            return None
        j = below.index(closed)
        chosen.append(np.flatnonzero((pairs[:, 0] == j) & (pairs[:, 1] == j))[0])
    start, _stop, _ends, sup_order = runs[sup.name]
    rank = np.empty_like(sup_order)
    rank[sup_order] = np.arange(len(sup_order))
    return start + rank[np.ravel_multi_index(chosen, (len(pairs),) * len(chosen))]


def _write_containment(packed: np.ndarray, start: int, ends: np.ndarray,
                       below: np.ndarray, band: int) -> None:
    """OR one class's containment block into the packed rows: instantiation
    i lies below j when every argument of i fits inside that of j, i.e.
    ``below[lo_j, lo_i] and below[hi_i, hi_j]`` at each position.

    Per argument position, two tables of packed rows over the block hold
    one row per term e below, each packed from rows gathered contiguously
    out of `below` or its transpose: bit j of ``fits_lo[e]`` is
    ``below[lo_j, e]`` and bit j of ``fits_hi[e]`` is ``below[e, hi_j]``.
    Row i of the block is then the AND over the positions of
    ``fits_lo[lo_i] & fits_hi[hi_i]``, written a band of rows at a time.
    Bits are laid out from byte ``start // 8`` so that the block is a plain
    slice of the packed matrix.
    """
    los, his = ends[..., 0], ends[..., 1]
    k, arity = los.shape
    offset, first = start % 8, start // 8
    by_row, by_col = below.view(np.uint8), np.ascontiguousarray(below.T).view(np.uint8)
    tables = [(_packed_columns(by_row, los[:, p], offset),
               _packed_columns(by_col, his[:, p], offset)) for p in range(arity)]
    width = tables[0][0].shape[1]
    for top in range(0, k, band):
        rows = slice(top, min(top + band, k))
        cont = None
        for p, (fits_lo, fits_hi) in enumerate(tables):
            part = fits_lo[los[rows, p]]
            part &= fits_hi[his[rows, p]]
            if cont is None:
                cont = part
            else:
                cont &= part
        packed[start + rows.start:start + rows.stop, first:first + width] |= cont


def _packed_columns(matrix: np.ndarray, picks: np.ndarray, offset: int) -> np.ndarray:
    """Packed rows over `picks`, one per column e of the 0/1 byte `matrix`:
    bit ``offset + j`` of row e is ``matrix[picks[j], e]``.

    The picked rows are gathered contiguously, and each group of eight is
    shifted into the bits of one byte, which packs them along the gathered
    axis without a strided pass.
    """
    k, m = len(picks), matrix.shape[1]
    nbytes = (offset + k + 7) // 8
    gathered = np.zeros((nbytes * 8, m), dtype=np.uint8)
    np.take(matrix, picks, axis=0, out=gathered[offset:offset + k], mode="clip")
    lanes = gathered.reshape(nbytes, 8, m)
    out = lanes[:, 0] << 7
    for bit in range(1, 8):
        out |= lanes[:, bit] << (7 - bit)
    return np.ascontiguousarray(out.T)


def _cofree_rows(table: ClassTable, n: int, index: dict[TypeTerm, int], runs: dict):
    """Yield each co-free atom ``C<!>``'s index and packed row: the atom
    lies below every term of every class C subclasses, C included, at every
    depth.  Each class's terms are one contiguous run of the label-sorted
    universe: a generic class's atom, just before its block (if it has
    one); a plain class's one term."""
    for atom in (d for d in table.decls.values() if d.is_generic):
        row = np.zeros(n, dtype=bool)
        for name in table.ancestors(atom.name):
            first = index[Cofree(name) if table.decl(name).is_generic else Ground(name)]
            row[first:runs[name][1] if name in runs else first + 1] = True
        yield index[Cofree(atom.name)], np.packbits(row)


def _static_edges(table: ClassTable, universe, index):
    """Relation-independent edges: inheritance chains, and each co-free atom
    below every non-bottom term whose class its class subclasses (a universe
    built without the co-free extension holds no atom).

    Inheritance walks the whole superclass chain so that targets whose
    intermediate instantiations fall outside the universe are still reached
    (depth-0 relations must restrict to subclassing exactly).
    """
    rows: list[int] = []
    cols: list[int] = []
    for i, term in enumerate(universe):
        if isinstance(term, Ground):
            for sup in super_chain(table, term):
                j = index.get(sup)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
        elif isinstance(term, Cofree):
            for j, other in enumerate(universe):
                if other != BOTTOM and subclass_of(table, term.cls, other.cls):
                    rows.append(i)
                    cols.append(j)
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
    """Exact reachability closure (Warshall): after pass k, every row that
    reaches k also reaches what k reaches."""
    closure = edges.copy()
    for k in range(len(closure)):
        closure[closure[:, k]] |= closure[k]
    return closure


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
    rows, cols = _set_bits(rel.bits)
    starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
    picked = tails[cols].tolist()
    edges = []
    for a, b in zip(starts, starts[1:] + [len(rows)]):
        head = f"    [\n      {rows[a]},\n      "
        edges.append(head + (",\n" + head).join(picked[a:b]))
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
    ignored.  A document that is not an object with depth, universe and
    edges, a malformed value, or a universe entry that repeats an earlier
    term, is nested deeper than the depth, or holds a co-free atom when
    include_cofree is false raises InvalidRelationDocument."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"depth", "universe", "edges"} <= doc.keys()):
        raise InvalidRelationDocument("not an object with depth, universe and edges")
    depth, include_cofree = doc["depth"], doc.get("include_cofree", True)
    if type(depth) is not int or depth < 0:
        raise InvalidRelationDocument(f"depth {json.dumps(depth)} is not a non-negative integer")
    if not isinstance(include_cofree, bool):
        raise InvalidRelationDocument(
            f"include_cofree {json.dumps(include_cofree)} is not a boolean")
    labels = doc["universe"]
    if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise InvalidRelationDocument("universe is not a list of term labels")
    universe = tuple(parse_type(table, s) for s in labels)
    index: dict[TypeTerm, int] = {}
    for k, term in enumerate(universe):
        first = index.setdefault(term, k)
        if first != k:
            raise InvalidRelationDocument(
                f"universe entry {k} '{labels[k]}' repeats entry {first} '{labels[first]}'")
        if nesting_depth(term) > depth:
            raise InvalidRelationDocument(
                f"universe entry {k} '{labels[k]}' is nested {nesting_depth(term)} deep, "
                f"deeper than depth {depth}")
        if not include_cofree and has_cofree(term):
            raise InvalidRelationDocument(
                f"universe entry {k} '{labels[k]}' holds a co-free atom, "
                "but include_cofree is false")
    n, entries = len(universe), doc["edges"]
    if not isinstance(entries, list):
        raise InvalidRelationDocument("edges is not a list of index pairs")
    try:
        pairs = np.asarray(entries) if entries else np.empty((0, 2), dtype=np.intp)
    except ValueError:  # entries of unequal length
        pairs = np.empty(0)
    # numpy reads a JSON boolean next to an integer as 0 or 1
    if (pairs.shape[1:] != (2,) or pairs.dtype.kind not in "iu"
            or bool in set(map(type, itertools.chain.from_iterable(entries)))):
        for k, pair in enumerate(entries):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(i) is int for i in pair)):
                raise InvalidRelationDocument(
                    f"edge {k} is {json.dumps(pair)}, not a pair of integer indices")
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        raise InvalidRelationDocument(
            f"edge {bad[0]} {pairs[bad[0]].tolist()} has an index outside the "
            f"universe of {n} terms")
    bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(bits, (pairs[:, 0], pairs[:, 1] >> 3), _column_bits(pairs[:, 1]))
    rel = SubtypeRelation(universe, tuple(labels), bits, 0, depth, include_cofree)
    rel._index = index
    return rel


def export_dot(rel: SubtypeRelation) -> str:
    """Hasse diagram (transitive reduction) in DOT form, edges pointing from
    subtype to supertype; deterministic."""
    n = len(rel.universe)
    strict = rel.bits.copy()
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
