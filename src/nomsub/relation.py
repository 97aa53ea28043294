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
label-sorted universe once, with a generic class's endpoint indices into
the stratum below; from that layout every bit follows one product rule
(see _factored_at): in the run of class A, a ground term's bits are the
containment, read off the depth-(d-1) relation, of its superclass-chain
member of class A (Universe.reach), found by product number (member_at,
instantiated) as the index twin of terms.super_instantiation.

Every relation is a Universe plus its edges: a stratum's runs, as _stage
enumerates them for (table, depth, include_cofree), with its labels,
endpoint indices, chain members and terms made on first use.  Analyses that
read only indices make no label and no term.  Nothing is cached between
builds.  The only resource limit is a fixed 4 GiB budget for a stratum's
packed rows, checked from its exact term count before any label is
printed; a document read back is held to its own size.  decider answers a
pair of the depth-d relation by the same rules without building it;
chains_stay_in_universe states when the depth-d rows answer the
depth-(d+1) questions about their own terms instead; universe_faults says
why a term lies outside U_d, judging each interval by the decider at d-1.

A built relation holds its edges in factored form: the relation over the
stratum below, lifted, plus the layout.  A point query reads two bits
below per argument position (see _factored_at), so the analyses that ask
for pairs (the adjunction grid, the closure laws, the F-(co)algebras,
validity) need no n x n structure.  Packed bit rows (``np.packbits`` along
each row, n x ceil(n/8) bytes) are made from it once, on the first
whole-row read or one-pair query, for the row scans, equality and the
exported document; the dense boolean ``edges`` view is unpacked only on
request.  Antisymmetry is not enforced — mutual_pairs exposes any collapse
instead.
"""

from __future__ import annotations

import base64
import itertools
import json
import threading
from bisect import bisect_left
from collections.abc import Callable, Sequence
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .class_table import ClassDecl, ClassTable, TypeUse, subclass_of
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
    nesting_depth,
    super_chain,
    super_instantiation,
)

_ROW_BUDGET = 1 << 32  # bytes of packed rows per stratum; fixed, not read from the host
# bytes of rows per band (see _bands), so that a band's temporaries stay near
# a core's cache; at 64 KiB the sample@3 build took 1.6-2.1 s, not 1.5-1.6 s
_BAND_BYTES = 1 << 18
# held while a universe makes its labels or terms (again for the stratum below),
# and while a built relation makes its rows
_MAKING = threading.RLock()


class Universe:
    """The terms of one stratum, as _stage enumerates them for `table`,
    `depth` and `include_cofree`.  Every relation over these terms shares
    this one value: the build's, the relations stepped or doctored from it,
    and a document read back, which must list exactly its labels.

    _stage gives the term count, the indices of bottom and each co-free atom
    (`atoms`), each class's run ``(start, stop, ends, position)`` (`runs`)
    and the edges below that its generic blocks are products of
    (`intervals`); all else, labels and terms too, is made on first use,
    once.  Members are found by product number (member_at), so analyses
    reading indices make no label and no term; `label` makes one alone.
    """

    def __init__(self, table: ClassTable, depth: int, include_cofree: bool, size: int,
                 runs: dict, bottom: int, atoms: dict[str, int], below: Universe | None,
                 intervals: np.ndarray | None):
        self.table, self.depth, self.include_cofree = table, depth, include_cofree
        self.runs, self.bottom, self.atoms, self.intervals = runs, bottom, atoms, intervals
        self._size, self._below = size, below

    def __len__(self) -> int:
        return self._size

    # plain properties: a cached_property holds its own lock while it runs
    # (before Python 3.12), which _MAKING, taken inside, meets in both orders
    @property
    def labels(self) -> tuple[str, ...]:
        return _made(self, "labels", _labels)

    @property
    def terms(self) -> tuple[TypeTerm, ...]:
        return _made(self, "terms", _terms)

    def label(self, i: int) -> str:
        """Term i's label, read off `labels` once they are made, and until
        then formatted alone, a run member's from its endpoints' below."""
        if "labels" in vars(self):
            return self.labels[i]
        i, below = range(len(self))[i], self._below
        for cls, (start, stop, ends, _position) in self.runs.items():
            if start <= i < stop:
                return cls if ends is None else cls + "<" + ", ".join(
                    format_interval(below.label(lo), below.label(hi), self.table.root)
                    for lo, hi in ends[i - start].tolist()) + ">"
        return format_type(BOTTOM if i == self.bottom else
                           Cofree(next(c for c, k in self.atoms.items() if k == i)))

    @cached_property
    def index(self) -> dict[TypeTerm, int]:
        return {t: i for i, t in enumerate(self.terms)}

    @cached_property
    def _from_below(self) -> np.ndarray:
        """Each term of the stratum below at its index in this one: a block
        member at its product's position in its class's block here."""
        below = self._below
        at = np.empty(len(below), dtype=np.intp)
        at[[below.bottom, *below.atoms.values()]] = [self.bottom, *self.atoms.values()]
        for cls, (start, stop, ends, _position) in below.runs.items():
            here, *_, position = self.runs[cls]
            at[start:stop] = here if ends is None else _members(
                self, here, position, below.ends[cls])
        return at

    @cached_property
    def _to_below(self) -> np.ndarray:
        """Each term's index in the stratum below, len(below) where it is
        not there, and at index -1 (outside) too."""
        m = len(self._below)
        to = np.full(len(self) + 1, m)
        to[self._from_below] = np.arange(m)
        return to

    @cached_property
    def _keys(self) -> np.ndarray:  # the edges below as lo * (len(below) + 1) + hi, ascending
        return self.intervals[:, 0] * (len(self._below) + 1) + self.intervals[:, 1]

    @cached_property
    def ends(self) -> dict[str, np.ndarray]:
        """Each generic class's endpoint indices into this universe, aligned
        with its run: ``ends[cls][k, p]`` is the (lo, hi) of argument p of
        the run's k-th term."""
        return {cls: self._from_below[ends]
                for cls, (_start, _stop, ends, _position) in self.runs.items()
                if ends is not None}

    @cached_property
    def classes(self) -> np.ndarray:
        """Each term's class as a position in `table.class_names`; -1 for
        bottom.  A class's ground terms are its run."""
        position = {c: k for k, c in enumerate(self.table.class_names)}
        classes = np.full(len(self), -1)
        for c, (start, stop, *_) in self.runs.items():
            classes[start:stop] = position[c]
        for c, i in self.atoms.items():
            classes[i] = position[c]
        return classes

    @cached_property
    def ground(self) -> np.ndarray:
        """Whether each term is ground: in a class's run, not bottom nor an atom."""
        ground = np.zeros(len(self), dtype=bool)
        for start, stop, *_ in self.runs.values():
            ground[start:stop] = True
        return ground

    @cached_property
    def reach(self) -> np.ndarray:
        """``reach[i, c]``: the member of class c (by position in
        `table.class_names`) of ground term i's superclass chain, i itself at
        its own class; -1 where the chain has none in the universe (c is no
        ancestor, its member lies outside, or the climb stops before it), for
        every class of bottom and of an atom, and in the last column, which
        class -1 (bottom's) reads.

        It is found for a whole class by index, one step at a time as
        terms.super_instantiation takes it: a parameter at a direct position
        passes its (lo, hi) columns through, and any other argument is the
        point that `instantiated` gives over the low endpoints (-1 outside
        the universe, as is every term holding it).  Each step goes on from
        the endpoints it reached, in the universe or not, so a member outside
        does not end the climb: a depth-0 term whose superclass takes a
        closed type nested deeper (``Enum<Weekday>``), or one whose
        superclass argument nests a parameter past the depth bound, still
        reaches the members above.  A term whose nested parameter meets a
        non-point interval has no step, and stops climbing."""
        table = self.table
        reach = np.full((len(self), len(table.class_names) + 1), -1, dtype=np.int32)
        for cls, (start, stop, *_) in self.runs.items():
            # the terms still climbing, and the endpoints of their chain member
            # of class `decl` (None for a plain class, which has none)
            here, decl, mine = np.arange(start, stop), table.decl(cls), self.ends.get(cls)
            reach[here, table.class_names.index(cls)] = here
            while decl.superclass is not None and len(here):
                sup = decl.superclass
                position = {p.name: q for q, p in enumerate(decl.params)}
                env = {name: mine[:, q, 0] for name, q in position.items()}
                stuck = np.zeros(len(here), dtype=bool)
                rows = np.empty((len(here), len(sup.args), 2), dtype=np.intp)
                for p, arg in enumerate(sup.args):
                    if not arg.args and arg.name in position:
                        rows[:, p] = mine[:, position[arg.name]]
                        continue
                    nested = [position[name] for name in arg.mentioned_names()
                              if name in position]
                    if nested:
                        stuck |= (mine[:, nested, 0] != mine[:, nested, 1]).any(axis=1)
                    rows[:, p, 0] = rows[:, p, 1] = instantiated(self, arg, env)
                reach[here, table.class_names.index(sup.name)] = np.where(
                    stuck, -1, member_at(self, sup.name, rows))
                here, decl, mine = here[~stuck], table.decl(sup.name), rows[~stuck]
        return reach

    @cached_property
    def arguments(self) -> np.ndarray:
        """``arguments[i, p]``: the (lo, hi) indices into the stratum below of
        argument p of term i, and the sentinel len(below) at every position
        that i's class lacks (each of bottom's and an atom's), so two terms
        of one class pair up position by position, and no ground term's
        argument fits inside an atom's (see _stratum's sentinel)."""
        below = 0 if self._below is None else len(self._below)
        width = max((ends.shape[1] for *_, ends, _ in self.runs.values() if ends is not None),
                    default=0)
        arguments = np.full((len(self), width, 2), below, dtype=np.int32)
        for start, stop, ends, _position in self.runs.values():
            if ends is not None:
                arguments[start:stop, :ends.shape[1]] = ends
        return arguments

    @cached_property
    def classwise(self) -> np.ndarray:
        """``classwise[a, b]``: class a subclasses class b, by position in
        `table.class_names` (b is one of a's ancestors, see subclass_of); so
        a term of class a that is not ground (an atom, or bottom at a = -1,
        the last row) lies below a term of class b (bottom's at b = -1): the
        atom below its class's ancestors' terms, bottom below everything."""
        names = self.table.class_names
        below = np.zeros((len(names) + 1,) * 2, dtype=bool)
        for a, name in enumerate(names):
            below[a, [names.index(c) for c in self.table.ancestors(name)]] = True
        below[-1] = True
        return below

    @cached_property
    def free(self) -> np.ndarray:
        """Each class's free type's index, by position in `table.class_names`
        (-1 outside the universe): a generic class's is its member at the
        edge (bottom, root) below at every position (see _members)."""
        below, free = self._below, []
        for decl in self.table.decls.values():
            start, *_, position = self.runs.get(decl.name, (-1, None))
            if position is not None:
                edge = [below.bottom, below.runs[self.table.root][0]]
                start = _members(self, start, position, np.array([[edge] * decl.arity]))[0]
            free.append(start)
        return np.array(free, dtype=np.intp)


class SubtypeRelation:
    """Constructed subtyping preorder over an enumerated universe.

    `space` is the Universe the relation is over; `labels`, `depth` and
    `include_cofree` are its, and `universe` is its terms, made on first
    read.  `bits` holds the edges as packed rows: bit j of row i (byte
    ``j >> 3``, most significant bit first, as ``np.packbits`` lays it out)
    is set when term i is a subtype of term j.  It is an n x ceil(n/8)
    ``uint8`` array whose padding bits, past column n-1 in the last byte of
    each row, are all zero, so equal relations have equal bytes; the
    constructor raises ValueError on any other dtype, shape or padding.

    A built relation holds its factored form instead (see _stratum), which
    `related` answers from; its rows are made from it once, on the first
    read of `bits`, `edges` or a whole-row scan, or the first one-pair query
    (is_subtype, interval_contains).  Documents read back, stepped and
    doctored relations are given their rows.

    Frozen after construction: the rows are read-only and made under a
    lock, so that threads reading at once get one array, and every query
    is safe to run concurrently.  Equality compares depth, the
    include_cofree flag, the universes and edges, and makes no term: equal
    tables enumerate one universe, else labels decide (each universe holds
    its root's label, and format_interval prints injectively given it).
    Iteration provenance is excluded, since it records how the relation was
    built, not what it is.
    """

    def __init__(self, space: Universe, bits: np.ndarray, iterations: int):
        _check_rows(bits, len(space))
        bits.setflags(write=False)
        self._hold(space, iterations, bits, None)

    @classmethod
    def _factored(cls, space: Universe, restriction: np.ndarray,
                  iterations: int) -> SubtypeRelation:
        """The relation over `space` whose ground rows read containment off
        `restriction` (see _factored_at), with no rows yet."""
        rel = cls.__new__(cls)
        rel._hold(space, iterations, None, restriction)
        return rel

    def _hold(self, space: Universe, iterations: int, packed: np.ndarray | None,
              restriction: np.ndarray | None) -> None:
        # every relation sets the same attributes in one order, and `_packed`
        # is a plain attribute, so that a one-pair query reads it at full speed
        self.space, self.depth = space, space.depth
        self.include_cofree, self.iterations = space.include_cofree, iterations
        self._packed, self._restriction = packed, restriction

    @property
    def bits(self) -> np.ndarray:
        # made under _MAKING, so that threads reading at once get one set of rows
        if self._packed is None:
            with _MAKING:
                if self._packed is None:
                    packed = _rows(self.space, self._restriction)
                    packed.setflags(write=False)
                    self._packed = packed
        return self._packed

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def universe(self) -> tuple[TypeTerm, ...]:
        return self.space.terms

    @property
    def edges(self) -> np.ndarray:
        """The dense n x n boolean matrix, unpacked afresh on each access."""
        edges = _unpack(self.bits, len(self))
        edges.setflags(write=False)
        return edges

    def related(self, rows, cols) -> np.ndarray:
        """``edges[rows, cols]`` under numpy broadcasting, read from the
        packed rows without unpacking them, or from the factored form while
        there are none."""
        if self._packed is None:
            return _factored_at(self.space, self._restriction, rows, cols)
        return _bits_at(self._packed, rows, cols)

    def __len__(self) -> int:
        return len(self.space)

    def __contains__(self, term: TypeTerm) -> bool:
        return term in self.space.index

    def index(self, term: TypeTerm) -> int:
        try:
            return self.space.index[term]
        except KeyError:
            raise TermOutsideUniverse(
                f"term '{format_type(term)}' is outside the depth-{self.depth} "
                "universe (rebuild at a higher depth)") from None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubtypeRelation)
                and self.depth == other.depth
                and self.include_cofree == other.include_cofree
                and (self.space.table == other.space.table or self.labels == other.labels)
                and bool(np.array_equal(self.bits, other.bits)))

    def __repr__(self) -> str:
        # the edge count only where rows exist: making them is no debug print's job
        edges = "" if self._packed is None else f", edges={_edge_count(self._packed)}"
        return (f"SubtypeRelation(depth={self.depth}, terms={len(self)}"
                f"{edges}, iterations={self.iterations})")


class Entries(Sequence):
    """Entries of `rel`'s universe by index: `at` holds k indices, or k
    pairs of them.  Entry k reads as the term (or pair of terms) at `at[k]`,
    made, with the universe's terms, only when read.  Equal to Entries over
    the same universe with equal indices, and to any sequence of its terms."""

    def __init__(self, rel: SubtypeRelation, at):
        self.rel, self.at = rel, np.asarray(at, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Entries(self.rel, self.at[k])
        universe, at = self.rel.universe, self.at[k]
        return universe[at] if at.ndim == 0 else tuple(universe[i] for i in at.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Entries) and other.rel.space is self.rel.space:
            return bool(np.array_equal(self.at, other.at))
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"Entries({list(self)!r})"


def _made(space: Universe, name: str, make: Callable):
    """`space`'s attribute `name`, made by `make` under _MAKING on first use."""
    made = vars(space)
    if name not in made:
        with _MAKING:
            if name not in made:
                made[name] = make(space)
    return made[name]


def _check_rows(bits: np.ndarray, n: int) -> None:
    """Raise ValueError unless `bits` are packed rows of `n` terms."""
    if bits.dtype != np.uint8:
        raise ValueError(f"packed rows must be uint8, not {bits.dtype}")
    if bits.shape != (n, (n + 7) // 8):
        raise ValueError(f"packed rows of {n} terms must have shape "
                         f"{(n, (n + 7) // 8)}, not {bits.shape}")
    if n % 8 and (bits[:, -1] & (0xFF >> n % 8)).any():
        raise ValueError("packed rows have a padding bit set")


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
    """Row and column of every set bit of packed rows, in row-major order:
    the nonzero bytes in one flat pass over a bool mask (numpy lists a bool
    array's nonzeros several times faster than bytes'), then their set bits."""
    at = np.flatnonzero(bits != 0)
    bit = np.flatnonzero(np.unpackbits(bits.ravel()[at]))
    return np.divmod(at[bit >> 3] * 8 + (bit & 7), 8 * bits.shape[1])


def _bands(start: int, stop: int, width: int):
    """Slices of rows start..stop, `width` bytes each: _BAND_BYTES a slice, or one row."""
    band = max(1, _BAND_BYTES // max(1, width))
    return (slice(first, min(first + band, stop)) for first in range(start, stop, band))


def _edge_count(bits: np.ndarray) -> int:
    """The number of set bits of packed rows, counted a band of rows at a
    time so that no temporary of the rows' size is made."""
    return sum(int(_POPCOUNT[bits[rows]].sum(dtype=np.int64))
               for rows in _bands(0, len(bits), bits.shape[1]))


# -- queries ---------------------------------------------------------------


def is_subtype(rel: SubtypeRelation, t1: TypeTerm, t2: TypeTerm) -> bool:
    """Edge lookup; total over the relation's universe."""
    # _bit's read, in this frame: each Python call is a large share of a query
    index = rel.space.index
    try:
        i, j = index[t1], index[t2]
    except KeyError:
        i, j = rel.index(t1), rel.index(t2)  # raises TermOutsideUniverse, naming the term
    bits = rel._packed
    if bits is None:
        bits = rel.bits
    return bits.item(i, j >> 3) & (0x80 >> (j & 7)) != 0


def _bit(rel: SubtypeRelation, i: int, j: int) -> bool:
    """One bit of the rows, made on first use: a numpy call per pair, as a
    read of the factored form takes, would cost far more."""
    bits = rel.bits if rel._packed is None else rel._packed
    return bits.item(i, j >> 3) & (0x80 >> (j & 7)) != 0


Decider = Callable[[TypeTerm, TypeTerm], bool]


def decider(table: ClassTable, depth: int) -> Decider:
    """Decide ``t1 <: t2`` in the depth-`depth` relation as the build would,
    without building it; a term nested deeper raises TermOutsideUniverse.

    A co-free atom lies below every non-bottom term whose class its class
    subclasses, at every depth, the one rule the build and the reference
    step state too (and nothing else but bottom and co-free atoms lies
    below it).  A ground term lies below another when the member of its
    superclass chain with the other's class fits the depth bound and has
    intervals inside the other's; the endpoints are compared by the same
    recursion.  A pair met again while still being decided is answered
    False, as in the oracle.
    """
    memo: dict[tuple[TypeTerm, TypeTerm], bool] = {}

    def sub(t1: TypeTerm, t2: TypeTerm) -> bool:
        if t1 == t2 or t1 == BOTTOM:
            return True
        if t2 == BOTTOM:
            return False
        if isinstance(t1, Cofree):
            return subclass_of(table, t1.cls, t2.cls)
        if isinstance(t2, Cofree) or not subclass_of(table, t1.cls, t2.cls):
            return False
        key = (t1, t2)
        known = memo.get(key)
        if known is None:
            memo[key] = False
            u = t1
            while u is not None and u.cls != t2.cls:
                u = super_instantiation(table, u)
            known = memo[key] = (
                u is not None and nesting_depth(u) <= depth
                and all(sub(b.lo, a.lo) and sub(a.hi, b.hi)
                        for a, b in zip(u.args, t2.args)))
        return known

    def decide(t1: TypeTerm, t2: TypeTerm) -> bool:
        for term in (t1, t2):
            if nesting_depth(term) > depth:
                raise TermOutsideUniverse(
                    f"term '{format_type(term)}' is outside the depth-{depth} "
                    "universe (rebuild at a higher depth)")
        return sub(t1, t2)

    return decide


def chains_stay_in_universe(table: ClassTable, depth: int) -> bool:
    """Whether the depth-`depth` rows answer every depth-(depth+1) question
    about their own terms, by a sufficient condition on the table: each
    superclass argument is a parameter at a direct position or a closed type
    nested less than `depth` deep.

    Then a super-instantiation takes each argument from the term's own
    intervals or is a point on a closed type of U_{depth-1}, so every member
    of the superclass chain of a term of U_depth lies in U_depth, as do the
    endpoints of its intervals.  The decider's recursion from a pair of
    U_depth terms stays in U_depth and never meets the depth bound, so the
    relation at any depth above, restricted to U_depth, is the one at
    `depth`.  A nested argument (``B<C<T>>``) or a deeper closed type pushes
    chain members past the bound, which expansive inheritance makes
    unavoidable (Kennedy & Pierce, FOOL 2007); such tables go to decider.
    """
    for decl in table.decls.values():
        params = {p.name for p in decl.params}
        for arg in decl.superclass.args if decl.superclass else ():
            if arg.name in params and not arg.args:
                continue
            if any(name in params for name in arg.mentioned_names()) or _nesting(arg) >= depth:
                return False
    return True


def _nesting(use: TypeUse) -> int:
    """The nesting depth of the term that term_from_typeuse makes of the
    closed type `use`, found without making it."""
    return 1 + max(map(_nesting, use.args)) if use.args else 0


def universe_faults(table: ClassTable, term: TypeTerm, depth: int,
                    include_cofree: bool) -> list[Cofree | Interval]:
    """Why `term`, nested at most `depth` deep, lies outside the depth-`depth`
    universe, in pre-order: each co-free atom if they are excluded, and each
    interval whose endpoints lie in the universe one level down but are not
    ordered there, by the decider at that depth.  Empty exactly when the
    term is in the universe."""
    at = cache(lambda d: decider(table, d))

    def walk(t: TypeTerm, d: int):
        if isinstance(t, Cofree) and not include_cofree:
            yield t
        for iv in t.args if isinstance(t, Ground) else ():
            inner = [*walk(iv.lo, d - 1), *([] if iv.is_point else walk(iv.hi, d - 1))]
            if not inner and not at(d - 1)(iv.lo, iv.hi):
                yield iv
            yield from inner

    return list(walk(term, depth))


def instantiated(space: Universe, use: TypeUse, env: dict[str, np.ndarray]):
    """Indices into `space` of the type `use` with each parameter replaced
    by its `env` array of endpoint indices, as term_from_typeuse
    instantiates it: a parameter is its array, a plain class its run's
    start, and a compound type the member of its class on the point
    intervals of its arguments (see member_at), one where every argument is
    closed; -1 where the term lies outside the universe."""
    if use.name in env:
        return env[use.name]
    if not use.args:
        return space.runs[use.name][0]
    args = np.stack(np.broadcast_arrays(
        *(np.atleast_1d(instantiated(space, a, env)) for a in use.args)), axis=1)
    return member_at(space, use.name, np.stack([args, args], axis=-1))


def member_at(space: Universe, cls: str, ends: np.ndarray) -> np.ndarray:
    """For each row of endpoint indices in `ends` (k x arity x 2, laid out
    as in Universe.ends), the index into `space` of the member of `cls` with
    those endpoints, or -1 where the universe holds none.

    A generic block is the product of the edges below (see _stage), so a
    member is found by its product number (see _members); an endpoint
    outside the stratum below, or a pair that is no edge there, misses."""
    run = space.runs.get(cls)
    if run is None:
        return np.full(len(ends), -1)
    start, _stop, _ends, position = run
    if position is None:  # a plain class: its one term
        return np.full(len(ends), start)
    return _members(space, start, position, space._to_below[ends])


def _members(space: Universe, start: int, position: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """member_at on endpoint indices into the stratum below (len(below) for
    a term not there), of the block at `start` whose products are at
    `position`: the pairs' edge numbers, read mixed-radix, number a product."""
    keys, m = space._keys, len(space._below) + 1
    asked = ends[..., 0] * m + ends[..., 1]
    edge = keys.searchsorted(asked)
    hit = (keys.take(edge, mode="clip") == asked).all(axis=1)
    number = np.ravel_multi_index(edge.T, (len(keys),) * edge.shape[1], mode="clip")
    return np.where(hit, start + position[number], -1)


def interval_contains(rel: SubtypeRelation, inner: Interval, outer: Interval) -> bool:
    """[L1..U1] is contained in [L2..U2] iff L2 <: L1 and U1 <: U2."""
    idx = []
    for endpoint in (outer.lo, inner.lo, inner.hi, outer.hi):
        try:
            idx.append(rel.index(endpoint))
        except TermOutsideUniverse:
            raise EndpointOutsideUniverse(
                f"endpoint '{format_type(endpoint)}' is outside the universe") from None
    return _bit(rel, idx[0], idx[1]) and _bit(rel, idx[2], idx[3])


def mutual_pairs(rel: SubtypeRelation) -> Entries:
    """Distinct term pairs related in both directions, as index pairs
    (i, j), i < j, in row-major order; the antisymmetry diagnostic,
    expected empty on well-behaved tables."""
    found = []
    # 256 rows at a time, from the band's diagonal byte on, bound the edge lists
    # held at once.  Bands of _BAND_BYTES were 14 rows at sample@3 (1.65 s, not
    # 1.5 s) and 1,036 at sample@2, whose traced peak rose from 1.61 to 1.97 MB
    for start in range(0, len(rel), 256):
        sub, sup = _set_bits(rel.bits[start:start + 256, start >> 3:])
        sub, sup = sub + start, sup + start
        ahead = sub < sup
        sub, sup = sub[ahead], sup[ahead]
        mutual = rel.related(sup, sub)
        found += zip(sub[mutual].tolist(), sup[mutual].tolist())
    return Entries(rel, np.array(found, dtype=np.intp).reshape(-1, 2))


# -- universe enumeration ----------------------------------------------------


def enumerate_universe(table: ClassTable, depth: int) -> tuple[TypeTerm, ...]:
    """All admittable terms of nesting depth <= depth, in canonical order
    (lexicographic on printed form).

    Interval arguments admit only endpoint-ordered pairs, judged under the
    relation built at the previous depth; declared parameter bounds are
    ignored (admittability, not validity).
    """
    return _universe(table, depth, True, _ROW_BUDGET).terms


def _universe(table: ClassTable, depth: int, include_cofree: bool, budget: int) -> Universe:
    """The depth-`depth` universe: each stratum below is built, and the top
    one only staged, so it gets its runs but no rows.  A table with no
    generic class has the depth-0 terms at every depth, so its one stratum
    is staged once, at `depth`.  Each stratum's packed rows are checked
    against `budget` bytes before it is staged."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    first = 0 if any(decl.is_generic for decl in table.decls.values()) else depth
    below = None
    for d in range(first, depth):
        below = _stratum(_stage(table, below, d, include_cofree, budget))
    return _stage(table, below, depth, include_cofree, budget)


def _stage(table: ClassTable, below: SubtypeRelation | None, depth: int,
           include_cofree: bool, budget: int) -> Universe:
    """The universe at `depth`: the depth-0 terms plus, per generic class,
    every product of the intervals (edges ``lo <: hi``) of the stratum
    `below` (None at depth 0).  Edges only grow from one stratum to the
    next, so the products re-generate every instantiation below and the
    universe's size is known, and its packed rows checked against `budget`
    bytes, before any label is printed.

    Each class with ground terms is one run of the label order, recorded as
    ``(start, stop, ends, position)``: a plain class's one term, with `ends`
    and `position` None, or a generic class's block, with its terms'
    endpoint indices below and each product's position in the run, products
    numbered in itertools.product order over the edges listed row-major
    (`intervals`).  No argument label continues another with ``,`` or
    ``>``, so a tail ``a_1, ..., a_k>`` sorts as the tuple of the ``a_p +
    ','``, the last ``a_k + '>'``: in label order a block is the product of
    its positions' edges, each sorted so, by integer keys (_orders): the
    interval's first character (``?``, ``[`` for ``[L..U]``, or a point's
    own, so a point in lower case sorts after ``[``); the wildcard form
    (``? extends U``, ``? super L``, ``?``, as a space sorts before ``,``
    and ``>``); then the rank below of the deciding label with what follows
    it: the end after a point or a wildcard bound, ``..`` after L, then
    ``]`` after U.  ``,`` and ``.`` sort below every character that
    continues a label (``<``, digits, letters, ``_``), so their ranks are
    the indices below; ``>`` and ``]`` take one sort of the labels below
    each.  Merging the classes, whose labels all begin ``C<``, and the
    depth-0 terms by leading label, the one tail printed per arity, gives
    the label order.  This is the index part of the stratum as a partial
    product over the one below.  Without the co-free axioms the atoms are
    dropped too, so the model is directly comparable with the full one on
    its Ground fragment.
    """
    decls = table.decls.values()
    cofree = [Cofree(d.name) for d in decls if d.is_generic and include_cofree]
    # (leading label, bottom, an atom or a class, endpoint indices, product positions)
    units = [(format_type(t), t, None, None) for t in (BOTTOM, *cofree)]
    units += [(d.name, d, None, None) for d in decls if not d.is_generic]
    generics = [] if below is None else [d for d in decls if d.is_generic]
    m = _edge_count(below.bits) if generics else 0
    n = len(units) + sum(m ** decl.arity for decl in generics)
    if (need := n * ((n + 7) // 8)) > budget:
        raise UniverseCapExceeded(
            f"universe at depth {depth} has {n} terms, whose packed rows need "
            f"{need} bytes, over the budget of {budget} bytes")
    if generics:
        pairs = np.stack(_set_bits(below.bits), axis=1)
        under = below.labels
        ordered = _orders(below.space, pairs, ",>" if any(d.arity > 1 for d in generics) else ">")
    blocks = {}  # per arity, shared by its classes: leading tail, endpoints, positions
    for decl in generics:
        if (a := decl.arity) not in blocks:
            # a product's position is its edges' ranks read mixed-radix
            orders = np.array([ordered[end] for end in "," * (a - 1) + ">"])
            axes, digits = np.arange(a)[:, None], np.indices((m,) * a).reshape(a, -1)
            blocks[a] = (", ".join(format_interval(under[i], under[j], table.root)
                                   for i, j in pairs[orders[:, 0]].tolist()) + ">",
                         pairs[orders[axes, digits].T],
                         np.ravel_multi_index(orders.argsort(axis=1)[axes, digits], (m,) * a))
        tail, ends, position = blocks[a]
        units.append((f"{decl.name}<{tail}", decl, ends, position))
    units.sort(key=lambda unit: unit[0])
    runs, at, start = {}, {}, 0
    for _label, made, ends, position in units:
        stop = start + (1 if ends is None else len(ends))
        if isinstance(made, ClassDecl):
            runs[made.name] = (start, stop, ends, position)
        else:
            at[made] = start
        start = stop
    return Universe(table, depth, include_cofree, n, runs, at[BOTTOM],
                    {t.cls: at[t] for t in cofree}, None if below is None else below.space,
                    pairs if generics else None)


def _orders(below: Universe, pairs: np.ndarray, ends: str) -> dict[str, np.ndarray]:
    """For each of `ends`, the edges `pairs` of the stratum `below` (its
    endpoint indices) in the order of their printed intervals with that end
    appended, by the integer keys of _stage, printing none."""
    under, bottom, root = below.labels, below.bottom, below.runs[below.table.root][0]
    lo, hi = pairs.T
    point, sink, top = lo == hi, lo == bottom, hi == root
    closed = ~(point | sink | top)
    # the printed form's lead: `? extends U`, `? super L`, `?`, a point
    # before `[`, `[L..U]`, a point after
    lead = np.where(point, 3 + 2 * (lo >= bisect_left(under, "[")),
                    np.where(closed, 4, 2 * top - ~sink))
    deciding = np.where(sink, hi, lo)

    def ranked(end):  # each label's rank among them all with `end` appended
        return np.argsort(sorted(range(len(under)), key=[s + end for s in under].__getitem__))

    # `[L..U]` is decided by L's rank with `..`, then U's with `]`
    tight = [np.where(closed, ranked("]")[hi], 0)] if closed.any() else []
    rank = {",": deciding, ">": np.where(closed, deciding, ranked(">")[deciding])}
    return {end: np.lexsort([*tight, rank[end], lead]) for end in ends}


def _labels(space: Universe) -> tuple[str, ...]:
    """A stratum's labels in order, a generic run's its class's name before
    the tails of its block: the product of its positions' argument labels,
    each position's listed in the run's order (see _stage), once per shape."""
    pieces = {space.bottom: [format_type(BOTTOM)]}
    pieces.update((i, [format_type(Cofree(cls))]) for cls, i in space.atoms.items())
    tails = {}
    for cls, (start, _stop, ends, _position) in space.runs.items():
        if ends is not None and id(ends) not in tails:
            m, arity, under = len(space.intervals), ends.shape[1], space._below.labels
            columns = [[format_interval(under[lo], under[hi], space.table.root)
                        for lo, hi in ends[::m ** (arity - 1 - p)][:m, p].tolist()]
                       for p in range(arity)]
            tails[id(ends)] = [", ".join(args) + ">" for args in itertools.product(*columns)]
        pieces[start] = [cls] if ends is None else map(f"{cls}<".__add__, tails[id(ends)])
    return tuple(itertools.chain.from_iterable(pieces[i] for i in sorted(pieces)))


def _terms(space: Universe) -> tuple[TypeTerm, ...]:
    """A stratum's terms in label order, made through the table's pool after
    the stratum below's, so a re-generated instantiation is its very object:
    bottom, each co-free atom and each plain class at its index, and each
    generic class's block, the product of the `intervals` of the stratum
    below, each product at its position in the run.  Each label goes into
    the parse cache with its term."""
    table, intern = space.table, space.table.intern
    universe = [None] * len(space)
    universe[space.bottom] = BOTTOM
    for cls, i in space.atoms.items():
        universe[i] = intern(Cofree(cls))
    if space.intervals is not None:
        under = space._below.terms
        intervals = [intern(Interval(under[i], under[j])) for i, j in space.intervals.tolist()]
    for cls, (start, stop, ends, position) in space.runs.items():
        if position is None:
            universe[start] = intern(Ground(cls))
            continue
        block = [intern(Ground(cls, args))
                 for args in itertools.product(intervals, repeat=ends.shape[1])]
        universe[start:stop] = map(block.__getitem__, np.argsort(position).tolist())
    table._parsed.update(zip(space.labels, universe))
    return tuple(universe)


# -- construction ------------------------------------------------------------


def initial_relation(table: ClassTable, depth: int,
                     include_cofree: bool = True) -> SubtypeRelation:
    """The reflexive relation over the enumerated universe; the starting
    point for construction_step."""
    space = _universe(table, depth, include_cofree, _ROW_BUDGET)
    return SubtypeRelation(space, np.packbits(np.eye(len(space), dtype=bool), axis=1), 0)


def construction_step(table: ClassTable, rel: SubtypeRelation) -> SubtypeRelation:
    """One composable pass of rules (a)-(d).  Never removes edges; applying
    the step to a fixpoint returns an equal relation."""
    space = rel.space
    static = _static_edges(table, rel.universe, space.index)
    groups = [(slice(*space.runs[cls][:2]), ends[..., 0], ends[..., 1])
              for cls, ends in space.ends.items()]
    new = np.packbits(_apply_step(rel.edges, static, groups, space.index[BOTTOM]), axis=1)
    return SubtypeRelation(rel.space, new, rel.iterations + 1)


def build_relation(table: ClassTable, depth: int,
                   include_cofree: bool = True) -> SubtypeRelation:
    """Enumerate the universe at `depth` and build the fixpoint of
    construction_step over it, in one loop over the strata: each pass builds
    stratum d directly from stratum d-1, after checking the row budget
    against the exact size of stratum d.  A table with no generic class has
    the depth-0 terms at every depth, so its one stratum is built once.
    `iterations` is the number of construction_step passes that stepping
    from initial_relation takes to reach the same relation, confirming pass
    included: 2 plus the deepest nesting in the universe.

    The build makes no label, term or packed row of the top stratum: each
    is made on first read (see _labels, _terms, SubtypeRelation), and the
    terms put each label in the table's parse cache, so parse_type of a
    label then lexes nothing.
    """
    return _stratum(_universe(table, depth, include_cofree, _ROW_BUDGET))


def _stratum(space: Universe) -> SubtypeRelation:
    """The fixpoint of construction_step over `space`, in factored form: the
    relation over the stratum below (none at depth 0), lifted, read densely
    (with a generic class it holds under a third of this stratum's terms,
    and without one only the depth-0 terms), plus the stratum's layout (see
    _factored_at, and _rows for the rows made from it on first use).

    The new stratum may relate old terms that the relation below did not,
    for one cause: a term reaches its superclass-chain members only where
    they exist, so a chain member first enumerated here (from a superclass
    argument that nests a parameter, or a closed type deeper than the
    stratum below) can add edges between old terms.  While the new
    relation restricted to the old terms, read through the factored form,
    differs from the relation used for containment, containment is read
    off that restriction instead (semi-naive evaluation, on m x m bits for
    the m old terms); in practice this takes at most one extra pass.  Where
    chains stay in the stratum below (chains_stay_in_universe), no chain
    member is new here, the stratum below is this one's restriction, and
    nothing is lifted.  `iterations` is as build_relation states it.
    """
    below = space._below
    m = 0 if below is None else len(below)
    # one more row and column for the sentinel argument (see Universe.arguments),
    # which fits inside itself only
    restriction = np.zeros((m + 1, m + 1), dtype=bool)
    restriction[m, m] = True
    if below is not None:
        restriction[tuple(space.intervals.T)] = True  # the edges below, as _stage listed them
        # the depth-0 stratum holds no ground term of a generic class, so no
        # chain member new at depth 1 can relate two of its terms
        if below.depth and not chains_stay_in_universe(space.table, below.depth):
            old = space._from_below
            while not np.array_equal(lifted := _factored_at(space, restriction, old[:, None], old),
                                     restriction[:m, :m]):
                restriction[:m, :m] = lifted
    # with a generic class, some instantiation is nested `depth` deep
    nesting = space.depth if any(decl.is_generic for decl in space.table.decls.values()) else 0
    return SubtypeRelation._factored(space, restriction, 2 + nesting)


def _factored_at(space: Universe, restriction: np.ndarray, rows, cols) -> np.ndarray:
    """``edges[rows, cols]`` under numpy broadcasting, for the relation over
    `space` whose containment is read off `restriction`, the relation over
    the stratum below with a sentinel row and column (see _stratum), with
    no rows: a band of pairs at a time, so that no temporary grows with
    the number of pairs asked, and every pair of two lists as a grid (see
    _factored_grid).

    Every bit follows one rule, which _rows writes whole rows by too.  Bit
    (i, j) of ground terms is read at i's chain member u of j's class
    (Universe.reach): u's containment of j, two bits of `restriction` per
    argument position, or 0 where there is no such member (and where j is
    an atom, whose arguments no ground one fits); so a ground row of class
    c sets bits only in the runs of c's ancestors.  This is the stratum as
    a partial product over the one below, read as a point query
    (AbdelGawad, "Java Subtyping as an Infinite Self-Similar Partial Graph
    Product", arXiv:1805.06893).  Bottom's row and an atom's follow the
    class matrix (Universe.classwise)."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.ndim == 2 and rows.shape[1] == 1 and cols.ndim == 1:
        out = np.empty((len(rows), len(cols)), dtype=bool)
        # 16 times the pairs of a band of pairs, as a grid's temporaries are bytes
        for band in _bands(0, len(rows), len(cols) // 16):
            out[band] = _factored_grid(space, restriction, rows[band, 0], cols)
        return out
    rows, cols = np.broadcast_arrays(rows, cols)
    if rows.ndim == 0:
        return _factored_pairs(space, restriction, rows, cols)
    out = np.empty(rows.shape, dtype=bool)
    for band in _bands(0, len(rows), rows.size // max(1, len(rows))):
        out[band] = _factored_pairs(space, restriction, rows[band], cols[band])
    return out


def _factored_pairs(space: Universe, restriction: np.ndarray, rows, cols) -> np.ndarray:
    """_factored_at of the pairs of `rows` and `cols`, of one shape."""
    theirs = space.classes[cols]
    member = space.reach[rows, theirs]
    (lo_u, hi_u), (lo_j, hi_j) = (np.moveaxis(space.arguments[k], -1, 0) for k in (member, cols))
    fits = (restriction[lo_j, lo_u] & restriction[hi_u, hi_j]).all(axis=-1)
    return np.where(space.ground[rows], fits & (member >= 0),
                    space.classwise[space.classes[rows], theirs])


def _factored_grid(space: Universe, restriction: np.ndarray, rows, cols) -> np.ndarray:
    """_factored_at of every pair of a row of `rows` and a column of `cols`,
    laid out column by column while it is made: per class of the ground
    columns, each row's member of it is found once (none for bottom and an
    atom), and each argument position reads two blocks of `restriction`,
    each gathered on its smaller side first."""
    theirs, targets, ground = space.classes[cols], space.ground[cols], space.ground[rows]
    out = space.classwise.T.take(theirs, axis=0).take(space.classes[rows], axis=1)
    out &= ~ground
    for c in np.flatnonzero(np.bincount(theirs[targets])):  # np.unique imports numpy.ma
        at = np.flatnonzero(targets & (theirs == c))
        member = space.reach[rows, c]
        fits = np.repeat((member >= 0)[None], len(at), axis=0)
        first = len(at) <= len(rows)
        for (lo_u, hi_u), (lo_j, hi_j) in zip(space.arguments[member].transpose(1, 2, 0),
                                              space.arguments[cols[at]].transpose(1, 2, 0)):
            # lo_j <: lo_u and hi_u <: hi_j, as blocks over (column, row); the hi
            # block is a view of its transpose, as take would copy a view whole
            fits &= (restriction.take(lo_j, axis=0).take(lo_u, axis=1) if first
                     else restriction.take(lo_u, axis=1).take(lo_j, axis=0))
            fits &= (restriction.take(hi_j, axis=1).take(hi_u, axis=0) if first
                     else restriction.take(hi_u, axis=0).take(hi_j, axis=1)).T
        out[at] |= fits
    return out.T


def _rows(space: Universe, restriction: np.ndarray) -> np.ndarray:
    """The packed rows of the relation over `space` whose containment is
    read off `restriction` (see _stratum), by _factored_at's rule, one run
    at a time: every ground row i with a chain member u of the run's class
    (Universe.reach, i itself in its own run) gets u's containment row
    over the run.  A plain class's is its one bit; a generic block's is the
    AND over argument positions of two packed tables (see _containment)
    at u's endpoints, built once per block shape (the classes of one arity
    share one `ends`) and shifted to the run's bit offset, so that the run
    is a plain slice of bytes.  No row reads another.  Bottom's row and
    each atom's follow the class matrix (Universe.classwise).
    """
    table, n = space.table, len(space)
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    tables = {}  # per block shape
    for a, (start, stop, ends, _position) in space.runs.items():
        member = space.reach[:, table.class_names.index(a)]
        first, offset = start >> 3, start & 7
        if ends is None:
            packed[member >= 0, first] |= 0x80 >> offset
            continue
        if id(ends) not in tables:
            tables[id(ends)] = _containment(ends, restriction[:-1, :-1])
        width = (offset + stop - start + 7) >> 3
        shifted = [_shifted(fits, offset, width) for fits in tables[id(ends)]]
        # the rows that reach a member, by stretches of consecutive ones, so
        # that each band is a slice of the rows
        reached = np.concatenate(([False], member >= 0, [False]))
        for begin, end in np.flatnonzero(reached[1:] != reached[:-1]).reshape(-1, 2).tolist():
            # the members' endpoints, in the tables' order: each position's lo, then hi
            picks = ends[member[begin:end] - start].reshape(end - begin, -1).T
            for band in _bands(0, end - begin, width):
                cont = shifted[0][picks[0, band]]
                for fits, chosen in zip(shifted[1:], picks[1:, band]):
                    cont &= fits[chosen]
                packed[begin + band.start:begin + band.stop, first:first + width] |= cont
    classes = space.classes
    for i in [space.bottom, *space.atoms.values()]:
        packed[i] = np.packbits(space.classwise[classes[i], classes])
    return packed


def _containment(ends: np.ndarray, below: np.ndarray) -> list[np.ndarray]:
    """The packed tables of the block shape `ends` over the relation
    `below`, each position's lo table, then its hi one: instantiation i
    lies below j when every argument of i fits inside that of j, i.e.
    ``below[lo_j, lo_i] and below[hi_i, hi_j]`` at each position.

    Each table holds one packed row over the block per term e below: bit j
    of ``fits_lo[e]`` is ``below[lo_j, e]`` and bit j of ``fits_hi[e]`` is
    ``below[e, hi_j]``.  Row i of the block is then the AND over the
    positions of ``fits_lo[lo_i] & fits_hi[hi_i]``.
    """
    m = len(below)
    # below and below.T, rows padded to 64-bit words
    matrices = np.zeros((2, m, (m + 7) // 8 * 8), dtype=np.uint8)
    matrices[0, :, :m], matrices[1, :, :m] = below, below.T
    return [_packed_columns(matrices[side], ends[:, p, side])
            for p in range(ends.shape[1]) for side in (0, 1)]


def _packed_columns(matrix: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Packed rows over `picks`, one per column e of the square 0/1 byte
    `matrix`, whose rows are padded to whole 64-bit words: bit j of row e is
    ``matrix[picks[j], e]``.  The picked rows are gathered contiguously, and
    each group of eight is shifted into the bits of one byte, a word at a
    time (a 0/1 byte shifted at most 7 places stays in its byte), which
    packs them along the gathered axis without a strided pass.
    """
    k, nbytes = len(picks), (len(picks) + 7) // 8
    gathered = np.zeros((nbytes * 8, matrix.shape[1] // 8), dtype=np.uint64)
    np.take(matrix.view(np.uint64), picks, axis=0, out=gathered[:k], mode="clip")
    lanes = gathered.reshape(nbytes, 8, -1)
    out = lanes[:, 0] << 7
    for bit in range(1, 8):
        out |= lanes[:, bit] << (7 - bit)
    return np.ascontiguousarray(out.view(np.uint8)[:, :len(matrix)].T)


def _shifted(rows: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Packed `rows` with every bit `offset` places on, over `width` bytes."""
    if not offset:
        return rows
    out = np.zeros((len(rows), width), dtype=np.uint8)
    out[:, :rows.shape[1]] = rows >> offset
    out[:, 1:] |= rows[:, :width - 1] << (8 - offset)
    return out


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


def _apply_step(edges: np.ndarray, static, groups, bottom: int) -> np.ndarray:
    new = edges.copy()
    for rows, los, his in groups:
        k, arity = los.shape
        cont = np.ones((k, k), dtype=bool)
        for p in range(arity):
            lo = los[:, p]
            hi = his[:, p]
            # cont[i, j]: argument p of instantiation i fits inside that of j
            cont &= edges[np.ix_(lo, lo)].T & edges[np.ix_(hi, hi)]
        new[rows, rows] |= cont
    srows, scols = static
    if srows.size:
        new[srows, scols] = True
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
    """Serialize as ``json.dumps(doc, indent=2, sort_keys=True)`` of the
    document {depth, edges, include_cofree, universe}; deterministic.

    `universe` lists the term labels in the canonical universe order, and
    `edges` is one base64 string of the packed rows' bytes in that order:
    n x ceil(n/8) bytes, bit j of row i at byte ``j >> 3`` of the row, most
    significant bit first, padding bits zero.
    """
    # written directly: json.dumps with an indent runs the pure-Python
    # encoder, which also copies the base64 text (whose alphabet needs no
    # escape) while escaping it; the universe is never empty, as it holds root
    edges = base64.b64encode(np.ascontiguousarray(rel.bits)).decode("ascii")
    universe = ",\n    ".join(map(encode_basestring_ascii, rel.labels))
    return (f'{{\n  "depth": {rel.depth},\n  "edges": "{edges}",\n'
            f'  "include_cofree": {json.dumps(rel.include_cofree)},\n'
            f'  "universe": [\n    {universe}\n  ]\n}}\n')


def relation_from_json(table: ClassTable, text: str) -> SubtypeRelation:
    """Rebuild a relation exported by export_json over the universe that its
    depth and include_cofree name for `table`; a document without
    include_cofree gets the build_relation default, and a `cap` key (written
    by older versions) is ignored.

    The universe is enumerated as the build enumerates it (the strata below
    are built, the top one only staged), and the document must list exactly
    its labels, so no label is parsed, and the relation shares the layout
    and terms of an enumeration.  Each stratum must fit in the document's
    own rows, so a forged depth fails before a stratum larger than the
    document is staged.  InvalidRelationDocument is raised for a document
    that is not an object with depth, universe and edges, a malformed value,
    edges that are not packed rows of the listed entries in base64 with
    padding bits zero (older documents list index pairs: ``build --export
    json`` writes them again), or a universe that is not the enumeration; it
    names the first entry that differs, or the count."""
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
    if not isinstance(doc["edges"], str):
        raise InvalidRelationDocument(
            "edges must be packed rows in one base64 string; a document that lists "
            "index pairs must be exported again")
    try:
        packed = base64.b64decode(doc["edges"], validate=True)
    except ValueError:  # a character outside the alphabet, or wrong padding
        raise InvalidRelationDocument("edges is not valid base64") from None
    n, width = len(labels), (len(labels) + 7) // 8
    if len(packed) != n * width:
        raise InvalidRelationDocument(
            f"edges holds {len(packed)} bytes, not the {n * width} of {n} packed rows")
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
    try:
        _check_rows(bits, n)
    except ValueError as e:  # the shape is right, so a padding bit is set
        raise InvalidRelationDocument(f"edges: {e}") from None
    try:
        space = _universe(table, depth, include_cofree, min(len(packed), _ROW_BUDGET))
    except UniverseCapExceeded as e:
        raise InvalidRelationDocument(
            f"universe lists {n} entries, too few for depth {depth}: {e}") from None
    if space.labels != tuple(labels):
        named = f"the depth-{depth} universe{'' if include_cofree else ' without co-free atoms'}"
        k = next((k for k, (a, b) in enumerate(zip(labels, space.labels)) if a != b), None)
        raise InvalidRelationDocument(
            f"universe lists {n} entries, not the {len(space)} of {named}" if k is None else
            f"universe entry {k} '{labels[k]}' is not '{space.labels[k]}', entry {k} of {named}")
    return SubtypeRelation(space, bits, 0)


def export_dot(rel: SubtypeRelation) -> str:
    """Hasse diagram (transitive reduction) in DOT form, edges pointing from
    subtype to supertype; deterministic."""
    n = len(rel)
    strict = rel.bits.copy()
    diagonal = np.arange(n)
    strict[diagonal, diagonal >> 3] &= ~(0x80 >> (diagonal & 7)).astype(np.uint8)
    lines = ["digraph subtyping {", "  rankdir=BT;", *(f'  "{label}";' for label in rel.labels)]
    for i in range(n):
        # an edge is kept unless it is also a path of two strict edges
        row = strict[i]
        successors = np.flatnonzero(np.unpackbits(row, count=n))
        hasse = row & ~np.bitwise_or.reduce(strict[successors], axis=0)
        for j in np.flatnonzero(np.unpackbits(hasse, count=n)):
            lines.append(f'  "{rel.labels[i]}" -> "{rel.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
