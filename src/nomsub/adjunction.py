"""Erasure and free-type construction as an adjoint pair of monotone maps.

Erasure sends a term to its class; the free type sends a class to its most
general wildcard instantiation.  Over a constructed relation the pair must
satisfy, for every term t and class c,

    erase(t) subclasses c  <=>  t <: free_type(c)

which is verified here exhaustively, together with the unit law
``t <: free_type(erase(t))``, the counit law ``erase(free_type(c)) = c``,
monotonicity of both maps, and the fixed points of the induced closure
operator (the closed types).

The checks read the relation by universe index, so no term is hashed per
pair, and they build no n x n temporary.  They answer in indices too: a
violation holds its term's index, and the erasure witnesses are index pairs
(relation.Entries), so neither check_galois nor check_monotonicity makes a
term of the universe or a label; a caller that reads one as a term gets it
made then.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import relation
from .class_table import ClassTable
from .errors import FreeTypeOutsideUniverse
from .fixpoints import check_validity
from .relation import Entries, SubtypeRelation, _bands, is_subtype
from .terms import TypeTerm, erase, free_type

LEFT_TO_RIGHT = "left-to-right"   # erasure side holds, subtype side fails
RIGHT_TO_LEFT = "right-to-left"   # subtype side holds, erasure side fails


@dataclass(frozen=True)
class GaloisViolation:
    """A (term, class) pair whose two sides disagree; the term is entry `at`
    of `rel`, made (with its universe) only when `term` is read."""

    rel: SubtypeRelation = field(repr=False, compare=False)
    at: int
    cls: str
    direction: str

    @property
    def term(self) -> TypeTerm:
        return self.rel.universe[self.at]


@dataclass
class AdjunctionReport:
    """Outcome of the exhaustive (term, class) grid evaluation.

    Bottom has no erasure and is skipped (counted).  Mismatches whose term
    is a co-free atom are isolated under `cofree_violations`: co-free types
    are a model extension, so they flag rather than fail the check.
    """

    checked_pairs: int = 0
    violations: list[GaloisViolation] = field(default_factory=list)
    cofree_violations: list[GaloisViolation] = field(default_factory=list)
    bottom_skipped: int = 0
    quantified_over: str = "admittable"

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def fully_ok(self) -> bool:
        return not self.violations and not self.cofree_violations


def check_galois(table: ClassTable, rel: SubtypeRelation,
                 quantify: str = "admittable") -> AdjunctionReport:
    """Evaluate both sides of the adjunction condition over the whole
    (term, class) grid and record every mismatch with its direction.

    `quantify="valid"` narrows the term domain to the instantiations that
    are valid under the inductively computed validity assignment.
    """
    if quantify not in ("admittable", "valid"):
        raise ValueError("quantify must be 'admittable' or 'valid'")
    free = _free_columns(table, rel)
    classes = rel.space.classes
    domain = classes >= 0
    if quantify == "valid":  # bottom and the atoms are never checked, so stay
        valid = ~rel.space.ground
        valid[check_validity(table, rel)[0].valid_entries.at] = True
        domain &= valid
    rows = np.flatnonzero(domain)

    report = AdjunctionReport(checked_pairs=rows.size * len(free),
                              bottom_skipped=int((classes < 0).sum()),
                              quantified_over=quantify)
    erasure_side = rel.space.classwise[classes[rows], :-1]
    subtype_side = rel.related(rows[:, None], free)
    names = table.class_names
    atoms = set(rel.space.atoms.values())
    for r, k in np.argwhere(erasure_side != subtype_side):
        i = int(rows[r])
        sink = report.cofree_violations if i in atoms else report.violations
        direction = LEFT_TO_RIGHT if erasure_side[r, k] else RIGHT_TO_LEFT
        sink.append(GaloisViolation(rel, i, names[k], direction))
    return report


def closure_type(table: ClassTable, rel: SubtypeRelation,
                 term: TypeTerm) -> tuple[TypeTerm, bool]:
    """Apply the closure operator free_type(erase(t)) and report whether the
    unit law t <: free_type(erase(t)) holds (expected everywhere); bottom
    has no erasure and raises BottomHasNoErasure."""
    closed = free_type(table, erase(term))
    return closed, is_subtype(rel, term, closed)


def closure_class(table: ClassTable, cls: str) -> tuple[str, bool]:
    """Apply erase(free_type(c)) and report equality with c (the counit law,
    an exact equality for every class)."""
    result = erase(free_type(table, cls))
    return result, result == cls


def closed_types(rel: SubtypeRelation, table: ClassTable) -> frozenset[TypeTerm]:
    """Syntactic fixed points of the closure operator; exactly the free
    types (which for non-generic classes are the classes' sole types) that
    lie in the universe, found as _free_columns finds them."""
    free = _free_columns(table, rel, needed=())
    return frozenset(free_type(table, c) for c, i in zip(table.class_names, free) if i >= 0)


@dataclass
class MonotonicityReport:
    erasure_witnesses: Entries  # index pairs (t1, t2), made terms when read
    free_type_witnesses: list[tuple[str, str]] = field(default_factory=list)

    @property
    def erasure_ok(self) -> bool:
        return not self.erasure_witnesses

    @property
    def free_type_ok(self) -> bool:
        return not self.free_type_witnesses


def check_monotonicity(table: ClassTable, rel: SubtypeRelation) -> MonotonicityReport:
    """Both maps must be monotone: t1 <: t2 implies erase(t1) subclasses
    erase(t2), and c subclasses d implies free_type(c) <: free_type(d)."""
    free = _free_columns(table, rel)
    sub, classes = rel.space.classwise, rel.space.classes
    # unreachable[k]: erasable terms whose class is no superclass of k; row -1 (bottom's) is empty
    unreachable = np.packbits(~sub[:, classes] & (classes >= 0), axis=1)
    found = []
    for rows in _bands(0, len(rel), rel.bits.shape[1]):
        hits = rel.bits[rows] & unreachable[classes[rows]]
        if hits.any():  # a band without a witness skips the slower listing of set bits
            subs, sups = relation._set_bits(hits)
            found += zip((subs + rows.start).tolist(), sups.tolist())
    names = table.class_names
    return MonotonicityReport(
        Entries(rel, np.array(found, dtype=np.intp).reshape(-1, 2)),
        [(names[a], names[b])
         for a, b in np.argwhere(sub[:-1, :-1] & ~rel.related(free[:, None], free))])


def _free_columns(table: ClassTable, rel: SubtypeRelation,
                  needed: np.ndarray | None = None) -> np.ndarray:
    """Universe index of each class's free type, by class position (-1 where
    absent), found once per universe (Universe.free).  Raises if the free
    type of a `needed` class (by default every class) lies outside the
    universe."""
    names = table.class_names
    columns = rel.space.free
    missing = [names[k] for k in (range(len(names)) if needed is None else needed)
               if columns[k] < 0]
    if missing:
        raise FreeTypeOutsideUniverse(
            f"free type(s) of {', '.join(missing)} are outside the universe; "
            "build the relation at depth >= 1")
    return columns
