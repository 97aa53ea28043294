"""Erasure and free-type construction as an adjoint pair of monotone maps.

Erasure sends a term to its class; the free type sends a class to its most
general wildcard instantiation.  Over a constructed relation the pair must
satisfy, for every term t and class c,

    erase(t) subclasses c  <=>  t <: free_type(c)

which is verified here exhaustively, together with the unit law
``t <: free_type(erase(t))``, the counit law ``erase(free_type(c)) = c``,
monotonicity of both maps, and the fixed points of the induced closure
operator (the closed types).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .class_table import ClassTable, subclass_of
from .errors import BottomHasNoErasure, FreeTypeOutsideUniverse
from .relation import SubtypeRelation, is_subtype
from .terms import BOTTOM, Cofree, Ground, TypeTerm, erase, free_type

LEFT_TO_RIGHT = "left-to-right"   # erasure side holds, subtype side fails
RIGHT_TO_LEFT = "right-to-left"   # subtype side holds, erasure side fails


@dataclass(frozen=True)
class GaloisViolation:
    term: TypeTerm
    cls: str
    direction: str


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
    free = _free_types(table, rel)
    if quantify not in ("admittable", "valid"):
        raise ValueError("quantify must be 'admittable' or 'valid'")
    domain: list[TypeTerm] = []
    bottom_skipped = 0
    if quantify == "valid":
        from .fixpoints import check_validity
        validity = check_validity(table, rel, mode="ind")
    for term in rel.universe:
        if term == BOTTOM:
            bottom_skipped += 1
            continue
        if quantify == "valid" and isinstance(term, Ground) and term not in validity.valid:
            continue
        domain.append(term)

    report = AdjunctionReport(bottom_skipped=bottom_skipped, quantified_over=quantify)
    for term in domain:
        erased = erase(term)
        sink = report.cofree_violations if isinstance(term, Cofree) else report.violations
        for cls in table.class_names:
            lhs = subclass_of(table, erased, cls)
            rhs = is_subtype(rel, term, free[cls])
            report.checked_pairs += 1
            if lhs and not rhs:
                sink.append(GaloisViolation(term, cls, LEFT_TO_RIGHT))
            elif rhs and not lhs:
                sink.append(GaloisViolation(term, cls, RIGHT_TO_LEFT))
    return report


def closure_type(table: ClassTable, rel: SubtypeRelation,
                 term: TypeTerm) -> tuple[TypeTerm, bool]:
    """Apply the closure operator free_type(erase(t)) and report whether the
    unit law t <: free_type(erase(t)) holds (expected everywhere)."""
    if term == BOTTOM:
        raise BottomHasNoErasure("the bottom type has no erasure")
    closed = free_type(table, erase(term))
    return closed, is_subtype(rel, term, closed)


def closure_class(table: ClassTable, cls: str) -> tuple[str, bool]:
    """Apply erase(free_type(c)) and report equality with c (the counit law,
    an exact equality for every class)."""
    result = erase(free_type(table, cls))
    return result, result == cls


def closed_types(rel: SubtypeRelation, table: ClassTable) -> frozenset[TypeTerm]:
    """Syntactic fixed points of the closure operator; exactly the free
    types (which for non-generic classes are the classes' sole types)."""
    fixed = []
    for term in rel.universe:
        if term == BOTTOM:
            continue
        if free_type(table, erase(term)) == term:
            fixed.append(term)
    return frozenset(fixed)


@dataclass
class MonotonicityReport:
    erasure_witnesses: list[tuple[TypeTerm, TypeTerm]] = field(default_factory=list)
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
    free = _free_types(table, rel)
    report = MonotonicityReport()

    names = table.class_names
    name_pos = {c: k for k, c in enumerate(names)}
    sub = np.zeros((len(names), len(names)), dtype=bool)
    for a in names:
        for b in names:
            sub[name_pos[a], name_pos[b]] = subclass_of(table, a, b)

    erasable = np.array([t != BOTTOM for t in rel.universe])
    cls_idx = np.array([name_pos[erase(t)] if t != BOTTOM else 0
                        for t in rel.universe])
    bad = rel.edges & erasable[:, None] & erasable[None, :] \
        & ~sub[cls_idx[:, None], cls_idx[None, :]]
    for i, j in np.argwhere(bad):
        report.erasure_witnesses.append((rel.universe[i], rel.universe[j]))

    for a in names:
        for b in names:
            if subclass_of(table, a, b) and not is_subtype(rel, free[a], free[b]):
                report.free_type_witnesses.append((a, b))
    return report


def _free_types(table: ClassTable, rel: SubtypeRelation) -> dict[str, Ground]:
    free = {c: free_type(table, c) for c in table.class_names}
    missing = [c for c, ft in free.items() if ft not in rel]
    if missing:
        raise FreeTypeOutsideUniverse(
            f"free type(s) of {', '.join(missing)} are outside the universe; "
            "build the relation at depth >= 1")
    return free
