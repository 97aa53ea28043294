"""Coalgebra/algebra analysis of unary generic classes, and the
admittable-versus-valid split for bounded instantiations.

For a unary generic class F, the F-subtypes are the terms Ty with
``Ty <: F<Ty>`` and the F-supertypes those with ``F<Ty> <: Ty``.  Applying
F to a depth-d term lands at depth d+1, so membership is judged in the
depth-(d+1) relation.  No deeper universe is built: each question is decided
by recursing through the construction's own rules (climb the superclass
chain, then compare intervals endpoint by endpoint), which touches only the
terms the question mentions.

Maximality/minimality diagnostics never fail a run: whether the free type
is the greatest F-subtype (and the co-free atom the least F-supertype) is
model-dependent, so the comparisons are reported as findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .class_table import ClassTable, TypeUse, subclass_of
from .errors import NotUnaryGeneric, TermOutsideUniverse
from .relation import SubtypeRelation
from .terms import (
    BOTTOM,
    Cofree,
    Ground,
    TypeTerm,
    format_type,
    free_type,
    nesting_depth,
    point,
    super_instantiation,
    term_from_typeuse,
)

_Decider = Callable[[TypeTerm, TypeTerm], bool]


def _one_deeper(table: ClassTable, rel: SubtypeRelation) -> _Decider:
    """Decide ``t1 <: t2`` in the depth-(d+1) relation over `rel`'s depth d.

    A co-free atom lies below every non-bottom term whose class its class
    subclasses, at every depth, the one rule the build and the reference
    step state too (and nothing else but bottom and co-free atoms lies
    below it).  A ground term lies below another when the member of its
    superclass chain with the other's class fits the depth bound and has
    intervals inside the other's; the endpoints are compared by the same
    recursion.  A pair met again while still being decided is answered
    False, as in the oracle.
    """
    depth = rel.depth + 1
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


def _unary(table: ClassTable, cls: str) -> None:
    if table.decl(cls).arity != 1:
        raise NotUnaryGeneric(f"class '{cls}' is not a unary generic class")


def _applied(cls: str, term: TypeTerm) -> Ground:
    return Ground(cls, (point(term),))


def f_subtypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> tuple[TypeTerm, ...]:
    """Terms Ty of the universe with Ty <: F<Ty> (coalgebras of F), in
    universe order."""
    _unary(table, cls)
    deeper = _one_deeper(table, rel)
    return tuple(t for t in rel.universe if deeper(t, _applied(cls, t)))


def f_supertypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> tuple[TypeTerm, ...]:
    """Terms Ty of the universe with F<Ty> <: Ty (algebras of F), in
    universe order."""
    _unary(table, cls)
    deeper = _one_deeper(table, rel)
    return tuple(t for t in rel.universe if deeper(_applied(cls, t), t))


def exact_fixed_points(table: ClassTable, rel: SubtypeRelation, cls: str) -> tuple[TypeTerm, ...]:
    """Terms mutually related with their own F-application."""
    supers = set(f_supertypes(table, rel, cls))
    return tuple(t for t in f_subtypes(table, rel, cls) if t in supers)


@dataclass(frozen=True)
class FreeTypeComparison:
    is_member: bool    # free type itself satisfies Ty <: F<Ty>
    is_greatest: bool  # free type dominates every F-subtype


@dataclass(frozen=True)
class CofreeComparison:
    is_member: bool  # co-free atom satisfies F<Ty> <: Ty
    is_least: bool   # co-free atom lies below every F-supertype


@dataclass(frozen=True)
class MaximaReport:
    maxima: tuple[TypeTerm, ...]
    free_type: FreeTypeComparison


@dataclass(frozen=True)
class MinimaReport:
    minima: tuple[TypeTerm, ...]
    cofree: CofreeComparison


def maximal_f_subtypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> MaximaReport:
    """Maxima of the F-subtypes under the relation, with a diagnostic
    comparison against the free type (reported, not asserted).

    The comparison is judged one depth up, where the free type always
    exists even when the base universe is too shallow for it.
    """
    return _maxima_report(table, rel, cls, f_subtypes(table, rel, cls))


def _maxima_report(table: ClassTable, rel: SubtypeRelation, cls: str,
                   members: tuple[TypeTerm, ...]) -> MaximaReport:
    maxima = tuple(m for m, up in zip(members, _strictly_below(rel, members))
                   if not up.any())
    ft = free_type(table, cls)
    deeper = _one_deeper(table, rel)
    comparison = FreeTypeComparison(
        is_member=ft in set(members),
        is_greatest=all(deeper(m, ft) for m in members),
    )
    return MaximaReport(maxima, comparison)


def minimal_f_supertypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> MinimaReport:
    """Minima of the F-supertypes under the relation, with a diagnostic
    comparison against the co-free atom (reported, not asserted).

    In an extension-free build the atom does not exist, so both comparison
    flags come back False.
    """
    return _minima_report(table, rel, cls, f_supertypes(table, rel, cls))


def _minima_report(table: ClassTable, rel: SubtypeRelation, cls: str,
                   members: tuple[TypeTerm, ...]) -> MinimaReport:
    minima = tuple(m for m, down in zip(members, _strictly_below(rel, members).T)
                   if not down.any())
    atom = Cofree(cls)
    if rel.include_cofree:
        deeper = _one_deeper(table, rel)
        comparison = CofreeComparison(
            is_member=atom in set(members),
            is_least=all(deeper(atom, m) for m in members),
        )
    else:
        comparison = CofreeComparison(is_member=False, is_least=False)
    return MinimaReport(minima, comparison)


def _strictly_below(rel: SubtypeRelation, members) -> np.ndarray:
    """below[a, b]: member a is a strict subtype of member b."""
    idx = np.array([rel.index(m) for m in members], dtype=np.intp)
    sub = rel.related(idx[:, None], idx)
    return sub & ~sub.T


# -- validity -----------------------------------------------------------------


@dataclass(frozen=True)
class ValidityAssignment:
    """Partition of the universe's instantiations into bound-satisfying
    (valid) and not, for one mode; inductive valid sets are always contained
    in coinductive ones."""

    mode: str
    valid: frozenset[TypeTerm]
    invalid: frozenset[TypeTerm]
    depth: int
    table: ClassTable

    def __contains__(self, term: TypeTerm) -> bool:
        return term in self.valid


def check_validity(table: ClassTable, rel: SubtypeRelation,
                   mode: str = "ind") -> ValidityAssignment:
    """Classify every instantiation of the universe as valid or invalid.

    An instantiation passes its bound check when each argument's upper
    endpoint is below the declared upper bound and its lower endpoint above
    the declared lower bound, with parameters substituted by the argument
    endpoints (upper endpoints for upper bounds, lower for lower).  A bound
    that mentions parameters makes the instantiated bound term a dependency
    of the check.  Validity is a fixpoint of one operator: a term is valid
    when it passes its bound check and every term it depends on is valid.
    Inductive mode takes the least fixpoint, iterated from no valid term, so
    a dependency outside the universe (never checked) is never valid.
    Coinductive mode takes the greatest, iterated from every checked term
    plus the dependencies outside the universe, which stay valid.  A term is
    never its own dependency, so self-bounded instantiations with finite
    derivations are inductively valid.
    """
    if mode not in ("ind", "coind"):
        raise ValueError("mode must be 'ind' or 'coind'")
    return _assignment(table, rel, _bound_checks(table, rel), mode)


def check_validity_modes(table: ClassTable, rel: SubtypeRelation
                         ) -> tuple[ValidityAssignment, ValidityAssignment]:
    """The inductive and the coinductive assignment, as check_validity gives
    them, from one pass of bound checks: neither a check's outcome nor its
    dependencies depend on the mode."""
    checks = _bound_checks(table, rel)
    return _assignment(table, rel, checks, "ind"), _assignment(table, rel, checks, "coind")


_BoundChecks = dict[TypeTerm, tuple[bool, frozenset[TypeTerm]]]


def _bound_checks(table: ClassTable, rel: SubtypeRelation) -> _BoundChecks:
    """Each ground term of the universe, in universe order, with whether it
    passes its bound check and the terms that check depends on."""
    deeper = _one_deeper(table, rel)
    return {t: _bound_check(table, deeper, t) for t in rel.universe if isinstance(t, Ground)}


def _assignment(table: ClassTable, rel: SubtypeRelation, checks: _BoundChecks,
                mode: str) -> ValidityAssignment:
    """The least (``ind``) or greatest (``coind``) fixpoint of the validity
    operator over the bound checks (see check_validity)."""
    outside = set()
    if mode == "coind":
        outside = {d for _ok, deps in checks.values() for d in deps} - checks.keys()
    valid = set() if mode == "ind" else outside | checks.keys()
    while True:
        step = outside | {t for t, (ok, deps) in checks.items() if ok and deps <= valid}
        if step == valid:
            break
        valid = step
    valid -= outside
    invalid = frozenset(t for t in checks if t not in valid)
    return ValidityAssignment(mode, frozenset(valid), invalid, rel.depth, table)


def _bound_check(table: ClassTable, deeper: _Decider,
                 term: Ground) -> tuple[bool, frozenset[TypeTerm]]:
    decl = table.decl(term.cls)
    if not decl.params:
        return True, frozenset()
    param_names = {p.name for p in decl.params}
    env_hi = {p.name: term.args[i].hi for i, p in enumerate(decl.params)}
    env_lo = {p.name: term.args[i].lo for i, p in enumerate(decl.params)}
    ok = True
    used: set[TypeTerm] = set()
    for i, p in enumerate(decl.params):
        if p.upper_bound is not None:
            bound = term_from_typeuse(table, p.upper_bound, env_hi)
            if not deeper(term.args[i].hi, bound):
                ok = False
            if _mentions(p.upper_bound, param_names) and isinstance(bound, Ground):
                used.add(bound)
        if p.lower_bound is not None:
            low = term_from_typeuse(table, p.lower_bound, env_lo)
            if not deeper(low, term.args[i].lo):
                ok = False
            if _mentions(p.lower_bound, param_names) and isinstance(low, Ground):
                used.add(low)
    used.discard(term)
    return ok, frozenset(used)


def _mentions(use: TypeUse, names: set[str]) -> bool:
    return any(n in names for n in use.mentioned_names())
