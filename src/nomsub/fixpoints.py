"""Coalgebra/algebra analysis of unary generic classes, and the
admittable-versus-valid split for bounded instantiations.

For a unary generic class F, the F-subtypes are the terms Ty with
``Ty <: F<Ty>`` and the F-supertypes those with ``F<Ty> <: Ty``.  Applying
F to a depth-d term lands at depth d+1, so membership is judged in the
depth-(d+1) relation, and so are the free-type and co-free comparisons and
the bound checks of validity.  No deeper universe is built.

Where relation.chains_stay_in_universe holds at d (every superclass argument
is a parameter at a direct position or a closed type nested less than d
deep), every chain member of a term of U_d lies in U_d and the depth-(d+1)
relation restricted to U_d is the built one, so the answers come from the
relation's rows.  ``Ty <: F<Ty>`` holds when Ty's chain member
``F<[a..b]>`` (Universe.reach) has ``Ty <: a`` and ``b <: Ty``, one
vectorized pass over the ground terms; ``F<Ty> <: Ty`` compares Ty's own
endpoints with Ty, or with a closed type that F's chain puts at that
position, one pass per class over the runs and endpoint indices of the
relation's universe.  Bottom and the co-free atoms are F-subtypes by the
class matrix (Universe.classwise).  A comparison or bound check whose
terms all lie in U_d is one read of the relation
(SubtypeRelation.related), for every member it covers at once, so none
makes the relation's rows.  Tables that fail the
condition, and terms outside U_d, go to relation.decider at depth d+1,
which recurses through the construction's own rules (climb the superclass
chain, then compare intervals endpoint by endpoint) and touches only the
terms the question mentions; it stays the reference that the rows are
tested against.

Maximality/minimality diagnostics never fail a run: whether the free type
is the greatest F-subtype (and the co-free atom the least F-supertype) is
model-dependent, so the comparisons are reported as findings.

Each analysis has one public entry, which the report, the CLI and any
tracer that wraps these names all go through: f_subtypes and f_supertypes
decide the member sets, maximal_f_subtypes and minimal_f_supertypes take a
member set the caller already holds, and check_validity gives both validity
modes from one pass of bound checks.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .class_table import ClassDecl, ClassTable, TypeUse
from .errors import NotUnaryGeneric
from .relation import (
    SubtypeRelation,
    chains_stay_in_universe,
    decider,
    instantiated,
)
from .terms import (
    BOTTOM,
    Cofree,
    Ground,
    TypeTerm,
    free_type,
    point,
    super_chain,
    term_from_typeuse,
)


# whether each of some terms lies below each of others, one level up (_deeper)
Deeper = Callable[[Sequence[TypeTerm], Sequence[TypeTerm]], bool]


def _unary(table: ClassTable, cls: str) -> None:
    if table.decl(cls).arity != 1:
        raise NotUnaryGeneric(f"class '{cls}' is not a unary generic class")


def _applied(table: ClassTable, cls: str, term: TypeTerm) -> Ground:
    return table.intern(Ground(cls, (table.intern(point(term)),)))


def f_subtypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> tuple[TypeTerm, ...]:
    """Terms Ty of the universe with Ty <: F<Ty> (coalgebras of F), in
    universe order."""
    _unary(table, cls)
    if not chains_stay_in_universe(table, rel.depth):
        deeper = decider(table, rel.depth + 1)
        return tuple(t for t in rel.universe if deeper(t, _applied(table, cls, t)))
    space, f = rel.space, table.class_names.index(cls)
    # bottom, and the co-free atoms of F's subclasses, lie below every F<Ty>
    found = ~space.ground & space.classwise[space.classes, f]
    member = space.reach[:, f]
    members = np.flatnonzero(member >= 0)
    if members.size:  # at depth 0 F has no run
        # each ground term's chain member of class F, F<[a..b]>: Ty <: a and b <: Ty
        ends = space.ends[cls][member[members] - space.runs[cls][0], 0]
        found[members] = rel.related(members, ends[:, 0]) & rel.related(ends[:, 1], members)
    return _marked(rel, found)


def f_supertypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> tuple[TypeTerm, ...]:
    """Terms Ty of the universe with F<Ty> <: Ty (algebras of F), in
    universe order."""
    _unary(table, cls)
    if not chains_stay_in_universe(table, rel.depth):
        deeper = decider(table, rel.depth + 1)
        return tuple(t for t in rel.universe if deeper(_applied(table, cls, t), t))
    space = rel.space
    found = np.zeros(len(rel), dtype=bool)
    # F<Null>'s chain stands for F<Ty>'s, its point [Null..Null] for Ty: Null
    # is reserved, so no declared type contains it, and where chains stay in
    # the universe every other argument of the chain is a closed type
    applied = _applied(table, cls, BOTTOM)
    ty = applied.args[0]
    for member in [applied, *super_chain(table, applied)]:
        if member.cls not in space.runs:
            continue
        members = np.arange(*space.runs[member.cls][:2])
        fits = np.ones(len(members), dtype=bool)
        for p, arg in enumerate(member.args):
            at = members if arg == ty else rel.index(arg.lo)
            lo, hi = space.ends[member.cls][:, p].T
            fits &= rel.related(lo, at) & rel.related(at, hi)
        found[members] = fits
    return _marked(rel, found)


def _marked(rel: SubtypeRelation, found: np.ndarray) -> tuple[TypeTerm, ...]:
    """The terms `found` marks, in universe order."""
    return tuple(rel.universe[i] for i in np.flatnonzero(found))


def _deeper(table: ClassTable, rel: SubtypeRelation) -> Deeper:
    """Decide whether each term of `subs` lies below each of `sups` in the
    depth-(d+1) relation: by one read of `rel` (see SubtypeRelation.related)
    where chains stay in the universe and every term lies in it, otherwise
    pair by pair by relation.decider at depth d+1, made on first use."""
    rows = chains_stay_in_universe(table, rel.depth)
    above = cache(lambda: decider(table, rel.depth + 1))

    def deeper(subs: Sequence[TypeTerm], sups: Sequence[TypeTerm]) -> bool:
        if rows and all(t in rel for t in (*subs, *sups)):
            at = np.array([rel.index(t) for t in subs], dtype=np.intp)
            return bool(rel.related(at[:, None], [rel.index(t) for t in sups]).all())
        return all(above()(a, b) for a in subs for b in sups)

    return deeper


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


def maximal_f_subtypes(table: ClassTable, rel: SubtypeRelation, cls: str,
                       subtypes: tuple[TypeTerm, ...]) -> MaximaReport:
    """Maxima of the F-subtypes `subtypes` (as f_subtypes gives them) under
    the relation, with a diagnostic comparison against the free type
    (reported, not asserted).

    The comparison is judged one depth up, where the free type always
    exists even when the base universe is too shallow for it.
    """
    maxima = tuple(m for m, up in zip(subtypes, _strictly_below(rel, subtypes))
                   if not up.any())
    ft = free_type(table, cls)
    deeper = _deeper(table, rel)
    comparison = FreeTypeComparison(
        is_member=ft in set(subtypes),
        is_greatest=deeper(subtypes, [ft]),
    )
    return MaximaReport(maxima, comparison)


def minimal_f_supertypes(table: ClassTable, rel: SubtypeRelation, cls: str,
                         supertypes: tuple[TypeTerm, ...]) -> MinimaReport:
    """Minima of the F-supertypes `supertypes` (as f_supertypes gives them)
    under the relation, with a diagnostic comparison against the co-free
    atom (reported, not asserted).

    In an extension-free build the atom does not exist, so both comparison
    flags come back False.
    """
    minima = tuple(m for m, down in zip(supertypes, _strictly_below(rel, supertypes).T)
                   if not down.any())
    atom = Cofree(cls)
    if rel.include_cofree:
        deeper = _deeper(table, rel)
        comparison = CofreeComparison(
            is_member=atom in set(supertypes),
            is_least=deeper([atom], supertypes),
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


def check_validity(table: ClassTable, rel: SubtypeRelation
                   ) -> tuple[ValidityAssignment, ValidityAssignment]:
    """Classify every instantiation of the universe as valid or invalid,
    inductively and coinductively: the pair (``ind``, ``coind``).

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
    derivations are inductively valid.  Neither a check nor its dependencies
    depend on the mode, so both modes share one pass of bound checks.
    """
    checked, ok, outside, src, dst = _bound_checks(table, rel)
    assignments = []
    for mode, base, valid in (("ind", ok & ~outside, np.zeros_like(ok)),
                              ("coind", ok, checked)):
        while True:
            step = base.copy()
            step[src[~valid[dst]]] = False
            if np.array_equal(step, valid):
                break
            valid = step
        assignments.append(ValidityAssignment(mode, frozenset(_marked(rel, valid)),
                                              frozenset(_marked(rel, checked & ~valid))))
    return tuple(assignments)


def _bound_checks(table: ClassTable, rel: SubtypeRelation) -> tuple[np.ndarray, ...]:
    """Each ground term's bound check and dependencies, by universe index:
    the masks `checked` of the ground terms, `ok` of those that pass their
    check and `outside` of those with a dependency outside the universe,
    and index arrays `src` and `dst`, term src[e] depending on term dst[e].
    Where chains stay in the universe, each bound of a class is instantiated
    for all of its terms at once as universe indices and checked by bit
    reads; a term with an instantiated bound outside the universe, and every
    term of a table where chains leave it, is checked term by term (see
    _bound_check)."""
    space = rel.space
    checked = space.ground
    ok, outside = checked.copy(), np.zeros(len(rel), dtype=bool)
    needs: list[tuple[np.ndarray, np.ndarray]] = []
    rows = chains_stay_in_universe(table, rel.depth)
    by_term = []
    for cls, (start, stop, *_) in space.runs.items():
        members = np.arange(start, stop)
        decl = table.decl(cls)
        bounds = _bounds(decl)
        if not bounds:
            continue
        if not rows:
            by_term += members.tolist()
            continue
        far = np.zeros(len(members), dtype=bool)
        fits = np.ones(len(members), dtype=bool)
        found = []
        for q, use, side in bounds:
            # upper bounds take the upper endpoints, lower bounds the lower ones
            env = {p.name: space.ends[cls][:, j, side] for j, p in enumerate(decl.params)}
            bound = np.broadcast_to(instantiated(space, use, env), members.shape)
            own = space.ends[cls][:, q, side]
            far |= bound < 0
            fits &= rel.related(own, bound) if side else rel.related(bound, own)
            if _mentions(use, env):
                # a ground bound term other than the term itself (a far one's
                # -1 reads garbage, dropped with the far terms below)
                found.append((checked[bound] & (bound != members), bound))
        ok[members[~far]] = fits[~far]
        needs += [(members[dep & ~far], bound[dep & ~far]) for dep, bound in found]
        by_term += members[far].tolist()
    deeper, single = _deeper(table, rel), []
    for i in sorted(by_term):
        ok[i], used = _bound_check(table, deeper, rel.universe[i])
        outside[i] = any(term not in rel for term in used)
        single += [(i, rel.index(term)) for term in used if term in rel]
    needs.append(np.array(single, dtype=np.intp).reshape(-1, 2).T)
    src, dst = (np.concatenate(side) for side in zip(*needs))
    return checked, ok, outside, src, dst


def _bounds(decl: ClassDecl) -> list[tuple[int, TypeUse, int]]:
    """Each declared bound as (parameter position, bound, side), side 1 for
    an upper bound and 0 for a lower one."""
    return [(q, use, side) for q, p in enumerate(decl.params)
            for use, side in ((p.upper_bound, 1), (p.lower_bound, 0)) if use is not None]


def _bound_check(table: ClassTable, deeper: Deeper,
                 term: Ground) -> tuple[bool, frozenset[TypeTerm]]:
    decl = table.decl(term.cls)
    names = {p.name for p in decl.params}
    ok, used = True, set()
    for q, use, side in _bounds(decl):
        # upper bounds take the upper endpoints, lower bounds the lower ones
        ends = [(iv.lo, iv.hi)[side] for iv in term.args]
        bound = term_from_typeuse(table, use, {p.name: e for p, e in zip(decl.params, ends)})
        ok &= deeper([ends[q]], [bound]) if side else deeper([bound], [ends[q]])
        if _mentions(use, names) and isinstance(bound, Ground):
            used.add(bound)
    used.discard(term)
    return ok, frozenset(used)


def _mentions(use: TypeUse, names: set[str]) -> bool:
    return any(n in names for n in use.mentioned_names())
