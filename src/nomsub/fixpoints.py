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
position (relation.instantiated), one pass per class over the runs and
endpoint indices of the relation's universe.  Bottom and the co-free atoms
are F-subtypes by the class matrix (Universe.classwise).  A comparison or
bound check whose terms all lie in U_d is one read of the relation
(SubtypeRelation.related), for every member it covers at once, so none
makes the relation's rows.  Tables that fail the
condition, and terms outside U_d, go to relation.decider at depth d+1,
which recurses through the construction's own rules (climb the superclass
chain, then compare intervals endpoint by endpoint) and touches only the
terms the question mentions; it stays the reference that the rows are
tested against.

Every answer is in universe indices (relation.Entries), in universe order,
which is label order; the free type is Universe.free's entry and the
co-free atom Universe.atoms'.  Only the decider's paths ask by term, so
only they make the universe's terms; a caller that reads an answer as
terms gets them made then.

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
    Entries,
    SubtypeRelation,
    chains_stay_in_universe,
    decider,
    instantiated,
)
from .terms import (
    Ground,
    TypeTerm,
    free_type,
    point,
    term_from_typeuse,
)


def _unary(table: ClassTable, cls: str) -> None:
    if table.decl(cls).arity != 1:
        raise NotUnaryGeneric(f"class '{cls}' is not a unary generic class")


def _applied(table: ClassTable, cls: str, term: TypeTerm) -> Ground:
    return table.intern(Ground(cls, (table.intern(point(term)),)))


def f_subtypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> Entries:
    """Terms Ty of the universe with Ty <: F<Ty> (coalgebras of F), as
    Entries in universe order."""
    _unary(table, cls)
    if not chains_stay_in_universe(table, rel.depth):
        deeper = decider(table, rel.depth + 1)
        return Entries(rel, [i for i, t in enumerate(rel.universe)
                             if deeper(t, _applied(table, cls, t))])
    space, f = rel.space, table.class_names.index(cls)
    # bottom, and the co-free atoms of F's subclasses, lie below every F<Ty>
    found = ~space.ground & space.classwise[space.classes, f]
    member = space.reach[:, f]
    members = np.flatnonzero(member >= 0)
    if members.size:  # at depth 0 F has no run
        # each ground term's chain member of class F, F<[a..b]>: Ty <: a and b <: Ty
        ends = space.ends[cls][member[members] - space.runs[cls][0], 0]
        found[members] = rel.related(members, ends[:, 0]) & rel.related(ends[:, 1], members)
    return Entries(rel, np.flatnonzero(found))


def f_supertypes(table: ClassTable, rel: SubtypeRelation, cls: str) -> Entries:
    """Terms Ty of the universe with F<Ty> <: Ty (algebras of F), as
    Entries in universe order."""
    _unary(table, cls)
    if not chains_stay_in_universe(table, rel.depth):
        deeper = decider(table, rel.depth + 1)
        return Entries(rel, [i for i, t in enumerate(rel.universe)
                             if deeper(_applied(table, cls, t), t)])
    space = rel.space
    found = np.zeros(len(rel), dtype=bool)
    # F<Ty>'s chain, each member's arguments as Ty (None) or the index of a
    # closed type: where chains stay in the universe every argument of the
    # chain is one or the other
    decl, args = table.decl(cls), [None]
    while True:
        if decl.name in space.runs:
            members = np.arange(*space.runs[decl.name][:2])
            fits = np.ones(len(members), dtype=bool)
            for p, at in enumerate(args):
                at = members if at is None else at
                lo, hi = space.ends[decl.name][:, p].T
                fits &= rel.related(lo, at) & rel.related(at, hi)
            found[members] = fits
        if decl.superclass is None:
            return Entries(rel, np.flatnonzero(found))
        env = dict(zip((p.name for p in decl.params), args))
        args = [env[arg.name] if arg.name in env else instantiated(space, arg, {})
                for arg in decl.superclass.args]
        decl = table.decl(decl.superclass.name)


def _deeper(table: ClassTable, rel: SubtypeRelation) -> Callable[..., bool]:
    """Decide whether each of `subs` lies below each of `sups` in the
    depth-(d+1) relation: by one read of `rel` (see SubtypeRelation.related)
    where chains stay in the universe and both are universe indices,
    otherwise pair by pair, on terms, by relation.decider at depth d+1, made
    on first use."""
    rows = chains_stay_in_universe(table, rel.depth)
    above = cache(lambda: decider(table, rel.depth + 1))

    def deeper(subs, sups) -> bool:
        if rows and isinstance(subs, np.ndarray) and isinstance(sups, np.ndarray):
            return bool(rel.related(subs[:, None], sups).all())
        subs, sups = (Entries(rel, ts) if isinstance(ts, np.ndarray) else ts
                      for ts in (subs, sups))
        return all(above()(t1, t2) for t1 in subs for t2 in sups)

    return deeper


def exact_fixed_points(table: ClassTable, rel: SubtypeRelation, cls: str) -> Entries:
    """Terms mutually related with their own F-application."""
    return Entries(rel, np.intersect1d(f_subtypes(table, rel, cls).at,
                                       f_supertypes(table, rel, cls).at, assume_unique=True))


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
    maxima: Entries
    free_type: FreeTypeComparison


@dataclass(frozen=True)
class MinimaReport:
    minima: Entries
    cofree: CofreeComparison


def maximal_f_subtypes(table: ClassTable, rel: SubtypeRelation, cls: str,
                       subtypes: Sequence[TypeTerm]) -> MaximaReport:
    """Maxima of the F-subtypes `subtypes` (as f_subtypes gives them) under
    the relation, with a diagnostic comparison against the free type
    (reported, not asserted).

    The comparison is judged one depth up, where the free type always
    exists even when the base universe is too shallow for it.
    """
    at = _at(rel, subtypes)
    ft = rel.space.free[table.class_names.index(cls)]
    comparison = FreeTypeComparison(
        is_member=bool((at == ft).any()),
        is_greatest=_deeper(table, rel)(at, np.array([ft]) if ft >= 0
                                        else [free_type(table, cls)]),
    )
    return MaximaReport(Entries(rel, at[~_strictly_below(rel, at).any(axis=1)]), comparison)


def minimal_f_supertypes(table: ClassTable, rel: SubtypeRelation, cls: str,
                         supertypes: Sequence[TypeTerm]) -> MinimaReport:
    """Minima of the F-supertypes `supertypes` (as f_supertypes gives them)
    under the relation, with a diagnostic comparison against the co-free
    atom (reported, not asserted).

    In an extension-free build the atom does not exist, so both comparison
    flags come back False.
    """
    at = _at(rel, supertypes)
    if rel.include_cofree:
        atom = rel.space.atoms[cls]
        comparison = CofreeComparison(
            is_member=bool((at == atom).any()),
            is_least=_deeper(table, rel)(np.array([atom]), at),
        )
    else:
        comparison = CofreeComparison(is_member=False, is_least=False)
    return MinimaReport(Entries(rel, at[~_strictly_below(rel, at).any(axis=0)]), comparison)


def _at(rel: SubtypeRelation, members: Sequence[TypeTerm]) -> np.ndarray:
    """The universe indices of `members`: Entries', or each term's, looked up."""
    return members.at if isinstance(members, Entries) else np.array(
        [rel.index(t) for t in members], dtype=np.intp)


def _strictly_below(rel: SubtypeRelation, at: np.ndarray) -> np.ndarray:
    """below[a, b]: the entry at[a] is a strict subtype of the entry at[b]."""
    sub = rel.related(at[:, None], at)
    return sub & ~sub.T


# -- validity -----------------------------------------------------------------


@dataclass(frozen=True)
class ValidityAssignment:
    """Partition of the universe's instantiations into bound-satisfying
    (valid) and not, for one mode; inductive valid sets are always contained
    in coinductive ones.  Each side is held by universe index (`*_entries`),
    and `valid` and `invalid` give its terms, made when read."""

    mode: str
    valid_entries: Entries
    invalid_entries: Entries

    @property
    def valid(self) -> frozenset[TypeTerm]:
        return frozenset(self.valid_entries)

    @property
    def invalid(self) -> frozenset[TypeTerm]:
        return frozenset(self.invalid_entries)


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
        assignments.append(ValidityAssignment(mode, Entries(rel, np.flatnonzero(valid)),
                                              Entries(rel, np.flatnonzero(checked & ~valid))))
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


def _bound_check(table: ClassTable, deeper: Callable[..., bool],
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
