"""The verification battery over one constructed relation.

`analyze` runs every check the construction must pass (the adjunction grid,
the closure laws, monotonicity, antisymmetry, the per-class F-(co)algebra
analyses and both validity fixpoints) and gathers the findings into the
report document of `schema/report.schema.json`, minus the `table` field
that names the input file.  Each analysis is reached through its public
function, the one the single-analysis CLI subcommands call, and each member
set and the bound checks are computed once.  The `*_doc` helpers render one
analysis each and are shared with those subcommands.  The analyses answer
in universe indices, and the helpers read each label by index (`labels`),
so a report makes no term.
"""

from __future__ import annotations

import numpy as np

from . import adjunction, fixpoints, relation
from .class_table import ClassTable
from .relation import SubtypeRelation


def analyze(table: ClassTable, rel: SubtypeRelation,
            quantify: str = "admittable") -> dict:
    """The report document for `rel`; `verification_ok` holds when the
    adjunction grid, the closure laws and monotonicity show no violation.
    `quantify` picks the adjunction grid's term domain, as in check_galois.
    The row scans read whole rows and the report prints every instantiation,
    so rows and labels are made first, and every read below reuses them;
    no term is made."""
    rel.bits, rel.labels  # made on first read
    galois = adjunction.check_galois(table, rel, quantify=quantify)
    closures = closure_doc(table, rel)
    mono = adjunction.check_monotonicity(table, rel)
    pairs = relation.mutual_pairs(rel)
    analyses = {name: _fixpoint_doc(table, rel, name)
                for name in table.class_names if table.arity(name) == 1}
    inductive, coinductive = fixpoints.check_validity(table, rel)
    validity = {
        "inductive": validity_doc(rel, inductive),
        "coinductive": validity_doc(rel, coinductive),
    }
    validity["agree"] = validity["inductive"]["valid"] == validity["coinductive"]["valid"]
    return {
        "depth": rel.depth,
        "universe_size": len(rel),
        "iterations": rel.iterations,
        "include_cofree": rel.include_cofree,
        "galois": galois_doc(rel, galois),
        "closure_laws": closures,
        "monotonicity": {
            "erasure_ok": mono.erasure_ok,
            "free_type_ok": mono.free_type_ok,
            "erasure_witnesses": [labels(rel, w) for w in mono.erasure_witnesses.at],
            "free_type_witnesses": [list(w) for w in mono.free_type_witnesses],
        },
        "mutual_pairs": [labels(rel, p) for p in pairs.at],
        "fixpoints": analyses,
        "validity": validity,
        "verification_ok": (galois.ok and closure_laws_hold(closures)
                            and mono.erasure_ok and mono.free_type_ok),
    }


def labels(rel: SubtypeRelation, at: np.ndarray) -> list[str]:
    """The labels at indices `at`: in universe order, which is label order
    (see relation._stage), when `at` ascends."""
    made = rel.labels
    return [made[i] for i in at.tolist()]


def galois_doc(rel: SubtypeRelation, report: adjunction.AdjunctionReport) -> dict:
    def violations(vs):
        return [{"type": rel.space.label(v.at), "class": v.cls, "direction": v.direction}
                for v in vs]

    return {
        "checked_pairs": report.checked_pairs,
        "bottom_skipped": report.bottom_skipped,
        "quantified_over": report.quantified_over,
        "violations": violations(report.violations),
        "cofree_violations": violations(report.cofree_violations),
    }


def closure_doc(table: ClassTable, rel: SubtypeRelation) -> dict:
    """Unit and idempotence violations over the universe (bottom excluded),
    counit violations over the classes, and the closed types, by label.  A
    term breaks idempotence exactly when its class breaks the counit law, since
    free_type(erase(free_type(c))) is free_type(c) exactly when it holds."""
    classes = rel.space.classes
    rows = np.flatnonzero(classes >= 0)
    free = adjunction._free_columns(table, rel, needed=np.flatnonzero(np.bincount(classes[rows])))
    names = table.class_names
    counit_ok = np.array([adjunction.closure_class(table, c)[1] for c in names])
    unit = rows[~rel.related(rows, free[classes[rows]])]
    idem = rows[~counit_ok[classes[rows]]]
    return {
        "unit_violations": [rel.space.label(i) for i in unit],
        "counit_violations": [c for c, ok in zip(names, counit_ok) if not ok],
        "idempotence_violations": [rel.space.label(i) for i in idem],
        "closed_types": sorted(rel.space.label(i) for i in free if i >= 0),
    }


def closure_laws_hold(doc: dict) -> bool:
    return not (doc["unit_violations"] or doc["counit_violations"]
                or doc["idempotence_violations"])


def maxima_doc(rel: SubtypeRelation, report: fixpoints.MaximaReport) -> dict:
    return {"maxima": labels(rel, report.maxima.at),
            "free_type": {"is_member": report.free_type.is_member,
                          "is_greatest": report.free_type.is_greatest}}


def minima_doc(rel: SubtypeRelation, report: fixpoints.MinimaReport) -> dict:
    return {"minima": labels(rel, report.minima.at),
            "cofree": {"is_member": report.cofree.is_member,
                       "is_least": report.cofree.is_least}}


def validity_doc(rel: SubtypeRelation, assignment: fixpoints.ValidityAssignment) -> dict:
    return {
        "mode": assignment.mode,
        "valid": labels(rel, assignment.valid_entries.at),
        "invalid": labels(rel, assignment.invalid_entries.at),
    }


def _fixpoint_doc(table: ClassTable, rel: SubtypeRelation, cls: str) -> dict:
    # each member set is decided once and shared by the derived fields
    subs = fixpoints.f_subtypes(table, rel, cls)
    sups = fixpoints.f_supertypes(table, rel, cls)
    return {
        "f_subtypes": labels(rel, subs.at),
        "f_supertypes": labels(rel, sups.at),
        "exact_fixed_points": labels(rel, np.intersect1d(subs.at, sups.at,
                                                         assume_unique=True)),
        **maxima_doc(rel, fixpoints.maximal_f_subtypes(table, rel, cls, subs)),
        **minima_doc(rel, fixpoints.minimal_f_supertypes(table, rel, cls, sups)),
    }
