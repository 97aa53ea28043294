"""The law checks read the edge matrix by universe index.  Each is compared
here with a per-pair evaluation of its law, on relations whose edges were
flipped at random so that every kind of witness occurs, and the witness
lists must agree in order."""

import tracemalloc

import numpy as np
import pytest

from nomsub import (
    BOTTOM,
    Cofree,
    Ground,
    SubtypeRelation,
    build_relation,
    check_galois,
    check_monotonicity,
    check_validity,
    closure_class,
    closure_type,
    erase,
    f_subtypes,
    f_supertypes,
    free_type,
    is_subtype,
    maximal_f_subtypes,
    minimal_f_supertypes,
    mutual_pairs,
    parse_class_table,
    parse_type,
    subclass_of,
)
from nomsub import relation
from nomsub.analysis import closure_doc
from nomsub.random_tables import random_table

from nested_tables import NESTED_TABLES

CASES = ([("sample", seed, True) for seed in range(4)]
         + [("sample", 4, False)]
         + [(f"seed{seed}", seed, seed % 2 == 0) for seed in range(10)]
         + [(name, 0, True) for name in NESTED_TABLES])


def _table(name, sample_table):
    if name == "sample":
        return sample_table
    if name in NESTED_TABLES:
        return parse_class_table(NESTED_TABLES[name])
    return random_table(int(name[4:]))


def _doctored(rel: SubtypeRelation, seed: int) -> SubtypeRelation:
    """`rel` with about one entry in twelve flipped, and the root placed
    below every term, so that erasure witnesses and mutual pairs occur."""
    rng = np.random.default_rng(seed)
    n = len(rel)
    edges = rel.edges ^ (rng.random((n, n)) < 1 / 12)
    edges[rel.index(Ground("Object"))] = True
    return SubtypeRelation(rel.space, np.packbits(edges, axis=1), 0)


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def case(request, sample_table):
    name, seed, include_cofree = request.param
    table = _table(name, sample_table)
    rel = build_relation(table, 1, include_cofree=include_cofree)
    return table, _doctored(rel, seed)


# -- per-pair evaluations of each law ------------------------------------------


def galois_by_pairs(table, rel, quantify):
    free = {c: free_type(table, c) for c in table.class_names}
    valid = check_validity(table, rel)[0].valid if quantify == "valid" else None
    checked, skipped, violations, cofree = 0, 0, [], []
    for term in rel.universe:
        if term == BOTTOM:
            skipped += 1
            continue
        if valid is not None and isinstance(term, Ground) and term not in valid:
            continue
        sink = cofree if isinstance(term, Cofree) else violations
        for cls in table.class_names:
            lhs = subclass_of(table, erase(term), cls)
            rhs = is_subtype(rel, term, free[cls])
            checked += 1
            if lhs != rhs:
                sink.append((term, cls, "left-to-right" if lhs else "right-to-left"))
    return checked, skipped, violations, cofree


def monotonicity_by_pairs(table, rel):
    terms = [t for t in rel.universe if t != BOTTOM]
    erasure = [(a, b) for a in terms for b in terms
               if is_subtype(rel, a, b) and not subclass_of(table, erase(a), erase(b))]
    names = table.class_names
    free = [(a, b) for a in names for b in names
            if subclass_of(table, a, b)
            and not is_subtype(rel, free_type(table, a), free_type(table, b))]
    return erasure, free


def mutual_by_pairs(rel):
    u = rel.universe
    return [(u[i], u[j]) for i in range(len(u)) for j in range(i + 1, len(u))
            if is_subtype(rel, u[i], u[j]) and is_subtype(rel, u[j], u[i])]


def closures_by_pairs(table, rel):
    unit, idem, closed = [], [], []
    for term in rel.universe:
        if term == BOTTOM:
            continue
        once, holds = closure_type(table, rel, term)
        if not holds:
            unit.append(rel.labels[rel.index(term)])
        if closure_type(table, rel, once)[0] != once:
            idem.append(rel.labels[rel.index(term)])
        if once == term:
            closed.append(rel.labels[rel.index(term)])
    counit = [c for c in table.class_names if not closure_class(table, c)[1]]
    return {"unit_violations": unit, "counit_violations": counit,
            "idempotence_violations": idem, "closed_types": sorted(closed)}


def strict_extrema_by_pairs(rel, members, upward):
    def strictly(a, b):  # a strictly below b
        return is_subtype(rel, a, b) and not is_subtype(rel, b, a)

    return [m for m in members
            if not any(o != m and (strictly(m, o) if upward else strictly(o, m))
                       for o in members)]


# -- comparisons -----------------------------------------------------------------


@pytest.mark.parametrize("quantify", ["admittable", "valid"])
def test_galois_matches_the_per_pair_grid(case, quantify):
    table, rel = case
    report = check_galois(table, rel, quantify=quantify)
    checked, skipped, violations, cofree = galois_by_pairs(table, rel, quantify)
    assert (report.checked_pairs, report.bottom_skipped) == (checked, skipped)
    assert [(v.term, v.cls, v.direction) for v in report.violations] == violations
    assert [(v.term, v.cls, v.direction) for v in report.cofree_violations] == cofree


def test_monotonicity_matches_the_per_pair_law(case):
    table, rel = case
    report = check_monotonicity(table, rel)
    erasure, free = monotonicity_by_pairs(table, rel)
    assert erasure, "the doctored relation should break erasure monotonicity"
    assert report.erasure_witnesses == erasure
    # pair entries slice as entries of pairs
    assert report.erasure_witnesses[:1] == erasure[:1]
    assert report.free_type_witnesses == free


def test_mutual_pairs_match_the_per_pair_scan(case):
    _, rel = case
    expected = mutual_by_pairs(rel)
    assert expected, "the doctored relation should relate some pair both ways"
    assert mutual_pairs(rel) == expected
    assert mutual_pairs(rel)[:2] == expected[:2]


@pytest.mark.parametrize("sub, sup", [("List<String>", "Null"), ("List<String>", "List<!>")])
def test_mutual_pairs_outside_witnesses_and_runs(sample_table, sample_rel1, sub, sup):
    # one doctored edge closes a mutual pair that is no erasure witness and
    # lies in no class's run: check_monotonicity skips bottom's column, and
    # the atom List<!> has List's class but lies outside its run
    rel, u = sample_rel1, sample_rel1.universe
    i, j = (rel.index(parse_type(sample_table, text)) for text in (sub, sup))
    edges = rel.edges.copy()
    edges[i, j] = True
    doctored = SubtypeRelation(rel.space, np.packbits(edges, axis=1), 0)
    expected = [(u[min(i, j)], u[max(i, j)])]
    assert mutual_by_pairs(doctored) == expected
    assert mutual_pairs(doctored) == expected
    assert check_monotonicity(sample_table, doctored).erasure_witnesses == []


def test_closure_doc_matches_the_per_term_laws(case):
    table, rel = case
    assert closure_doc(table, rel) == closures_by_pairs(table, rel)


def test_extrema_match_the_per_pair_scan(case):
    table, rel = case
    for cls in table.class_names:
        if table.arity(cls) != 1:
            continue
        # the whole universe as the member set reaches every comparison
        u = rel.universe
        assert (list(maximal_f_subtypes(table, rel, cls, u).maxima)
                == strict_extrema_by_pairs(rel, u, True))
        assert (list(minimal_f_supertypes(table, rel, cls, u).minima)
                == strict_extrema_by_pairs(rel, u, False))
        subs, sups = f_subtypes(table, rel, cls), f_supertypes(table, rel, cls)
        assert (list(maximal_f_subtypes(table, rel, cls, subs).maxima)
                == strict_extrema_by_pairs(rel, subs, True))
        assert (list(minimal_f_supertypes(table, rel, cls, sups).minima)
                == strict_extrema_by_pairs(rel, sups, False))


def test_checks_build_no_square_temporary(sample_table):
    # a dense n x n boolean matrix alone would take n * n bytes; the packed
    # relation takes n * n / 8, held from the build through every check
    tracemalloc.start()
    try:
        rel = build_relation(sample_table, 2)
        check_galois(sample_table, rel)
        check_monotonicity(sample_table, rel)
        mutual_pairs(rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(rel)
    assert peak < n * n / 2


def test_point_queries_make_no_rows(reduced_table, monkeypatch):
    # reduced@3's packed rows would take n * n / 8 bytes (85.5 MB); the build,
    # the galois grid, the closure laws, validity and the F-(co)algebras with
    # their extrema read the factored form, and answer in universe indices,
    # so they make no term either
    table, made = reduced_table, []
    make = relation._terms
    monkeypatch.setattr(relation, "_terms", lambda space: made.append(space) or make(space))
    tracemalloc.start()
    try:
        rel = build_relation(table, 3)
        check_galois(table, rel)
        closure_doc(table, rel)
        check_validity(table, rel)
        for cls in ("List", "LinkedList"):
            maximal_f_subtypes(table, rel, cls, f_subtypes(table, rel, cls))
            minimal_f_supertypes(table, rel, cls, f_supertypes(table, rel, cls))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(rel)
    assert rel._packed is None and made == []
    assert peak < n * n / 32
