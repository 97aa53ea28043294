"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with -s or
read the captured output); a pytest failure is the FAIL line.  Exercised on
the shipped sample table (depth 1) and the reduced table (depth 2).
"""

import itertools
import json
import pathlib
import subprocess
import sys
import time

import numpy as np

from nomsub import (
    BOTTOM,
    Cofree,
    Ground,
    build_relation,
    check_galois,
    check_monotonicity,
    check_validity,
    closure_class,
    closure_type,
    erase,
    f_subtypes,
    f_supertypes,
    format_type,
    free_type,
    is_subtype,
    maximal_f_subtypes,
    minimal_f_supertypes,
    mutual_pairs,
    parse_type,
    relation_from_json,
    subclass_of,
)
from nomsub.relation import export_json
from nomsub.random_tables import has_f_bounds, random_table

from oracle import Oracle

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _report(criterion, text):
    print(f"[criterion {criterion}] PASS — {text}")


def test_criterion_1_galois_exhaustive(sample_table, reduced_table):
    started = time.monotonic()
    checked = 0
    for table, depth in ((sample_table, 1), (reduced_table, 2)):
        rel = build_relation(table, depth)
        assert len(rel.universe) <= 50_000
        report = check_galois(table, rel)
        assert report.violations == []
        assert report.cofree_violations == []
        checked += report.checked_pairs
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(1, f"0 violations across {checked} grid pairs in {elapsed:.1f}s")


def test_criterion_2_closure_laws(sample_table, sample_rel1, reduced_table, reduced_rel2):
    terms_checked = 0
    for table, rel in ((sample_table, sample_rel1), (reduced_table, reduced_rel2)):
        for term in rel.universe:
            if term == BOTTOM:
                continue
            closed, unit_holds = closure_type(table, rel, term)
            assert unit_holds, format_type(term, table)
            assert closure_type(table, rel, closed)[0] == closed  # idempotence
            terms_checked += 1
        for cls in table.class_names:
            assert closure_class(table, cls) == (cls, True)
    _report(2, f"unit, counit, and idempotence laws hold for {terms_checked} terms")


def test_criterion_3_monotonicity(sample_table, sample_rel1, sample_rel2,
                                  reduced_table, reduced_rel1, reduced_rel2):
    for table, rel in ((sample_table, sample_rel1),
                       (sample_table, sample_rel2),
                       (reduced_table, reduced_rel1),
                       (reduced_table, reduced_rel2)):
        report = check_monotonicity(table, rel)
        assert report.erasure_witnesses == []
        assert report.free_type_witnesses == []
    _report(3, "erasure and free-type maps are monotone, zero witnesses "
               "on both tables at depths 1 and 2")


def test_criterion_4_oracle_equivalence(sample_table, sample_rel1):
    oracle = Oracle(sample_table, sample_rel1.universe)
    disagreements = 0
    for t1, t2 in itertools.product(sample_rel1.universe, repeat=2):
        if is_subtype(sample_rel1, t1, t2) != oracle.is_subtype(t1, t2):
            disagreements += 1
    assert disagreements == 0
    _report(4, f"brute-force oracle agrees on all {len(sample_rel1)}^2 pairs")


def test_criterion_5_relation_sanity(sample_table, sample_rel0, sample_rel1,
                                     sample_rel2, reduced_table, reduced_rel2):
    for rel in (sample_rel1, sample_rel2, reduced_rel2):
        assert bool(np.diag(rel.edges).all())
        f = rel.edges.astype(np.float32)
        assert not (((f @ f) > 0) & ~rel.edges).any()
        assert mutual_pairs(rel) == []
        assert rel.iterations <= len(rel) ** 2
    for table in (sample_table, reduced_table):
        rel0 = build_relation(table, 0)
        plain = [c for c in table.class_names if not table.decl(c).is_generic]
        for a in plain:
            for b in plain:
                assert is_subtype(rel0, Ground(a), Ground(b)) == subclass_of(table, a, b)
    _report(5, "relations reflexive, transitive, antisymmetric; depth 0 = subclassing")


def test_criterion_6_f_bounded_validity(sample_table, sample_rel1):
    for assignment in check_validity(sample_table, sample_rel1):
        assert parse_type(sample_table, "Enum<Weekday>") in assignment.valid
        assert parse_type(sample_table, "Enum<Object>") in assignment.invalid
        assert parse_type(sample_table, "Enum<String>") in assignment.invalid
    plain_tables = 0
    for seed in range(20):
        table = random_table(seed, max_classes=6)
        rel = build_relation(table, 1)
        ind, coind = check_validity(table, rel)
        assert ind.valid <= coind.valid, f"seed {seed}"
        if not has_f_bounds(table):
            plain_tables += 1
            assert ind.valid == coind.valid, f"seed {seed}"
    assert plain_tables > 0
    _report(6, f"validity modes behave on shipped + 20 generated tables "
               f"({plain_tables} without F-bounds coincide)")


def test_criterion_7_free_cofree_structure(sample_table, sample_rel1,
                                           reduced_table, reduced_rel2):
    for table, rel in ((sample_table, sample_rel1), (reduced_table, reduced_rel2)):
        for cls in table.class_names:
            ft = free_type(table, cls)
            candidates = [t for t in rel.universe
                          if t != BOTTOM and subclass_of(table, erase(t), cls)]
            assert ft in candidates
            assert all(is_subtype(rel, t, ft) for t in candidates)
        for term in rel.universe:
            if isinstance(term, Ground) and term.args:
                assert is_subtype(rel, Cofree(term.cls), term)
        bare = build_relation(table, rel.depth, include_cofree=False)
        positions = np.array([rel.index(t) for t in bare.universe])
        assert bool((rel.edges[np.ix_(positions, positions)] == bare.edges).all())
    _report(7, "free types are greatest erasure-bounded terms; co-free atoms "
               "sit below all instantiations and extend the relation conservatively")


def test_criterion_8_determinism_and_round_trips(sample_table, sample_rel1,
                                                 reduced_table, reduced_rel2):
    for table, rel in ((sample_table, sample_rel1), (reduced_table, reduced_rel2)):
        for term, label in zip(rel.universe, rel.labels):
            assert parse_type(table, label) == term
            assert parse_type(table, format_type(term)) == term
        assert relation_from_json(table, export_json(rel)) == rel
    table_path = str(ROOT / "tables" / "sample.table")
    cmd = [sys.executable, "-m", "nomsub", "report", table_path]
    first = subprocess.run(cmd, capture_output=True, cwd=ROOT, check=True)
    second = subprocess.run(cmd, capture_output=True, cwd=ROOT, check=True)
    assert first.stdout == second.stdout
    _report(8, "print/parse and JSON round-trips hold; repeated CLI runs "
               "byte-identical")


def test_criterion_9_diagnostics_recorded(sample_table, sample_rel1, capsys):
    maxima = maximal_f_subtypes(sample_table, sample_rel1, "Enum",
                                f_subtypes(sample_table, sample_rel1, "Enum"))
    minima = minimal_f_supertypes(sample_table, sample_rel1, "List",
                                  f_supertypes(sample_table, sample_rel1, "List"))
    assert maxima.maxima
    assert minima.minima
    assert isinstance(maxima.free_type.is_member, bool)
    assert isinstance(maxima.free_type.is_greatest, bool)
    assert isinstance(minima.cofree.is_member, bool)
    assert isinstance(minima.cofree.is_least, bool)
    findings = {
        "maximal_f_subtypes(Enum)": {
            "maxima": [format_type(t, sample_table) for t in maxima.maxima],
            "free_type": {"is_member": maxima.free_type.is_member,
                          "is_greatest": maxima.free_type.is_greatest},
        },
        "minimal_f_supertypes(List)": {
            "minima": [format_type(t, sample_table) for t in minima.minima],
            "cofree": {"is_member": minima.cofree.is_member,
                       "is_least": minima.cofree.is_least},
        },
    }
    _report(9, "extremal diagnostics completed; findings: "
               + json.dumps(findings, sort_keys=True))
