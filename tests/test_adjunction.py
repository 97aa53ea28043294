"""The erasure/free-type adjunction: grid condition, closure laws,
monotonicity, and closed types."""

import numpy as np
import pytest

from nomsub import (
    BOTTOM,
    BottomHasNoErasure,
    FreeTypeOutsideUniverse,
    Ground,
    SubtypeRelation,
    build_relation,
    check_galois,
    check_monotonicity,
    closed_types,
    closure_class,
    closure_type,
    erase,
    free_type,
    is_subtype,
    parse_class_table,
    parse_type,
    subclass_of,
)
from nomsub import relation as relation_module


class TestGalois:
    def test_sample_table_is_exhaustively_clean(self, sample_table, sample_rel1):
        report = check_galois(sample_table, sample_rel1)
        assert report.violations == []
        assert report.cofree_violations == []
        assert report.bottom_skipped == 1
        universe_wo_bottom = len(sample_rel1) - 1
        assert report.checked_pairs == universe_wo_bottom * len(sample_table.class_names)

    def test_reduced_table_depth_two(self, reduced_table, reduced_rel2):
        report = check_galois(reduced_table, reduced_rel2)
        assert report.fully_ok

    def test_sample_table_depth_two(self, sample_table, sample_rel2):
        report = check_galois(sample_table, sample_rel2)
        assert report.fully_ok
        assert report.checked_pairs == (len(sample_rel2) - 1) * 8

    def test_single_class_table(self):
        table = parse_class_table("class Object")
        report = check_galois(table, build_relation(table, 0))
        assert report.checked_pairs == 1
        assert report.fully_ok

    def test_both_sides_hold_for_a_known_instance(self, sample_table, sample_rel1):
        term = parse_type(sample_table, "LinkedList<String>")
        assert subclass_of(sample_table, erase(term), "List")
        assert is_subtype(sample_rel1, term, free_type(sample_table, "List"))

    def test_needs_free_types_in_universe(self, sample_table, sample_rel0):
        with pytest.raises(FreeTypeOutsideUniverse):
            check_galois(sample_table, sample_rel0)

    def test_detects_doctored_relation(self, sample_table, sample_rel1):
        # drop one subtype edge: the left-to-right direction must flag it
        edges = sample_rel1.edges.copy()
        i = sample_rel1.index(parse_type(sample_table, "LinkedList<String>"))
        j = sample_rel1.index(parse_type(sample_table, "List<?>"))
        edges[i, j] = False
        doctored = SubtypeRelation(sample_rel1.space, np.packbits(edges, axis=1), 0)
        report = check_galois(sample_table, doctored)
        assert any(v.direction == "left-to-right" and v.cls == "List"
                   for v in report.violations)

    def test_valid_quantification(self, sample_table, sample_rel1):
        report = check_galois(sample_table, sample_rel1, quantify="valid")
        assert report.fully_ok
        full = check_galois(sample_table, sample_rel1)
        assert report.checked_pairs < full.checked_pairs

    def test_rejects_unknown_quantifier(self, sample_table, sample_rel1):
        with pytest.raises(ValueError):
            check_galois(sample_table, sample_rel1, quantify="everything")

    def test_checks_the_quantifier_before_the_free_types(self, sample_table, sample_rel0):
        # depth 0 has no free type, so a late check would raise
        # FreeTypeOutsideUniverse instead
        with pytest.raises(ValueError, match="quantify must be"):
            check_galois(sample_table, sample_rel0, quantify="bogus")


class TestClosureLaws:
    def test_unit_law_examples(self, sample_table, sample_rel1):
        closed, holds = closure_type(sample_table, sample_rel1,
                                     parse_type(sample_table, "List<String>"))
        assert closed == parse_type(sample_table, "List<?>")
        assert holds

    def test_free_types_are_fixed_points(self, sample_table, sample_rel1):
        wild = parse_type(sample_table, "List<?>")
        assert closure_type(sample_table, sample_rel1, wild) == (wild, True)

    def test_self_bounded_instance(self, sample_table, sample_rel1):
        closed, holds = closure_type(sample_table, sample_rel1,
                                     parse_type(sample_table, "Enum<Weekday>"))
        assert closed == parse_type(sample_table, "Enum<?>")
        assert holds

    def test_unit_law_everywhere(self, sample_table, sample_rel1):
        for term in sample_rel1.universe:
            if term == BOTTOM:
                continue
            _, holds = closure_type(sample_table, sample_rel1, term)
            assert holds, term

    def test_bottom_is_rejected(self, sample_table, sample_rel1):
        with pytest.raises(BottomHasNoErasure):
            closure_type(sample_table, sample_rel1, BOTTOM)

    def test_counit_law_on_every_class(self, sample_table):
        for name in sample_table.class_names:
            assert closure_class(sample_table, name) == (name, True)

    def test_idempotence(self, sample_table, sample_rel1):
        for term in sample_rel1.universe:
            if term == BOTTOM:
                continue
            once, _ = closure_type(sample_table, sample_rel1, term)
            twice, _ = closure_type(sample_table, sample_rel1, once)
            assert twice == once


class TestClosedTypes:
    def test_exactly_the_free_types(self, sample_table, sample_rel1):
        expected = frozenset(free_type(sample_table, c)
                             for c in sample_table.class_names)
        assert closed_types(sample_rel1, sample_table) == expected

    def test_membership_examples(self, sample_table, sample_rel1):
        closed = closed_types(sample_rel1, sample_table)
        assert parse_type(sample_table, "List<?>") in closed
        assert parse_type(sample_table, "Enum<?>") in closed
        assert Ground("String") in closed
        assert parse_type(sample_table, "List<String>") not in closed


class TestMonotonicity:
    def test_clean_on_shipped_tables(self, sample_table, sample_rel1,
                                     reduced_table, reduced_rel1, reduced_rel2):
        for table, rel in ((sample_table, sample_rel1),
                           (reduced_table, reduced_rel1),
                           (reduced_table, reduced_rel2)):
            report = check_monotonicity(table, rel)
            assert report.erasure_ok and report.free_type_ok
            assert report.erasure_witnesses == []
            assert report.free_type_witnesses == []

    def test_free_type_map_on_a_subclass_pair(self, sample_table, sample_rel1):
        assert is_subtype(sample_rel1, free_type(sample_table, "LinkedList"),
                          free_type(sample_table, "List"))

    def test_detects_doctored_relation(self, sample_table, sample_rel1):
        # an edge from a List instantiation into a String-erasure term breaks
        # erasure monotonicity because List does not subclass String
        edges = sample_rel1.edges.copy()
        i = sample_rel1.index(parse_type(sample_table, "List<String>"))
        j = sample_rel1.index(Ground("String"))
        edges[i, j] = True
        doctored = SubtypeRelation(sample_rel1.space, np.packbits(edges, axis=1), 0)
        report = check_monotonicity(sample_table, doctored)
        assert not report.erasure_ok

    def test_witnesses_in_two_bands_come_in_row_order(self, sample_table, sample_rel1,
                                                       monkeypatch):
        # String <: Integer and List<String> <: String, in two bands of at
        # most eight rows; the scan must list them as a per-row scan does
        rel, u = sample_rel1, sample_rel1.universe
        edges = rel.edges.copy()
        for sub, sup in (("String", "Integer"), ("List<String>", "String")):
            edges[rel.index(parse_type(sample_table, sub)),
                  rel.index(parse_type(sample_table, sup))] = True
        doctored = SubtypeRelation(rel.space, np.packbits(edges, axis=1), 0)
        monkeypatch.setattr(relation_module, "_BAND_BYTES", 8 * rel.bits.shape[1])
        scanned, set_bits = [], relation_module._set_bits
        monkeypatch.setattr(relation_module, "_set_bits",
                            lambda bits: scanned.append(len(bits)) or set_bits(bits))
        per_row = [(u[i], u[j]) for i in range(len(u)) if u[i] != BOTTOM
                   for j in np.flatnonzero(edges[i])
                   if not subclass_of(sample_table, erase(u[i]), erase(u[j]))]
        assert len({rel.index(t) // 8 for t, _ in per_row}) == 2
        report = check_monotonicity(sample_table, doctored)
        assert report.erasure_witnesses == per_row
        assert len(scanned) == 2 and max(scanned) <= 8  # the two bands that hold one


class TestAdjointUniqueness:
    def test_free_type_is_greatest_with_bounded_erasure(self, sample_table, sample_rel1):
        for cls in sample_table.class_names:
            ft = free_type(sample_table, cls)
            candidates = [t for t in sample_rel1.universe
                          if t != BOTTOM and subclass_of(sample_table, erase(t), cls)]
            assert ft in candidates
            for t in candidates:
                assert is_subtype(sample_rel1, t, ft)
