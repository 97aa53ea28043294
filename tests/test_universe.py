"""Universe enumeration: contents, canonical order, depth bounds, caps."""

import re

import numpy as np
import pytest

from nomsub import (
    BOTTOM,
    Ground,
    UniverseCapExceeded,
    build_relation,
    enumerate_universe,
    format_type,
    nesting_depth,
    parse_class_table,
    parse_type,
)
from nomsub.random_tables import random_table

from nested_tables import NESTED_TABLES


def test_depth_zero_without_generics():
    table = parse_class_table("class Object\nclass String extends Object")
    universe = enumerate_universe(table, 0)
    assert set(universe) == {BOTTOM, Ground("Object"), Ground("String")}
    # depth is irrelevant without generic classes
    assert set(enumerate_universe(table, 2)) == set(universe)


def test_depth_zero_with_generics(sample_table):
    universe = set(enumerate_universe(sample_table, 0))
    assert BOTTOM in universe
    assert Ground("Weekday") in universe
    assert parse_type(sample_table, "List<!>") in universe
    # generic classes have no depth-0 instantiations
    assert all(not (isinstance(t, Ground) and t.args) for t in universe)


def test_depth_one_contents(sample_table):
    universe = set(enumerate_universe(sample_table, 1))
    for text in ("List<String>", "List<?>", "List<!>", "Enum<Weekday>",
                 "LinkedList<? extends Number>"):
        assert parse_type(sample_table, text) in universe


def test_endpoint_unordered_intervals_are_not_enumerated(sample_table):
    universe = set(enumerate_universe(sample_table, 1))
    # Object <: String fails at depth 0, so [Object..String] is not admitted
    assert parse_type(sample_table, "List<[Object..String]>") not in universe
    # the reverse is ordered and admitted
    assert parse_type(sample_table, "List<[String..Object]>") in universe


def test_monotone_in_depth(sample_table, reduced_table):
    # each stratum enumerates only the interval products of the one below,
    # which re-generate the old terms only if no edge is lost going up
    tables = ([sample_table, reduced_table]
              + [random_table(seed) for seed in range(40)]
              + [parse_class_table(text) for text in NESTED_TABLES.values()])
    for table in tables:
        for include_cofree in (True, False):
            rels = [build_relation(table, d, include_cofree=include_cofree) for d in (0, 1, 2)]
            for below, above in zip(rels, rels[1:]):
                assert set(below.universe) <= set(above.universe)
                old = np.array([above.index(t) for t in below.universe])
                assert not (below.edges & ~above.edges[np.ix_(old, old)]).any()


def test_depth_bound_holds(sample_table, reduced_table):
    for term in enumerate_universe(sample_table, 1):
        assert nesting_depth(term) <= 1
    for term in enumerate_universe(reduced_table, 2):
        assert nesting_depth(term) <= 2


def test_canonical_order_is_lexicographic_on_printed_form(sample_table):
    universe = enumerate_universe(sample_table, 1)
    labels = [format_type(t, sample_table) for t in universe]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)


def test_repeated_enumeration_is_identical(sample_table):
    assert enumerate_universe(sample_table, 1) == enumerate_universe(sample_table, 1)


def test_multi_parameter_classes_enumerate_all_argument_products():
    table = parse_class_table("class Object\nclass Pair<A, B> extends Object")
    base = enumerate_universe(table, 0)
    assert len(base) == 3  # bottom, root, co-free atom
    pairs = int(build_relation(table, 0).edges.sum())
    universe = enumerate_universe(table, 1)
    assert len(universe) == len(base) + pairs ** 2
    assert parse_type(table, "Pair<Object, ?>") in set(universe)


def test_cap_is_enforced(sample_table):
    with pytest.raises(UniverseCapExceeded):
        enumerate_universe(sample_table, 1, cap=20)
    for depth in (0, 1, 2):
        size = len(enumerate_universe(sample_table, depth))
        assert len(enumerate_universe(sample_table, depth, cap=size)) == size
        message = f"universe at depth {depth} exceeds the cap of {size - 1} terms"
        with pytest.raises(UniverseCapExceeded, match=f"^{re.escape(message)}$"):
            enumerate_universe(sample_table, depth, cap=size - 1)


def test_negative_depth_is_rejected(sample_table):
    with pytest.raises(ValueError):
        enumerate_universe(sample_table, -1)
