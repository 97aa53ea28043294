"""Differential check: the naive recursive oracle must agree with the
constructed relation on every pair of the shipped tables' and random
tables' small universes."""

import itertools

import pytest

from nomsub import build_relation, format_type, is_subtype, parse_type
from nomsub.random_tables import random_table

from oracle import Oracle


def _disagreements(table, rel):
    oracle = Oracle(table, rel.universe)
    bad = []
    for t1, t2 in itertools.product(rel.universe, repeat=2):
        if is_subtype(rel, t1, t2) != oracle.is_subtype(t1, t2):
            bad.append((format_type(t1, table), format_type(t2, table)))
    return bad


def test_agreement_at_depth_zero(sample_table, sample_rel0):
    assert _disagreements(sample_table, sample_rel0) == []


def test_agreement_at_depth_one(sample_table, sample_rel1):
    assert _disagreements(sample_table, sample_rel1) == []


def test_agreement_on_reduced_table(reduced_table, reduced_rel1):
    assert _disagreements(reduced_table, reduced_rel1) == []


@pytest.mark.parametrize("seed", range(200))
def test_agreement_on_random_tables(seed):
    table = random_table(seed)
    for depth in (0, 1):
        assert _disagreements(table, build_relation(table, depth)) == [], f"depth {depth}"


def test_oracle_spot_checks(sample_table, sample_rel1):
    oracle = Oracle(sample_table, sample_rel1.universe)

    def t(text):
        return parse_type(sample_table, text)

    assert oracle.is_subtype(t("LinkedList<String>"), t("List<?>"))
    assert not oracle.is_subtype(t("List<?>"), t("List<String>"))
    assert oracle.is_subtype(t("Weekday"), t("Enum<Weekday>"))
