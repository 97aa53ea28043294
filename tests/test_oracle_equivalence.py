"""Differential check: the naive recursive oracle must agree with the
constructed relation on every pair of the shipped tables' and random
tables' small universes, and on seeded samples of the depth-3 ones."""

import itertools

import numpy as np
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


def _sampled_disagreements(table, rel, rows, per_run, pairs):
    """The pairs, as labels, on which the relation and the oracle differ
    among every edge of `rows` seeded rows, `per_run` seeded pairs inside
    each generic class's run, and `pairs` seeded pairs of the universe.
    Random pairs are almost all non-edges, so the rows and the runs sample
    edges on purpose."""
    rng, n = np.random.default_rng(0), len(rel)
    picked = rng.choice(n, size=min(rows, n), replace=False)
    k, sup = np.nonzero(rel.related(picked[:, None], np.arange(n)))
    subs, sups = [picked[k]], [sup]
    for start, stop, ends, _position in rel.space.runs.values():
        if ends is not None:
            subs.append(rng.integers(start, stop, per_run))
            sups.append(rng.integers(start, stop, per_run))
    subs.append(rng.integers(0, n, pairs))
    sups.append(rng.integers(0, n, pairs))
    sub, sup = np.concatenate(subs), np.concatenate(sups)
    oracle, u = Oracle(table, rel.universe), rel.universe
    return [(rel.labels[i], rel.labels[j])
            for i, j, related in zip(sub.tolist(), sup.tolist(), rel.related(sub, sup).tolist())
            if oracle.is_subtype(u[i], u[j]) != related]


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


@pytest.mark.parametrize("include_cofree", [True, False])
def test_sampled_agreement_at_reduced_depth_three(reduced_table, include_cofree):
    # the top rung of the ladder (26,147 terms, 4,497 without co-free atoms)
    rel = build_relation(reduced_table, 3, include_cofree=include_cofree)
    assert len(rel) == (26147 if include_cofree else 4497)
    assert _sampled_disagreements(reduced_table, rel, 40, 3000, 5000) == []


# seeds 0-9 only: seeds 0-19 take about 6 s, too long for the tier-1 suite
@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_sampled_agreement_on_random_tables_at_depth_three(seed, include_cofree):
    table = random_table(seed)
    rel = build_relation(table, 3, include_cofree=include_cofree)
    assert _sampled_disagreements(table, rel, 8, 0, 500) == []


def test_oracle_spot_checks(sample_table, sample_rel1):
    oracle = Oracle(sample_table, sample_rel1.universe)

    def t(text):
        return parse_type(sample_table, text)

    assert oracle.is_subtype(t("LinkedList<String>"), t("List<?>"))
    assert not oracle.is_subtype(t("List<?>"), t("List<String>"))
    assert oracle.is_subtype(t("Weekday"), t("Enum<Weekday>"))
