"""Differential check: the naive recursive oracle must agree with the
constructed relation on every pair of the shipped tables' and random
tables' small universes, and on seeded samples of the depth-3 ones."""

import itertools

import numpy as np
import pytest

from nomsub import build_relation, format_type, is_subtype, parse_class_table, parse_type
from nomsub.random_tables import random_table

from nested_tables import INDEX_TABLES, NESTED_TABLES
from oracle import Oracle


def _disagreements(table, rel):
    oracle = Oracle(table, rel.universe)
    bad = []
    for t1, t2 in itertools.product(rel.universe, repeat=2):
        if is_subtype(rel, t1, t2) != oracle.is_subtype(t1, t2):
            bad.append((format_type(t1, table), format_type(t2, table)))
    return bad


def _sample(table, rel, rows, per_run, pairs, across=0):
    """Seeded pairs of `rel` as two index arrays: every edge of `rows` rows,
    `per_run` pairs inside each generic class's run, `across` pairs from
    each generic run to the run of each generic strict ancestor, and
    `pairs` pairs of the universe.  Random pairs are almost all non-edges,
    so the rows and the runs sample edges on purpose, and a chain member
    that the build skips shows across runs."""
    rng, n, runs = np.random.default_rng(0), len(rel), rel.space.runs
    picked = rng.choice(n, size=min(rows, n), replace=False)
    k, sup = np.nonzero(rel.related(picked[:, None], np.arange(n)))
    subs, sups = [picked[k]], [sup]
    for cls, (start, stop, ends, _position) in runs.items():
        if ends is not None:
            subs.append(rng.integers(start, stop, per_run))
            sups.append(rng.integers(start, stop, per_run))
            for above in table.ancestors(cls)[1:]:
                if above in rel.space.ends:
                    subs.append(rng.integers(start, stop, across))
                    sups.append(rng.integers(*runs[above][:2], across))
    subs.append(rng.integers(0, n, pairs))
    sups.append(rng.integers(0, n, pairs))
    return np.concatenate(subs), np.concatenate(sups)


def _sampled_disagreements(table, rel, *sizes):
    """The pairs, as labels, of _sample(table, rel, *sizes) on which the
    relation and the oracle differ."""
    sub, sup = _sample(table, rel, *sizes)
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


def _factored_is_the_rows(table, rel, *sizes):
    """Whether `rel`, which has made no rows yet, answers the pairs of
    _sample(table, rel, *sizes), and draws them, alike from its factored
    form and from the rows that it then makes."""
    made = rel._packed is not None
    sub, sup = _sample(table, rel, *sizes)
    factored = rel.related(sub, sup)
    made |= rel._packed is not None
    rel.bits  # made here, on first read
    again = _sample(table, rel, *sizes)
    return (not made and all(np.array_equal(a, b) for a, b in zip((sub, sup), again))
            and np.array_equal(rel.related(sub, sup), factored))


@pytest.mark.parametrize("include_cofree", [True, False])
def test_sampled_agreement_at_reduced_depth_three(reduced_table, include_cofree):
    # the top rung of the ladder (26,147 terms, 4,497 without co-free atoms),
    # answered from the factored form, whose answers the rows then repeat
    rel = build_relation(reduced_table, 3, include_cofree=include_cofree)
    assert len(rel) == (26147 if include_cofree else 4497)
    assert _sampled_disagreements(reduced_table, rel, 40, 3000, 5000) == []
    assert _factored_is_the_rows(reduced_table, rel, 40, 3000, 5000)


@pytest.mark.parametrize("include_cofree", [True, False])
def test_sampled_agreement_at_sample_depth_three(sample_table, include_cofree):
    # the next rung (140,463 terms, 50,010 without co-free atoms), answered
    # from the factored form alone: its rows would take 2.47 GB
    rel = build_relation(sample_table, 3, include_cofree=include_cofree)
    assert len(rel) == (140463 if include_cofree else 50010)
    assert _sampled_disagreements(sample_table, rel, 40, 3000, 5000) == []
    assert rel._packed is None


# seeds 0-9 only: seeds 0-19 take about 6 s, too long for the tier-1 suite
@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_sampled_agreement_on_random_tables_at_depth_three(seed, include_cofree):
    table = random_table(seed)
    rel = build_relation(table, 3, include_cofree=include_cofree)
    assert _sampled_disagreements(table, rel, 8, 0, 500) == []
    assert _factored_is_the_rows(table, rel, 8, 0, 500)


# The tables of the first CHANGES.md FOUND: line (line 4: a superclass
# argument that nests a parameter) and of line 28 (a closed one deeper than
# the stratum below): the build skips chain members deeper than the
# universe, and the oracle does not, so a sample that meets such a pair
# disagrees.  Samples across runs find them; the cases whose seeded sample
# meets none pass.  Depth 3 is sampled without co-free atoms only (1,946 to
# 15,178 terms, against 34,880 to 75,481 with them), to keep the suite short.
_SKIPPED_CHAINS = pytest.mark.xfail(
    strict=True, reason="the build skips chain members deeper than the universe "
                        "(CHANGES.md FOUND: lines 4 and 28)")
_DISAGREE = {("nested_plain", 2, True), ("nested_plain", 2, False), ("nested", 2, True),
             ("nested", 2, False), ("closed_nested", 2, True), ("nested_plain", 3, False),
             ("nested", 3, False)}


@pytest.mark.parametrize("name, depth, include_cofree", [
    pytest.param(*case, marks=[_SKIPPED_CHAINS] if case in _DISAGREE else [])
    for case in [(name, 2, include_cofree) for name in ("nested_plain", "nested", "closed_nested")
                 for include_cofree in (True, False)]
    + [(name, 3, False) for name in ("nested_plain", "nested", "closed_nested")]])
def test_sampled_agreement_on_tables_whose_chains_leave_the_universe(name, depth,
                                                                    include_cofree):
    table = parse_class_table({**NESTED_TABLES, **INDEX_TABLES}[name])
    rel = build_relation(table, depth, include_cofree=include_cofree)
    assert _sampled_disagreements(table, rel, 8, 1000, 500, 3000) == []


def test_oracle_spot_checks(sample_table, sample_rel1):
    oracle = Oracle(sample_table, sample_rel1.universe)

    def t(text):
        return parse_type(sample_table, text)

    assert oracle.is_subtype(t("LinkedList<String>"), t("List<?>"))
    assert not oracle.is_subtype(t("List<?>"), t("List<String>"))
    assert oracle.is_subtype(t("Weekday"), t("Enum<Weekday>"))
