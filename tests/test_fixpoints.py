"""F-subtypes/F-supertypes, extremal diagnostics, and validity modes."""

import numpy as np
import pytest

from nomsub import (
    BOTTOM,
    Cofree,
    Entries,
    Ground,
    NotUnaryGeneric,
    build_relation,
    check_validity,
    exact_fixed_points,
    f_subtypes,
    f_supertypes,
    fixpoints,
    free_type,
    is_subtype,
    maximal_f_subtypes,
    minimal_f_supertypes,
    parse_class_table,
    parse_type,
    root_term,
)
from nomsub.random_tables import has_f_bounds, random_table
from nomsub.relation import decider

from nested_tables import BOUND_TABLES, named_table


class TestFSubtypes:
    def test_self_bounded_class(self, sample_table, sample_rel1):
        members = set(f_subtypes(sample_table, sample_rel1, "Enum"))
        assert Ground("Weekday") in members
        assert BOTTOM in members
        assert Ground("String") not in members

    def test_bottom_and_root_memberships(self, sample_table, sample_rel1):
        for cls in ("List", "LinkedList", "Enum"):
            assert BOTTOM in f_subtypes(sample_table, sample_rel1, cls)
            assert root_term(sample_table) in f_supertypes(sample_table, sample_rel1, cls)

    def test_plain_container(self, sample_table, sample_rel1):
        members = set(f_supertypes(sample_table, sample_rel1, "List"))
        assert Ground("Object") in members
        assert Ground("String") not in members

    def test_members_are_indices_read_as_terms(self, sample_table, sample_rel1):
        # the analyses answer in universe indices, ascending; an entry reads
        # as the universe's term at its index
        rel = sample_rel1
        members = f_subtypes(sample_table, rel, "Enum")
        assert isinstance(members, Entries) and (np.diff(members.at) > 0).all()
        terms = [rel.universe[i] for i in members.at]
        assert list(members) == terms and members == tuple(terms)
        assert members[0] is terms[0] and len(members) == len(terms)
        assert members == Entries(rel, members.at.copy())
        assert members != Entries(rel, members.at[1:])
        # a slice is Entries again, over the same universe
        assert members[1:3] == Entries(rel, members.at[1:3]) == terms[1:3]
        assert isinstance(members[:0], Entries) and len(members[:0]) == 0

    def test_requires_unary_generic(self, sample_table, sample_rel1):
        with pytest.raises(NotUnaryGeneric):
            f_subtypes(sample_table, sample_rel1, "String")
        table = parse_class_table("class Object\nclass Pair<A, B> extends Object")
        rel = build_relation(table, 1)
        with pytest.raises(NotUnaryGeneric):
            f_supertypes(table, rel, "Pair")


class TestExtremalDiagnostics:
    def test_maxima_of_self_bounded_class(self, sample_table, sample_rel1):
        members = f_subtypes(sample_table, sample_rel1, "Enum")
        report = maximal_f_subtypes(sample_table, sample_rel1, "Enum", members)
        assert set(report.maxima) <= set(members)
        assert report.maxima  # never empty: members include bottom
        # under interval desugaring the free type is not itself a coalgebra,
        # though it still dominates them all; pinned as model behavior
        assert report.free_type.is_member is False
        assert report.free_type.is_greatest is True
        assert set(report.maxima) == {Ground("Weekday"), Cofree("Enum")}

    def test_minima_of_plain_container(self, sample_table, sample_rel1):
        members = f_supertypes(sample_table, sample_rel1, "List")
        report = minimal_f_supertypes(sample_table, sample_rel1, "List", members)
        assert set(report.minima) <= set(members)
        # the co-free atom never satisfies F<Ty> <: Ty (nothing ground sits
        # below it) yet it lies below every member; pinned as model behavior
        assert report.cofree.is_member is False
        assert report.cofree.is_least is True

    def test_singleton_member_set_is_its_own_extremum(self):
        # without the co-free axioms nothing but bottom is a Box-coalgebra
        table = parse_class_table("class Object\nclass Box<T> extends Object")
        rel = build_relation(table, 0, include_cofree=False)
        members = f_subtypes(table, rel, "Box")
        report = maximal_f_subtypes(table, rel, "Box", members)
        assert set(members) == {BOTTOM}
        assert set(report.maxima) == {BOTTOM}

    def test_exact_fixed_points_are_the_intersection(self, sample_table, sample_rel1):
        for cls in ("List", "Enum"):
            subs = set(f_subtypes(sample_table, sample_rel1, cls))
            sups = set(f_supertypes(sample_table, sample_rel1, cls))
            assert set(exact_fixed_points(sample_table, sample_rel1, cls)) == subs & sups


class TestValidity:
    def test_self_bounded_instantiations(self, sample_table, sample_rel1):
        for assignment in check_validity(sample_table, sample_rel1):
            assert parse_type(sample_table, "Enum<Weekday>") in assignment.valid
            assert parse_type(sample_table, "Enum<Object>") in assignment.invalid
            assert parse_type(sample_table, "Enum<String>") in assignment.invalid

    def test_unbounded_parameters_are_always_valid(self, sample_table, sample_rel1):
        for assignment in check_validity(sample_table, sample_rel1):
            assert parse_type(sample_table, "List<String>") in assignment.valid

    def test_partition_covers_instantiations(self, sample_table, sample_rel1):
        ind, coind = check_validity(sample_table, sample_rel1)
        assert (ind.mode, coind.mode) == ("ind", "coind")
        grounds = {t for t in sample_rel1.universe if isinstance(t, Ground)}
        for assignment in (ind, coind):
            assert assignment.valid | assignment.invalid == grounds
            assert not assignment.valid & assignment.invalid

    def test_inductive_subset_of_coinductive_on_generated_tables(self):
        for seed in range(20):
            table = random_table(seed)
            rel = build_relation(table, 1)
            ind, coind = check_validity(table, rel)
            assert ind.valid <= coind.valid, f"seed {seed}"
            if not has_f_bounds(table):
                assert ind.valid == coind.valid, f"seed {seed}"

    def test_modes_coincide_without_f_bounds(self, reduced_table, reduced_rel1):
        assert not has_f_bounds(reduced_table)
        ind, coind = check_validity(reduced_table, reduced_rel1)
        assert ind.valid == coind.valid

    def test_modes_differ_on_mutually_bounded_pair(self):
        # Wrap<Unit> and Core<Unit> each depend on the other's validity: no
        # finite derivation admits them, no finite refutation removes them.
        table = parse_class_table(
            "class Object\n"
            "class Wrap<T extends Core<T>> extends Object\n"
            "class Core<T extends Wrap<T>> extends Wrap<T>\n"
            "class Unit extends Core<Unit>")
        rel = build_relation(table, 1)
        ind, coind = check_validity(table, rel)
        assert ind.valid < coind.valid
        for text in ("Wrap<Unit>", "Core<Unit>"):
            term = parse_type(table, text)
            assert term in coind.valid and term in ind.invalid

    def test_bound_tightening_never_grows_the_valid_set(self, sample_table, sample_rel1):
        tightened = parse_class_table(
            "class Object\n"
            "class Number extends Object\n"
            "class Integer extends Number\n"
            "class String extends Object\n"
            "class List<T extends Number> extends Object\n"
            "class LinkedList<T> extends List<T>\n"
            "class Enum<T extends Enum<T>> extends Object\n"
            "class Weekday extends Enum<Weekday>")
        rel = build_relation(tightened, 1)
        assert rel.universe == sample_rel1.universe  # bounds never shape the universe
        for loose, tight in zip(check_validity(sample_table, sample_rel1),
                                check_validity(tightened, rel)):
            assert tight.valid <= loose.valid
            assert parse_type(tightened, "List<String>") in tight.invalid


class TestValidityModes:
    def test_modes_differ_on_a_mutually_lower_bounded_pair(self):
        # G<Object> needs H<Object> <: Object, a lower-bound check that
        # depends on H<Object>, whose own check depends on G<Object>
        table = parse_class_table(BOUND_TABLES["mutual"])
        rel = build_relation(table, 1)
        ind, coind = check_validity(table, rel)
        assert ind.valid < coind.valid
        for text in ("G<Object>", "H<Object>"):
            term = parse_type(table, text)
            assert term in coind.valid and term in ind.invalid


# -- the analyses' depth-(d+1) questions against the depth-(d+1) relation -----

def _analyses(table, rel):
    found = {}
    for cls in table.class_names:
        if table.arity(cls) == 1:
            subs, sups = f_subtypes(table, rel, cls), f_supertypes(table, rel, cls)
            found[cls] = (subs, sups, maximal_f_subtypes(table, rel, cls, subs),
                          minimal_f_supertypes(table, rel, cls, sups))
    found["ind"], found["coind"] = (a.valid for a in check_validity(table, rel))
    return found


# the depth+1 stratum of closed with co-free atoms exceeds the row budget
ABOVE_CASES = [(name, depth, include_cofree)
               for name, depths in [("sample", (0, 1, 2)), ("reduced", (0, 1, 2)),
                                    ("closed", (2,)), ("closed_nested", (2,)),
                                    ("seed3", (0,)), ("seed17", (0,)), ("seed102", (0,)),
                                    ("nested", (0, 1)), ("mutual", (0, 1)),
                                    *((f"seed{seed}", (1,)) for seed in (*range(40), 102))]
               for depth in depths for include_cofree in (True, False)
               if (name, depth, include_cofree) != ("closed", 2, True)]


@pytest.mark.parametrize("name, depth, include_cofree", ABOVE_CASES)
def test_analyses_match_the_depth_above(name, depth, include_cofree, request, monkeypatch):
    # the reference takes the term-by-term path of a table whose chains leave
    # the universe, and answers each of its questions from the relation built
    # one level up
    table = named_table(name, request)
    rel = build_relation(table, depth, include_cofree=include_cofree)
    decided = _analyses(table, rel)
    above = build_relation(table, depth + 1, include_cofree=include_cofree)
    asked = []

    def lookup(table, depth):
        assert depth == above.depth
        return lambda t1, t2: asked.append((t1, t2)) or is_subtype(above, t1, t2)

    monkeypatch.setattr(fixpoints, "chains_stay_in_universe", lambda table, depth: False)
    monkeypatch.setattr(fixpoints, "decider", lookup)
    assert decided == _analyses(table, rel)
    assert asked or not any(table.arity(cls) == 1 for cls in table.class_names)


# the decider at depth d, as the analyses ask it one level above their
# relation, against the relation built at d: depth-0 co-free rows (Beta<!> <:
# Alpha in seed 102), nested superclass arguments, and closed ones deeper
# than the stratum below are where a stratum is not the one below extended;
# permuted and mixed exceed the row budget at depth 2
DECIDED_DEPTHS = dict.fromkeys(["nested", "nested_plain", "seed102", "sample", "reduced",
                                "closed", "closed_nested"], (1, 2))
DECIDED_DEPTHS.update(dict.fromkeys(["permuted", "mixed"], (1,)))
DECIDED_DEPTHS.update(dict.fromkeys([f"seed{seed}" for seed in range(40)], (1,)))


def _index_pairs(n, rng):
    """Every index pair of n terms where there are at most 250,000, else
    20,000 drawn from `rng`."""
    if n * n <= 250_000:
        return np.divmod(np.arange(n * n), n)
    return rng.integers(n, size=(2, 20_000))


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("name", DECIDED_DEPTHS)
def test_decider_matches_the_depth_above_pair_for_pair(name, include_cofree, request):
    table = named_table(name, request)
    for depth in DECIDED_DEPTHS[name]:
        built = build_relation(table, depth, include_cofree=include_cofree)
        decide = decider(table, depth)
        rows, cols = _index_pairs(len(built), np.random.default_rng(depth))
        terms = built.universe
        decided = [decide(terms[i], terms[j]) for i, j in zip(rows.tolist(), cols.tolist())]
        assert decided == built.related(rows, cols).tolist(), f"depth {depth}"
