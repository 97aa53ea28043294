"""F-subtypes/F-supertypes, extremal diagnostics, and validity modes."""

import itertools

import pytest

from nomsub import (
    BOTTOM,
    Cofree,
    Ground,
    NotUnaryGeneric,
    build_relation,
    check_validity,
    check_validity_modes,
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

from nested_tables import NESTED_TABLES


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

    def test_requires_unary_generic(self, sample_table, sample_rel1):
        with pytest.raises(NotUnaryGeneric):
            f_subtypes(sample_table, sample_rel1, "String")
        table = parse_class_table("class Object\nclass Pair<A, B> extends Object")
        rel = build_relation(table, 1)
        with pytest.raises(NotUnaryGeneric):
            f_supertypes(table, rel, "Pair")


class TestExtremalDiagnostics:
    def test_maxima_of_self_bounded_class(self, sample_table, sample_rel1):
        report = maximal_f_subtypes(sample_table, sample_rel1, "Enum")
        members = set(f_subtypes(sample_table, sample_rel1, "Enum"))
        assert set(report.maxima) <= members
        assert report.maxima  # never empty: members include bottom
        # under interval desugaring the free type is not itself a coalgebra,
        # though it still dominates them all; pinned as model behavior
        assert report.free_type.is_member is False
        assert report.free_type.is_greatest is True
        assert set(report.maxima) == {Ground("Weekday"), Cofree("Enum")}

    def test_minima_of_plain_container(self, sample_table, sample_rel1):
        report = minimal_f_supertypes(sample_table, sample_rel1, "List")
        members = set(f_supertypes(sample_table, sample_rel1, "List"))
        assert set(report.minima) <= members
        # the co-free atom never satisfies F<Ty> <: Ty (nothing ground sits
        # below it) yet it lies below every member; pinned as model behavior
        assert report.cofree.is_member is False
        assert report.cofree.is_least is True

    def test_singleton_member_set_is_its_own_extremum(self):
        # without the co-free axioms nothing but bottom is a Box-coalgebra
        table = parse_class_table("class Object\nclass Box<T> extends Object")
        rel = build_relation(table, 0, include_cofree=False)
        report = maximal_f_subtypes(table, rel, "Box")
        assert set(f_subtypes(table, rel, "Box")) == {BOTTOM}
        assert set(report.maxima) == {BOTTOM}

    def test_exact_fixed_points_are_the_intersection(self, sample_table, sample_rel1):
        for cls in ("List", "Enum"):
            subs = set(f_subtypes(sample_table, sample_rel1, cls))
            sups = set(f_supertypes(sample_table, sample_rel1, cls))
            assert set(exact_fixed_points(sample_table, sample_rel1, cls)) == subs & sups


class TestValidity:
    def test_self_bounded_instantiations(self, sample_table, sample_rel1):
        for mode in ("ind", "coind"):
            assignment = check_validity(sample_table, sample_rel1, mode)
            assert parse_type(sample_table, "Enum<Weekday>") in assignment.valid
            assert parse_type(sample_table, "Enum<Object>") in assignment.invalid
            assert parse_type(sample_table, "Enum<String>") in assignment.invalid

    def test_unbounded_parameters_are_always_valid(self, sample_table, sample_rel1):
        for mode in ("ind", "coind"):
            assignment = check_validity(sample_table, sample_rel1, mode)
            assert parse_type(sample_table, "List<String>") in assignment.valid

    def test_partition_covers_instantiations(self, sample_table, sample_rel1):
        assignment = check_validity(sample_table, sample_rel1, "ind")
        grounds = {t for t in sample_rel1.universe if isinstance(t, Ground)}
        assert assignment.valid | assignment.invalid == grounds
        assert not assignment.valid & assignment.invalid

    def test_inductive_subset_of_coinductive_on_generated_tables(self):
        for seed in range(20):
            table = random_table(seed)
            rel = build_relation(table, 1)
            ind = check_validity(table, rel, "ind")
            coind = check_validity(table, rel, "coind")
            # both modes from one pass of bound checks
            assert check_validity_modes(table, rel) == (ind, coind), f"seed {seed}"
            assert ind.valid <= coind.valid, f"seed {seed}"
            if not has_f_bounds(table):
                assert ind.valid == coind.valid, f"seed {seed}"

    def test_modes_coincide_without_f_bounds(self, reduced_table, reduced_rel1):
        assert not has_f_bounds(reduced_table)
        ind = check_validity(reduced_table, reduced_rel1, "ind")
        coind = check_validity(reduced_table, reduced_rel1, "coind")
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
        ind = check_validity(table, rel, "ind")
        coind = check_validity(table, rel, "coind")
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
        for mode in ("ind", "coind"):
            loose = check_validity(sample_table, sample_rel1, mode)
            tight = check_validity(tightened, rel, mode)
            assert tight.valid <= loose.valid
            assert parse_type(tightened, "List<String>") in tight.invalid

    def test_rejects_unknown_mode(self, sample_table, sample_rel1):
        with pytest.raises(ValueError):
            check_validity(sample_table, sample_rel1, "both")


class TestValidityModes:
    def test_modes_differ_on_a_mutually_lower_bounded_pair(self):
        # G<Object> needs H<Object> <: Object, a lower-bound check that
        # depends on H<Object>, whose own check depends on G<Object>
        table = parse_class_table(
            "class Object\n"
            "class Str extends Object\n"
            "class G<T super H<T>> extends Object\n"
            "class H<T super G<T>> extends Object")
        rel = build_relation(table, 1)
        ind, coind = check_validity_modes(table, rel)
        assert ind.valid < coind.valid
        for text in ("G<Object>", "H<Object>"):
            term = parse_type(table, text)
            assert term in coind.valid and term in ind.invalid


# -- the depth-(d+1) decider against the depth-(d+1) relation -----------------

def _one_deeper_by_lookup(table, rel):
    """The reference path: answers read from the whole depth-(d+1) relation."""
    above = build_relation(table, rel.depth + 1, include_cofree=rel.include_cofree)
    return lambda t1, t2: is_subtype(above, t1, t2)


def _analyses(table, rel):
    found = {}
    for cls in table.class_names:
        if table.arity(cls) == 1:
            found[cls] = (f_subtypes(table, rel, cls), f_supertypes(table, rel, cls),
                          maximal_f_subtypes(table, rel, cls),
                          minimal_f_supertypes(table, rel, cls))
    for mode in ("ind", "coind"):
        found[mode] = check_validity(table, rel, mode).valid
    return found


def _table(name, request):
    if name == "nested":
        return parse_class_table(NESTED_TABLES[name])
    if name.startswith("seed"):
        return random_table(int(name[4:]))
    return request.getfixturevalue(f"{name}_table")


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("name, depth", [
    ("sample", 0), ("sample", 1), ("reduced", 0), ("reduced", 1),
    ("seed3", 0), ("seed3", 1), ("seed17", 0), ("seed17", 1),
    ("seed102", 0), ("seed102", 1), ("nested", 0), ("nested", 1)])
def test_analyses_match_the_depth_above(name, depth, include_cofree, request, monkeypatch):
    table = _table(name, request)
    rel = build_relation(table, depth, include_cofree=include_cofree)
    decided = _analyses(table, rel)
    monkeypatch.setattr(fixpoints, "_one_deeper", _one_deeper_by_lookup)
    assert decided == _analyses(table, rel)


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("name", ["nested", "seed102"])
def test_decider_matches_the_depth_above_pair_for_pair(name, include_cofree, request):
    # depth-0 co-free rows (Beta<!> <: Alpha in seed 102) and nested
    # superclass arguments are where the depth-1 relation is not the
    # depth-0 one extended
    table = _table(name, request)
    rel = build_relation(table, 0, include_cofree=include_cofree)
    above = build_relation(table, 1, include_cofree=include_cofree)
    decide = fixpoints._one_deeper(table, rel)
    for t1, t2 in itertools.product(above.universe, repeat=2):
        assert decide(t1, t2) == is_subtype(above, t1, t2), (t1, t2)
