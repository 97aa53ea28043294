"""Relation construction rules, queries, invariants, and export round-trips."""

import json

import numpy as np
import pytest

from nomsub import (
    BOTTOM,
    Cofree,
    EndpointOutsideUniverse,
    Ground,
    Interval,
    InvalidRelationDocument,
    SubtypeRelation,
    TermOutsideUniverse,
    build_relation,
    construction_step,
    export_dot,
    export_json,
    initial_relation,
    interval_contains,
    is_subtype,
    minimal_f_supertypes,
    mutual_pairs,
    parse_class_table,
    parse_type,
    point,
    relation_from_json,
    root_term,
    subclass_of,
    wildcard,
)
from nomsub.random_tables import random_table

from nested_tables import NESTED_TABLES


class TestConstructionStep:
    def test_first_step_adds_inheritance_edges(self, sample_table):
        rel = initial_relation(sample_table, 1)
        t1 = parse_type(sample_table, "LinkedList<String>")
        t2 = parse_type(sample_table, "List<String>")
        assert not is_subtype(rel, t1, t2)
        stepped = construction_step(sample_table, rel)
        assert is_subtype(stepped, t1, t2)
        assert stepped.iterations == rel.iterations + 1

    def test_first_step_adds_cofree_axioms(self, sample_table):
        stepped = construction_step(sample_table, initial_relation(sample_table, 1))
        assert is_subtype(stepped, Cofree("List"),
                          parse_type(sample_table, "List<? extends Number>"))

    def test_step_on_fixpoint_is_identity(self, sample_table, sample_rel1):
        again = construction_step(sample_table, sample_rel1)
        assert again == sample_rel1  # equality ignores iteration provenance

    def test_step_never_removes_edges(self, sample_table):
        rel = initial_relation(sample_table, 1)
        for _ in range(3):
            nxt = construction_step(sample_table, rel)
            assert not (rel.edges & ~nxt.edges).any()
            rel = nxt


class TestBuildRelation:
    def test_wildcard_supertype_of_all_instantiations(self, sample_rel1, sample_table):
        lhs = parse_type(sample_table, "LinkedList<String>")
        assert is_subtype(sample_rel1, lhs, parse_type(sample_table, "List<?>"))

    def test_instantiation_family(self, sample_rel1, sample_table):
        # every instantiation of the subclass sits below the superclass wildcard
        list_wild = parse_type(sample_table, "List<?>")
        for arg in ("String", "Integer", "? extends Number"):
            term = parse_type(sample_table, f"LinkedList<{arg}>")
            assert is_subtype(sample_rel1, term, list_wild)

    def test_depth_zero_matches_subclassing_on_atoms(self, sample_table, sample_rel0):
        plain = [c for c in sample_table.class_names
                 if not sample_table.decl(c).is_generic]
        for a in plain:
            for b in plain:
                assert is_subtype(sample_rel0, Ground(a), Ground(b)) == \
                    subclass_of(sample_table, a, b)

    def test_self_bounded_edges(self, sample_rel1, sample_table):
        assert is_subtype(sample_rel1, Ground("Weekday"),
                          parse_type(sample_table, "Enum<Weekday>"))
        assert is_subtype(sample_rel1, parse_type(sample_table, "Enum<Weekday>"),
                          parse_type(sample_table, "Enum<?>"))

    def test_reflexivity(self, sample_rel1):
        assert bool(np.diag(sample_rel1.edges).all())

    def test_wildcard_not_below_point(self, sample_rel1, sample_table):
        assert not is_subtype(sample_rel1, parse_type(sample_table, "List<?>"),
                              parse_type(sample_table, "List<String>"))

    def test_term_outside_universe(self, sample_rel1, sample_table):
        deep = parse_type(sample_table, "List<List<String>>")
        with pytest.raises(TermOutsideUniverse):
            is_subtype(sample_rel1, deep, deep)

    def test_iteration_count_is_bounded(self, sample_rel1, reduced_rel2):
        assert sample_rel1.iterations <= len(sample_rel1) ** 2
        assert reduced_rel2.iterations <= len(reduced_rel2) ** 2

    def test_manual_stepping_reaches_the_built_fixpoint(self, sample_table, sample_rel1):
        rel = initial_relation(sample_table, 1)
        for _ in range(sample_rel1.iterations):
            rel = construction_step(sample_table, rel)
        assert rel == sample_rel1


def _stepped_to_fixpoint(table, depth, include_cofree):
    rel = initial_relation(table, depth, include_cofree=include_cofree)
    while True:
        stepped = construction_step(table, rel)
        if stepped == rel:
            return stepped
        rel = stepped


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("name", ["sample", "reduced", "seed3", "seed17", "seed102",
                                  "seed7", "nested", "nested_plain"])
def test_direct_build_equals_the_stepped_fixpoint(name, depth, include_cofree, request):
    # seed 102 needs the co-free lift going from depth 0 to 1 (Beta<!> <:
    # Alpha only once Beta<?> exists); seed 7 has no generic class; the
    # nested tables push superclass arguments one level deeper
    if name in NESTED_TABLES:
        table = parse_class_table(NESTED_TABLES[name])
    elif name.startswith("seed"):
        table = random_table(int(name[4:]))
    else:
        table = request.getfixturevalue(f"{name}_table")
    built = build_relation(table, depth, include_cofree=include_cofree)
    stepped = _stepped_to_fixpoint(table, depth, include_cofree)
    assert stepped == built
    assert stepped.iterations == built.iterations


class TestRelationInvariants:
    def test_transitive_exhaustively(self, sample_rel1, reduced_rel2):
        for rel in (sample_rel1, reduced_rel2):
            f = rel.edges.astype(np.float32)
            assert not (((f @ f) > 0) & ~rel.edges).any()

    def test_bottom_is_least(self, sample_rel1, reduced_rel2):
        for rel in (sample_rel1, reduced_rel2):
            assert bool(rel.edges[rel.index(BOTTOM), :].all())

    def test_root_is_greatest(self, sample_table, sample_rel0, sample_rel1,
                              reduced_table, reduced_rel2):
        for table, rel in ((sample_table, sample_rel0), (sample_table, sample_rel1),
                           (reduced_table, reduced_rel2)):
            assert bool(rel.edges[:, rel.index(root_term(table))].all())

    def test_mutual_pairs_empty_on_shipped_tables(self, sample_rel1, reduced_rel2):
        assert mutual_pairs(sample_rel1) == []
        assert mutual_pairs(reduced_rel2) == []

    def test_mutual_pairs_on_single_term_relation(self):
        one = SubtypeRelation((Ground("Object"),), ("Object",),
                              np.eye(1, dtype=bool), 0, 0)
        assert mutual_pairs(one) == []

    def test_mutual_pairs_detects_injected_cycle(self, sample_rel1):
        edges = sample_rel1.edges.copy()
        i = sample_rel1.index(Ground("String"))
        j = sample_rel1.index(Ground("Number"))
        edges[i, j] = edges[j, i] = True
        doctored = SubtypeRelation(sample_rel1.universe, sample_rel1.labels,
                                   edges, 0, sample_rel1.depth)
        assert (Ground("Number"), Ground("String")) in mutual_pairs(doctored)


class TestIntervalContains:
    def test_point_inside_wildcard(self, sample_rel1, sample_table):
        inner = point(Ground("String"))
        assert interval_contains(sample_rel1, inner, wildcard(sample_table))

    def test_reflexive(self, sample_rel1):
        iv = point(Ground("String"))
        assert interval_contains(sample_rel1, iv, iv)

    def test_upper_endpoint_ordering(self, sample_rel1):
        inner = Interval(BOTTOM, Ground("Integer"))
        outer = Interval(BOTTOM, Ground("Number"))
        assert interval_contains(sample_rel1, inner, outer)
        assert not interval_contains(sample_rel1, outer, inner)

    def test_endpoint_outside_universe(self, sample_rel1, sample_table):
        deep = parse_type(sample_table, "List<List<String>>")
        with pytest.raises(EndpointOutsideUniverse):
            interval_contains(sample_rel1, point(deep), point(deep))

    def test_containment_is_a_preorder(self, sample_table, sample_rel1):
        # every ordered endpoint pair of the depth-0 fragment is an interval
        atoms = [t for t in sample_rel1.universe
                 if t == BOTTOM or not (isinstance(t, Ground) and t.args)]
        intervals = [Interval(a, b) for a in atoms for b in atoms
                     if is_subtype(sample_rel1, a, b)]
        inside = {
            (i, j): interval_contains(sample_rel1, a, b)
            for i, a in enumerate(intervals)
            for j, b in enumerate(intervals)
        }
        for i in range(len(intervals)):
            assert inside[i, i]
        for (i, j), ij in inside.items():
            if not ij:
                continue
            for k in range(len(intervals)):
                if inside[j, k]:
                    assert inside[i, k]


class TestCofreeAxioms:
    def test_below_every_instantiation_of_its_class(self, sample_rel1, sample_table):
        atom = Cofree("List")
        for term in sample_rel1.universe:
            if isinstance(term, Ground) and term.cls == "List":
                assert is_subtype(sample_rel1, atom, term)

    def test_between_cofree_atoms_along_subclassing(self, sample_rel1):
        assert is_subtype(sample_rel1, Cofree("LinkedList"), Cofree("List"))
        assert not is_subtype(sample_rel1, Cofree("List"), Cofree("LinkedList"))
        assert not is_subtype(sample_rel1, Cofree("List"), Cofree("Enum"))

    def test_no_ground_below_cofree(self, sample_rel1):
        i = sample_rel1.index(Cofree("List"))
        for j, term in enumerate(sample_rel1.universe):
            if sample_rel1.edges[j, i]:
                assert isinstance(term, Cofree) or term == BOTTOM

    def test_removing_axioms_keeps_ground_edges(self, sample_table, sample_rel1):
        # the extension-free build drops the co-free atoms (and the terms
        # quantifying over them) but decides every remaining pair identically
        bare = build_relation(sample_table, 1, include_cofree=False)
        assert all(not isinstance(t, Cofree) for t in bare.universe)
        assert set(bare.universe) < set(sample_rel1.universe)
        positions = np.array([sample_rel1.index(t) for t in bare.universe])
        shared = sample_rel1.edges[np.ix_(positions, positions)]
        assert bool((shared == bare.edges).all())


class TestExport:
    def test_json_roundtrip(self, sample_table, sample_rel1):
        rebuilt = relation_from_json(sample_table, export_json(sample_rel1))
        assert rebuilt == sample_rel1

    def test_json_roundtrip_keeps_build_flags(self, sample_table):
        bare = build_relation(sample_table, 1, cap=20_000, include_cofree=False)
        rebuilt = relation_from_json(sample_table, export_json(bare))
        assert rebuilt.include_cofree is False
        assert rebuilt == bare
        # the depth+1 analyses must run without co-free atoms too
        assert (minimal_f_supertypes(sample_table, rebuilt, "List").cofree
                == minimal_f_supertypes(sample_table, bare, "List").cofree)

    def test_json_without_build_flags_loads_with_defaults(self, sample_table, sample_rel1):
        doc = json.loads(export_json(sample_rel1))
        del doc["include_cofree"]
        rebuilt = relation_from_json(sample_table, json.dumps(doc))
        assert rebuilt.include_cofree is True
        assert rebuilt == sample_rel1

    def test_json_with_a_cap_key_still_loads(self, sample_table, sample_rel1):
        # files written by older versions carry the universe cap; it is ignored
        doc = json.loads(export_json(sample_rel1))
        assert "cap" not in doc
        doc["cap"] = 20_000
        assert relation_from_json(sample_table, json.dumps(doc)) == sample_rel1

    def test_equality_compares_include_cofree_not_cap(self, sample_rel1):
        def variant(**flags):
            return SubtypeRelation(sample_rel1.universe, sample_rel1.labels,
                                   sample_rel1.edges.copy(), 0, sample_rel1.depth, **flags)

        assert variant() == sample_rel1
        assert variant(include_cofree=False) != sample_rel1

    def test_json_is_deterministic(self, sample_rel1):
        assert export_json(sample_rel1) == export_json(sample_rel1)

    @pytest.mark.parametrize("depth, include_cofree", [(1, True), (2, True), (2, False)])
    def test_json_text_is_that_of_the_json_encoder(self, sample_table, depth, include_cofree):
        rel = build_relation(sample_table, depth, include_cofree=include_cofree)
        doc = {"depth": rel.depth, "include_cofree": rel.include_cofree,
               "universe": list(rel.labels), "edges": np.argwhere(rel.edges).tolist()}
        assert export_json(rel) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_json_negative_edge_index_is_rejected(self, sample_table, sample_rel1):
        doc = json.loads(export_json(sample_rel1))
        doc["edges"].append([-1, 0])
        bad = len(doc["edges"]) - 1
        with pytest.raises(InvalidRelationDocument, match=rf"edge {bad} \[-1, 0\]"):
            relation_from_json(sample_table, json.dumps(doc))

    def test_json_edge_index_past_the_universe_is_rejected(self, sample_table, sample_rel1):
        doc = json.loads(export_json(sample_rel1))
        doc["edges"].insert(0, [99, 0])
        with pytest.raises(InvalidRelationDocument,
                           match=rf"edge 0 \[99, 0\] .* universe of {len(sample_rel1)} terms"):
            relation_from_json(sample_table, json.dumps(doc))

    def test_json_repeated_universe_label_is_rejected(self, sample_table, sample_rel1):
        doc = json.loads(export_json(sample_rel1))
        doc["universe"].append(doc["universe"][3])
        with pytest.raises(InvalidRelationDocument,
                           match=rf"universe entry {len(sample_rel1)} .* repeats entry 3"):
            relation_from_json(sample_table, json.dumps(doc))

    def test_dot_two_type_chain(self):
        table = parse_class_table("class Object\nclass String extends Object")
        dot = export_dot(build_relation(table, 0))
        assert dot.count("->") == 2  # Null -> String -> Object, reduced
        assert '"String" -> "Object";' in dot
        assert '"Null" -> "String";' in dot

    def test_dot_is_transitively_reduced(self, sample_rel0):
        dot = export_dot(sample_rel0)
        assert '"Integer" -> "Number";' in dot
        assert '"Integer" -> "Object";' not in dot


def test_queries_tolerate_no_bottom_universe(sample_table):
    # a relation restricted by hand may omit bottom; mutual_pairs still works
    rel = build_relation(sample_table, 0)
    assert (BOTTOM, Ground("Object")) not in mutual_pairs(rel)
