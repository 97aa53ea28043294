"""Class-table parsing, validation, and the subclassing relation."""

import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from nomsub import (
    ClassDecl,
    ClassTable,
    ParseError,
    TypeParam,
    TypeUse,
    UnknownClass,
    ValidationError,
    format_class_table,
    parse_class_table,
    subclass_of,
)
from nomsub.random_tables import random_table


def test_minimal_table():
    table = parse_class_table("class Object\nclass List<T> extends Object")
    assert len(table.decls) == 2
    assert table.root == "Object"
    assert table.decl("List").arity == 1


def test_self_bounded_parameter_is_accepted():
    table = parse_class_table(
        "class Object\nclass Enum<T extends Enum<T>> extends Object")
    bound = table.decl("Enum").params[0].upper_bound
    assert bound == TypeUse("Enum", (TypeUse("T"),))


def test_whitespace_and_comments_are_insignificant():
    table = parse_class_table(
        "// header\nclass Object class List<T>extends Object//tail")
    assert set(table.class_names) == {"Object", "List"}


def test_forward_and_self_references_resolve():
    table = parse_class_table(
        "class Object\nclass Weekday extends Enum<Weekday>\n"
        "class Enum<T extends Enum<T>> extends Object")
    assert subclass_of(table, "Weekday", "Enum")


def test_extends_cycle_is_rejected():
    with pytest.raises(ValidationError, match="cycle"):
        parse_class_table("class A extends B\nclass B extends A")


def test_duplicate_class_is_rejected():
    with pytest.raises(ValidationError, match="duplicate class"):
        parse_class_table("class Object\nclass Object")


def test_duplicate_param_is_rejected():
    with pytest.raises(ValidationError, match="duplicate parameter"):
        parse_class_table("class Object\nclass Pair<T, T> extends Object")


def test_unknown_reference_is_rejected():
    with pytest.raises(ValidationError, match="unknown name 'Missing'"):
        parse_class_table("class Object\nclass A extends Missing")


def test_superclass_arity_is_checked():
    with pytest.raises(ValidationError, match="expects 1 argument"):
        parse_class_table(
            "class Object\nclass List<T> extends Object\nclass A extends List")


def test_bound_references_are_checked():
    with pytest.raises(ValidationError, match="unknown name"):
        parse_class_table("class Object\nclass A<T extends Missing> extends Object")


def test_two_roots_are_rejected():
    with pytest.raises(ValidationError, match="multiple root"):
        parse_class_table("class Object\nclass Other")


def test_generic_root_is_rejected():
    with pytest.raises(ValidationError, match="must not be generic"):
        parse_class_table("class Object<T>")


def test_reserved_words_cannot_name_classes():
    with pytest.raises(ParseError):
        parse_class_table("class Null")
    with pytest.raises(ParseError):
        parse_class_table("class Object\nclass A<super> extends Object")


def test_empty_table_has_no_root():
    with pytest.raises(ValidationError, match="no root class"):
        ClassTable([])


def test_reserved_words_are_rejected_without_the_parser():
    # the parser stops these first, so only direct construction reaches the check
    with pytest.raises(ValidationError, match="'Null' is a reserved word"):
        ClassTable([ClassDecl("Object"), ClassDecl("Null", superclass=TypeUse("Object"))])
    with pytest.raises(ValidationError, match="'super' is a reserved word"):
        ClassTable([ClassDecl("Object"),
                    ClassDecl("A", (TypeParam("super"),), TypeUse("Object"))])


def test_extending_a_parameter_is_rejected():
    with pytest.raises(ValidationError, match="'A' extends its own parameter 'T'"):
        parse_class_table("class Object\nclass A<T> extends T")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_class_table("class Object\nclass ,")
    assert exc.value.line == 2
    assert exc.value.col == 7
    assert "expected" in str(exc.value)


def test_higher_kinded_parameter_use_is_rejected():
    with pytest.raises(ValidationError, match="cannot take type arguments"):
        parse_class_table(
            "class Object\nclass A<T> extends Object\n"
            "class B<F> extends A<F<Object>>")


class TestAncestors:
    def test_nearest_first_root_last(self, sample_table):
        assert sample_table.ancestors("LinkedList") == ("LinkedList", "List", "Object")
        assert sample_table.ancestors("Integer") == ("Integer", "Number", "Object")
        assert sample_table.ancestors("Object") == ("Object",)

    def test_unknown_class(self, sample_table):
        with pytest.raises(UnknownClass):
            sample_table.ancestors("Nope")


class TestSubclassOf:
    def test_declared_edge_closure(self, sample_table):
        assert subclass_of(sample_table, "LinkedList", "List")
        assert subclass_of(sample_table, "LinkedList", "Object")

    def test_reflexive(self, sample_table):
        assert subclass_of(sample_table, "List", "List")

    def test_not_symmetric(self, sample_table):
        # brute-force reachability: edges are LinkedList->List->Object only
        assert not subclass_of(sample_table, "List", "LinkedList")

    def test_unknown_class(self, sample_table):
        with pytest.raises(UnknownClass):
            subclass_of(sample_table, "List", "Nope")
        with pytest.raises(UnknownClass):
            subclass_of(sample_table, "Nope", "List")

    def test_everything_below_root(self, sample_table):
        for name in sample_table.class_names:
            assert subclass_of(sample_table, name, sample_table.root)

    def test_preorder_laws_exhaustively(self, sample_table):
        names = sample_table.class_names
        for a in names:
            assert subclass_of(sample_table, a, a)
            for b in names:
                for c in names:
                    if subclass_of(sample_table, a, b) and subclass_of(sample_table, b, c):
                        assert subclass_of(sample_table, a, c)
                # antisymmetry: the extends graph is acyclic
                if a != b and subclass_of(sample_table, a, b):
                    assert not subclass_of(sample_table, b, a)


def test_print_parse_roundtrip(sample_table, reduced_table):
    for table in (sample_table, reduced_table):
        assert parse_class_table(format_class_table(table)) == table


@given(st.integers(min_value=0, max_value=300))
def test_print_parse_roundtrip_on_generated_tables(seed):
    table = random_table(seed)
    assert parse_class_table(format_class_table(table)) == table


@pytest.mark.parametrize("max_classes", [1, 7, 8])
def test_random_table_rejects_class_counts_outside_its_names(max_classes):
    with pytest.raises(ValueError, match=r"max_classes must lie in 2\.\.6, not "):
        random_table(0, max_classes=max_classes)


def test_random_table_draws_at_both_ends_of_its_range():
    assert {len(random_table(seed, max_classes=2).decls) for seed in range(50)} == {2}
    assert {len(random_table(seed, max_classes=6).decls) for seed in range(50)} == {2, 3, 4, 5, 6}


def test_the_validity_survey_rejects_a_class_count_outside_the_range():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "fbounded_modes.py"
    done = subprocess.run([sys.executable, script, "--max-classes", "8"],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: max_classes must lie in 2..6, not 8\n"


def test_hash_is_structural_and_stable():
    source = "class Object\nclass List<T> extends Object\nclass Str extends Object"
    first, second = parse_class_table(source), parse_class_table(source)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert hash(first) == hash(first)
    assert {first: 1}[second] == 1
