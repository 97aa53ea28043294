"""Term construction, erasure, free/co-free types, printing and parsing."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import nomsub
from nomsub import (
    BOTTOM,
    ArityMismatch,
    BottomHasNoErasure,
    Cofree,
    Ground,
    Interval,
    NotGeneric,
    ParseError,
    UnknownClass,
    cofree_type,
    erase,
    format_type,
    free_type,
    nesting_depth,
    parse_class_table,
    parse_type,
    point,
    super_chain,
    super_instantiation,
    term_from_typeuse,
    wildcard,
)
from nomsub.class_table import TypeUse

TABLE = str(pathlib.Path(__file__).resolve().parents[1] / "tables" / "sample.table")


class TestErase:
    def test_wildcard_instantiation(self, sample_table):
        assert erase(parse_type(sample_table, "List<?>")) == "List"
        assert erase(parse_type(sample_table, "LinkedList<?>")) == "LinkedList"

    def test_plain_class(self, sample_table):
        assert erase(Ground("String")) == "String"

    def test_cofree_atom(self, sample_table):
        assert erase(Cofree("List")) == "List"

    def test_bottom_has_no_erasure(self):
        with pytest.raises(BottomHasNoErasure):
            erase(BOTTOM)


class TestFreeType:
    def test_generic(self, sample_table):
        assert free_type(sample_table, "List") == parse_type(sample_table, "List<?>")
        assert free_type(sample_table, "Enum") == parse_type(sample_table, "Enum<?>")

    def test_zero_arity(self, sample_table):
        assert free_type(sample_table, "String") == Ground("String")

    def test_unknown(self, sample_table):
        with pytest.raises(UnknownClass):
            free_type(sample_table, "Nope")

    def test_erase_inverts_on_every_class(self, sample_table):
        for name in sample_table.class_names:
            assert erase(free_type(sample_table, name)) == name


class TestCofreeType:
    def test_generic(self, sample_table):
        assert cofree_type(sample_table, "List") == Cofree("List")
        assert cofree_type(sample_table, "Enum") == Cofree("Enum")

    def test_non_generic_is_signalled(self, sample_table):
        with pytest.raises(NotGeneric):
            cofree_type(sample_table, "String")


class TestParseType:
    def test_upper_bounded_wildcard(self, sample_table):
        term = parse_type(sample_table, "List<? extends Number>")
        assert term == Ground("List", (Interval(BOTTOM, Ground("Number")),))

    def test_concrete_argument_is_a_point_interval(self, sample_table):
        term = parse_type(sample_table, "Enum<Weekday>")
        assert term == Ground("Enum", (point(Ground("Weekday")),))

    def test_arity_mismatch(self, sample_table):
        with pytest.raises(ArityMismatch):
            parse_type(sample_table, "List<String, String>")
        with pytest.raises(ArityMismatch):
            parse_type(sample_table, "List")

    def test_explicit_interval_and_sugar_agree(self, sample_table):
        assert parse_type(sample_table, "List<[String..String]>") == \
            parse_type(sample_table, "List<String>")
        assert parse_type(sample_table, "List<[Null..Object]>") == \
            parse_type(sample_table, "List<?>")

    def test_lower_bounded_wildcard(self, sample_table):
        term = parse_type(sample_table, "List<? super Number>")
        assert term == Ground("List", (Interval(Ground("Number"), Ground("Object")),))

    def test_bottom_and_cofree(self, sample_table):
        assert parse_type(sample_table, "Null") == BOTTOM
        assert parse_type(sample_table, "List<!>") == Cofree("List")

    def test_errors(self, sample_table):
        with pytest.raises(UnknownClass):
            parse_type(sample_table, "Nope<String>")
        with pytest.raises(ParseError):
            parse_type(sample_table, "List<String")
        with pytest.raises(ParseError):
            parse_type(sample_table, "List<String> trailing")
        with pytest.raises(NotGeneric):
            parse_type(sample_table, "String<!>")


class TestNestingDepth:
    def test_atoms(self):
        assert nesting_depth(BOTTOM) == 0
        assert nesting_depth(Ground("String")) == 0
        assert nesting_depth(Cofree("List")) == 0

    def test_nested(self, sample_table):
        assert nesting_depth(parse_type(sample_table, "List<String>")) == 1
        assert nesting_depth(parse_type(sample_table, "List<? extends List<String>>")) == 2


def test_unpickled_term_hashes_as_a_fresh_one(sample_table):
    # terms store their hash, and string hashes differ between processes
    text = "List<? extends List<String>>"
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    dump = ("import pickle, sys\n"
            "from nomsub import parse_class_table, parse_type\n"
            f"table = parse_class_table(open({TABLE!r}).read())\n"
            f"sys.stdout.buffer.write(pickle.dumps(parse_type(table, {text!r})))\n")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(pathlib.Path(nomsub.__file__).parents[1])}
    data = subprocess.run([sys.executable, "-c", dump], env=env, check=True,
                          capture_output=True).stdout
    loaded, fresh = pickle.loads(data), parse_type(sample_table, text)
    assert loaded == fresh
    assert hash(loaded) == hash(fresh)
    assert hash(loaded.args[0]) == hash(fresh.args[0])


class TestSuperInstantiation:
    def test_pointwise_lift(self, sample_table):
        got = super_instantiation(sample_table, parse_type(sample_table, "LinkedList<String>"))
        assert got == parse_type(sample_table, "List<String>")

    def test_direct_param_passes_whole_interval(self, sample_table):
        got = super_instantiation(sample_table, parse_type(sample_table, "LinkedList<?>"))
        assert got == parse_type(sample_table, "List<?>")

    def test_self_bounded_pattern(self, sample_table):
        got = super_instantiation(sample_table, Ground("Weekday"))
        assert got == parse_type(sample_table, "Enum<Weekday>")

    def test_absent_cases(self, sample_table):
        assert super_instantiation(sample_table, Ground("Object")) is None
        assert super_instantiation(sample_table, BOTTOM) is None
        assert super_instantiation(sample_table, Cofree("List")) is None

    def test_nested_occurrence_requires_point_interval(self):
        table = parse_class_table(
            "class Object\nclass List<T> extends Object\n"
            "class Nest<T> extends List<List<T>>")
        concrete = super_instantiation(table, parse_type(table, "Nest<Object>"))
        assert concrete == parse_type(table, "List<List<Object>>")
        assert super_instantiation(table, parse_type(table, "Nest<?>")) is None

    def test_direct_and_nested_parameters_together(self):
        table = parse_class_table(
            "class Object\nclass C<T> extends Object\nclass B<S, T> extends Object\n"
            "class N<S, T> extends B<C<T>, S>")
        cases = {"N<?, Object>": "B<C<Object>, ?>",
                 "N<Object, ?>": None,
                 "N<Object, C<Object>>": "B<C<C<Object>>, Object>"}
        for text, expected in cases.items():
            got = super_instantiation(table, parse_type(table, text))
            assert got == (expected and parse_type(table, expected)), text

    def test_chain_walks_to_the_root(self, sample_table):
        chain = super_chain(sample_table, Ground("Weekday"))
        assert chain == [parse_type(sample_table, "Enum<Weekday>"), Ground("Object")]


def test_term_from_typeuse_substitutes(sample_table):
    use = TypeUse("Enum", (TypeUse("T"),))
    got = term_from_typeuse(sample_table, use, {"T": Ground("Weekday")})
    assert got == parse_type(sample_table, "Enum<Weekday>")


# -- printing ----------------------------------------------------------------


def _terms(table):
    plain = [Ground(c) for c in table.class_names if not table.decl(c).is_generic]
    generic = [c for c in table.class_names if table.decl(c).is_generic]
    atoms = st.sampled_from([BOTTOM] + plain + [Cofree(c) for c in generic])

    def extend(children):
        intervals = st.tuples(children, children).map(lambda p: Interval(*p))
        return st.builds(lambda c, iv: Ground(c, (iv,)), st.sampled_from(generic), intervals)

    return st.recursive(atoms, extend, max_leaves=6)


class TestFormatType:
    def test_wildcard_sugar_with_table(self, sample_table):
        t = Ground("List", (wildcard(sample_table),))
        assert format_type(t, sample_table) == "List<?>"
        # without a table the printer cannot know the root, so no "?" sugar
        assert format_type(t) == "List<? extends Object>"

    def test_bounded_forms(self, sample_table):
        assert format_type(parse_type(sample_table, "List<? extends Number>"),
                           sample_table) == "List<? extends Number>"
        assert format_type(parse_type(sample_table, "List<? super Number>"),
                           sample_table) == "List<? super Number>"
        assert format_type(parse_type(sample_table, "List<[String..Number]>"),
                           sample_table) == "List<[String..Number]>"

    def test_point_interval_prints_bare(self, sample_table):
        assert format_type(parse_type(sample_table, "List<[String..String]>"),
                           sample_table) == "List<String>"


@given(data=st.data())
def test_format_parse_roundtrip(data, sample_table):
    term = data.draw(_terms(sample_table))
    assert parse_type(sample_table, format_type(term, sample_table)) == term
    assert parse_type(sample_table, format_type(term)) == term
