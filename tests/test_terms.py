"""Term construction, erasure, free/co-free types, printing and parsing."""

import base64
import gc
import json
import os
import pathlib
import pickle
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

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
    InvalidRelationDocument,
    NotGeneric,
    ParseError,
    UnknownClass,
    cofree_type,
    erase,
    export_json,
    format_class_table,
    format_type,
    free_type,
    nesting_depth,
    parse_class_table,
    parse_type,
    point,
    relation_from_json,
    super_chain,
    super_instantiation,
    term_from_typeuse,
    wildcard,
)
from nomsub import build_relation
from nomsub.class_table import TypeUse
from nomsub.random_tables import random_table

from nested_tables import INDEX_TABLES, NESTED_TABLES, named_table
from test_parse_errors import TYPE_ERRORS

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


class TestParseCache:
    def test_a_repeated_text_gives_the_same_term(self, sample_table):
        text = "List<? extends List<String>>"
        first = parse_type(sample_table, text)
        assert parse_type(sample_table, text) == first
        assert parse_type(sample_table, text) is first

    @pytest.mark.parametrize("text, error", TYPE_ERRORS)
    def test_a_bad_text_raises_its_pinned_error_on_every_call(self, sample_table, text, error):
        for _ in range(3):
            with pytest.raises(ParseError) as exc:
                parse_type(sample_table, text)
            assert str(exc.value) == error

    @pytest.mark.parametrize("text, error, message", [
        ("Nope<String>", UnknownClass, "unknown class 'Nope'"),
        ("List", ArityMismatch, "class 'List' expects 1 argument(s), got 0"),
        ("List<String, String>", ArityMismatch, "class 'List' expects 1 argument(s), got 2"),
        ("String<!>", NotGeneric, "class 'String' is not generic and has no co-free type"),
    ])
    def test_a_table_error_is_raised_on_every_call(self, sample_table, text, error, message):
        for _ in range(3):
            with pytest.raises(error) as exc:
                parse_type(sample_table, text)
            assert str(exc.value) == message

    def test_texts_that_differ_by_layout_give_equal_terms(self, sample_table):
        texts = ["List<? extends List<String>>",
                 "List< ? extends List <String> >",
                 "List<?\textends\n  List<String>> // nested",
                 "// leading\nList<? extends List<String>>"]
        assert len({parse_type(sample_table, s) for s in texts}) == 1

    def test_equal_tables_give_equal_terms(self, sample_table):
        other = parse_class_table(format_class_table(sample_table))
        assert other is not sample_table
        for text in ("List<? super LinkedList<!>>", "Enum<Weekday>", "Null"):
            assert parse_type(other, text) == parse_type(sample_table, text)

    def test_commented_labels_parse_to_the_universe_objects(self, sample_table, sample_rel2):
        # comments make each label into nine distinct texts of one term; the
        # repeat, backwards, is answered from the table's own cache
        texts = [f"{label} // {k}" for k in range(9) for label in sample_rel2.labels]
        first = [parse_type(sample_table, s) for s in texts]
        again = [parse_type(sample_table, s) for s in reversed(texts)][::-1]
        universe = list(sample_rel2.universe) * 9
        assert all(a is u and b is u for a, b, u in zip(first, again, universe))

    def test_a_dropped_table_is_released_with_its_parsed_texts(self):
        # the parse cache holds each built label and term, but neither the
        # relation nor its rows: a relation goes before its table, and both go
        refs = []
        for seed in range(50):
            table = random_table(seed)
            rel = build_relation(table, 2)
            parse_type(table, rel.labels[-1] + " // lexed")
            refs += [weakref.ref(table), weakref.ref(rel), weakref.ref(rel.bits)]
        del rel
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == [refs[-3]]
        del table
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []

    def test_texts_no_build_printed_still_lex_once(self, lexed):
        table = parse_class_table(pathlib.Path(TABLE).read_text(encoding="utf-8"))
        rel = build_relation(table, 1)
        rel.universe  # made, it records each label with its term in the parse cache
        # a comment, another layout, and ``?`` spelled as its interval
        texts = ["List<? extends Number> // a comment", "List< ? extends Number >",
                 "List<[Null..Object]>"]
        labels = ["List<? extends Number>", "List<? extends Number>", "List<?>"]
        terms = [parse_type(table, s) for s in texts * 2 + labels]
        assert lexed == texts
        wanted = [rel.universe[rel.labels.index(label)] for label in labels]
        assert all(t is w for t, w in zip(terms, wanted * 3, strict=True))

    def test_an_unpickled_table_parses_afresh_to_equal_terms(self, sample_table, sample_rel2):
        cached = [parse_type(sample_table, label) for label in sample_rel2.labels]
        loaded = pickle.loads(pickle.dumps(sample_table))
        assert loaded == sample_table
        for label, term in zip(sample_rel2.labels, cached):
            fresh = parse_type(loaded, label)
            assert fresh == term and hash(fresh) == hash(term)
            if isinstance(term, Ground) and term.args:
                assert fresh is not term
            assert parse_type(loaded, label) is fresh

    def test_threads_parsing_against_one_table_get_its_terms(self, sample_table, sample_rel2):
        # four threads fill one fresh table's cache and pool at once, switching
        # often; a lost or crossed entry would give a wrong term
        table = parse_class_table(format_class_table(sample_table))
        labels = list(sample_rel2.labels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(lambda: [parse_type(table, s) for s in labels])
                        for _ in range(4)]
                found = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(parsed == list(sample_rel2.universe) for parsed in found)
        assert all(parse_type(table, s) == t for s, t in zip(labels, sample_rel2.universe))

    def test_a_cached_label_repeated_in_a_document_is_rejected(self, sample_table,
                                                               sample_rel1):
        # the reader parses no label, so a cached one is counted like any other
        doc = json.loads(export_json(sample_rel1))
        doc["universe"].append(doc["universe"][3])
        n = len(doc["universe"])
        doc["edges"] = base64.b64encode(bytes(n * ((n + 7) // 8))).decode("ascii")
        parse_type(sample_table, doc["universe"][3])
        with pytest.raises(InvalidRelationDocument,
                           match=f"^universe lists {n} entries, not the {n - 1} of "
                                 "the depth-1 universe$"):
            relation_from_json(sample_table, json.dumps(doc))


def _unshared(term):
    """An equal term made by the constructors directly, through no pool."""
    if isinstance(term, Ground):
        return Ground(term.cls, tuple(Interval(_unshared(iv.lo), _unshared(iv.hi))
                                      for iv in term.args))
    return Cofree(term.cls) if isinstance(term, Cofree) else term


class TestSharedTerms:
    """Terms made against one table object are that table's shared objects,
    and equality stays structural for terms made any other way."""

    @pytest.mark.parametrize("name, depth", [("sample", 1), ("sample", 2), ("reduced", 2)]
                             + [(name, 1) for name in (*NESTED_TABLES, *INDEX_TABLES)]
                             + [(f"seed{seed}", 2) for seed in range(20)])
    def test_every_label_parses_to_the_universe_term(self, name, depth, request):
        # a build records its labels in its table's parse cache, so each
        # label must also lex and parse to an equal term against a copy of
        # the table whose caches are empty: the cache hides no printer/parser
        # mismatch
        table = named_table(name, request)
        for include_cofree in (True, False):
            rel = build_relation(table, depth, include_cofree=include_cofree)
            assert all(parse_type(table, label) is term
                       for label, term in zip(rel.labels, rel.universe, strict=True))
            copy = pickle.loads(pickle.dumps(table))
            assert copy._parsed == {}
            assert all(parse_type(copy, label) == term
                       for label, term in zip(rel.labels, rel.universe))

    def test_constructors_give_the_shared_terms(self, sample_table):
        shared = parse_type(sample_table, "List<? super List<?>>")
        assert free_type(sample_table, "List") is shared.args[0].lo
        assert wildcard(sample_table) is shared.args[0].lo.args[0]
        assert cofree_type(sample_table, "List") is parse_type(sample_table, "List<!>")
        enum = sample_table.decl("Weekday").superclass
        assert term_from_typeuse(sample_table, enum) is parse_type(sample_table, "Enum<Weekday>")
        assert (super_instantiation(sample_table, parse_type(sample_table, "LinkedList<?>"))
                is parse_type(sample_table, "List<?>"))

    def test_terms_made_apart_from_the_pool_equal_the_shared_ones(self, sample_table,
                                                                 sample_rel2):
        other = parse_class_table(format_class_table(sample_table))
        for label, term in zip(sample_rel2.labels, sample_rel2.universe):
            twins = (parse_type(other, label), _unshared(term), pickle.loads(pickle.dumps(term)))
            if isinstance(term, Ground) and term.args:
                assert not any(twin is term for twin in twins)
            for twin in twins:
                assert twin == term and term == twin
                assert hash(twin) == hash(term)


class TestNestingDepth:
    def test_atoms(self):
        assert nesting_depth(BOTTOM) == 0
        assert nesting_depth(Ground("String")) == 0
        assert nesting_depth(Cofree("List")) == 0

    def test_nested(self, sample_table):
        assert nesting_depth(parse_type(sample_table, "List<String>")) == 1
        assert nesting_depth(parse_type(sample_table, "List<? extends List<String>>")) == 2


def _other_seed_env():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    return {**os.environ, "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(pathlib.Path(nomsub.__file__).parents[1])}


def test_unpickled_term_hashes_as_a_fresh_one(sample_table, sample_rel2):
    # terms store their hash, and string hashes differ between processes
    text = "List<? extends List<String>>"
    dump = ("import pickle, sys\n"
            "from nomsub import parse_class_table, parse_type\n"
            f"table = parse_class_table(open({TABLE!r}).read())\n"
            f"sys.stdout.buffer.write(pickle.dumps(parse_type(table, {text!r})))\n")
    data = subprocess.run([sys.executable, "-c", dump], env=_other_seed_env(), check=True,
                          capture_output=True).stdout
    loaded, fresh = pickle.loads(data), parse_type(sample_table, text)
    assert loaded == fresh
    assert hash(loaded) == hash(fresh)
    assert hash(loaded.args[0]) == hash(fresh.args[0])
    assert sample_rel2.index(loaded) == sample_rel2.index(fresh)


def test_term_pickled_here_is_found_under_another_seed(sample_table):
    # the reverse direction: pickled in this process, loaded in one whose
    # string hashes differ, where the relation's index must find it
    text = "List<? extends List<String>>"
    load = ("import pickle, sys\n"
            "from nomsub import build_relation, parse_class_table, parse_type\n"
            f"table = parse_class_table(open({TABLE!r}).read())\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = parse_type(table, {text!r})\n"
            "rel = build_relation(table, 2)\n"
            "print(loaded == fresh, hash(loaded) == hash(fresh),"
            " rel.index(loaded) == rel.index(fresh))\n")
    data = pickle.dumps(parse_type(sample_table, text))
    out = subprocess.run([sys.executable, "-c", load], env=_other_seed_env(), input=data,
                         check=True, capture_output=True).stdout
    assert out == b"True True True\n"


def test_unpickled_table_hashes_as_a_fresh_one(sample_table):
    # tables store their hash too
    dump = ("import pickle, sys\n"
            "from nomsub import parse_class_table\n"
            f"table = parse_class_table(open({TABLE!r}).read())\n"
            "sys.stdout.buffer.write(pickle.dumps(table))\n")
    data = subprocess.run([sys.executable, "-c", dump], env=_other_seed_env(), check=True,
                          capture_output=True).stdout
    loaded = pickle.loads(data)
    assert loaded == sample_table
    assert hash(loaded) == hash(sample_table)


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
