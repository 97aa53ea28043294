"""The verification battery: `analyze` is the report document, and its
verdict catches a relation that breaks the laws."""

import collections
import functools
import json
import pathlib
import sys

import numpy as np
import pytest

from nomsub import (analyze, build_relation, export_json, fixpoints, initial_relation,
                    relation, relation_from_json)
from nomsub.cli import main
from nomsub.relation import SubtypeRelation, Universe

from nested_tables import INDEX_TABLES, NESTED_TABLES, named_table

ROOT = pathlib.Path(__file__).resolve().parents[1]
SAMPLE = str(ROOT / "tables" / "sample.table")


def test_report_prints_the_analyze_document(capsys, sample_table, sample_rel1):
    assert main(["report", SAMPLE]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"table": SAMPLE, **analyze(sample_table, sample_rel1)}


COUNTED = ("f_subtypes", "f_supertypes", "maximal_f_subtypes", "minimal_f_supertypes",
           "check_validity")


@pytest.mark.parametrize("name, depth", [("sample", 1), ("nested", 1)])
def test_analyze_calls_each_public_analysis_once(name, depth, request, monkeypatch):
    # a tracer times an analysis by wrapping its public function wherever a
    # nomsub module binds it, so analyze must reach each one by that name
    table = named_table(name, request)
    rel = build_relation(table, depth)
    expected = analyze(table, rel)
    calls = dict.fromkeys(COUNTED, 0)
    for attr in COUNTED:
        original = getattr(fixpoints, attr)

        def counted(*args, attr=attr, original=original):
            calls[attr] += 1
            return original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "nomsub" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    assert analyze(table, rel) == expected
    unary = sum(table.arity(cls) == 1 for cls in table.class_names)
    assert calls == {**dict.fromkeys(COUNTED[:4], unary), "check_validity": 1}


@pytest.mark.parametrize("name, depth", [("sample", 1), ("nested", 1)])
def test_analyze_finds_classes_and_free_types_once(name, depth, request, monkeypatch):
    # check_galois, closure_doc and check_monotonicity all read each term's
    # class and each class's free type, derived once per universe (the
    # stratum below derives its classes for its own rows); a doctored
    # relation over the same universe derives neither again
    table = named_table(name, request)
    rel = build_relation(table, depth)
    expected = analyze(table, rel)
    calls = collections.Counter()
    for attr in ("classes", "free"):
        original = getattr(Universe, attr).func

        def counted(space, attr=attr, original=original):
            calls[attr, space] += 1
            return original(space)

        made = functools.cached_property(counted)
        made.__set_name__(Universe, attr)
        monkeypatch.setattr(Universe, attr, made)
    rel = build_relation(table, depth)
    assert analyze(table, rel) == expected
    assert set(calls.values()) == {1}
    assert calls["classes", rel.space] == calls["free", rel.space] == 1
    derived = dict(calls)
    analyze(table, SubtypeRelation(rel.space, rel.bits.copy(), 0))
    assert calls == derived


# the analyses answer in universe indices and the report reads each label by
# index, so no term is made; where chains stay in the universe (every case
# here) the decider, which asks by term, is never reached
NO_TERM_CASES = [("reduced", 3), ("sample", 2), *((f"seed{seed}", 1) for seed in range(50))]


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("name, depth", NO_TERM_CASES)
def test_analyze_makes_no_term(name, depth, include_cofree, request, monkeypatch):
    table, made = named_table(name, request), []
    make = relation._terms
    monkeypatch.setattr(relation, "_terms", lambda space: made.append(space) or make(space))
    rel = build_relation(table, depth, include_cofree=include_cofree)
    analyze(table, rel)
    analyze(table, rel, quantify="valid")
    assert made == []
    # universe order is label order, so the report lists indices in order
    # and sorts no label
    assert list(rel.labels) == sorted(rel.labels)


def test_unclosed_relation_fails_verification(sample_table):
    # the reflexive start of the construction lacks the inheritance edges
    doc = analyze(sample_table, initial_relation(sample_table, 1))
    assert doc["verification_ok"] is False
    assert doc["galois"]["violations"]
    assert doc["closure_laws"]["unit_violations"]
    assert doc["monotonicity"]["free_type_ok"] is False


# the nested and index tables add chain members found past a member
# outside the universe, and analyses answered by the decider; permuted and
# mixed exceed the row budget at depth 2
READ_CASES = [("sample", 2), ("reduced", 2), *((f"seed{seed}", 1) for seed in range(20)),
              *((name, depth) for name in (*NESTED_TABLES, *INDEX_TABLES) for depth in (1, 2)
                if (name, depth) not in {("permuted", 2), ("mixed", 2)})]


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("name, depth", READ_CASES)
def test_a_relation_read_from_json_gives_the_same_document(name, depth, include_cofree,
                                                           request):
    # the document holds no iteration count; the read relation's endpoint
    # indices and chain members come from its own enumeration, and must be
    # the build's
    table = named_table(name, request)
    built = build_relation(table, depth, include_cofree=include_cofree)
    read = relation_from_json(table, export_json(built))
    assert analyze(table, read) == {**analyze(table, built), "iterations": 0}
    derived, recorded = read.space, built.space
    assert np.array_equal(derived.reach, recorded.reach)
    assert derived.ends.keys() == recorded.ends.keys()
    assert all(np.array_equal(derived.ends[cls], recorded.ends[cls]) for cls in recorded.ends)
