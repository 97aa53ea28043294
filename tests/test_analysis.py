"""The verification battery: `analyze` is the report document, and its
verdict catches a relation that breaks the laws."""

import json
import pathlib

import numpy as np
import pytest

from nomsub import analyze, build_relation, export_json, initial_relation, relation_from_json
from nomsub.cli import main
from nomsub.relation import chains

from nested_tables import INDEX_TABLES, NESTED_TABLES, named_table

ROOT = pathlib.Path(__file__).resolve().parents[1]
SAMPLE = str(ROOT / "tables" / "sample.table")


def test_report_prints_the_analyze_document(capsys, sample_table, sample_rel1):
    assert main(["report", SAMPLE]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"table": SAMPLE, **analyze(sample_table, sample_rel1)}


def test_unclosed_relation_fails_verification(sample_table):
    # the reflexive start of the construction lacks the inheritance edges
    doc = analyze(sample_table, initial_relation(sample_table, 1))
    assert doc["verification_ok"] is False
    assert doc["galois"]["violations"]
    assert doc["closure_laws"]["unit_violations"]
    assert doc["monotonicity"]["free_type_ok"] is False


# the nested and index tables add chain parents found by walking the
# chain and analyses answered by the decider; permuted and mixed exceed the
# row budget at depth 2
READ_CASES = [("sample", 2), ("reduced", 2), *((f"seed{seed}", 1) for seed in range(20)),
              *((name, depth) for name in (*NESTED_TABLES, *INDEX_TABLES) for depth in (1, 2)
                if (name, depth) not in {("permuted", 2), ("mixed", 2)})]


@pytest.mark.parametrize("include_cofree", [True, False])
@pytest.mark.parametrize("name, depth", READ_CASES)
def test_a_relation_read_from_json_gives_the_same_document(name, depth, include_cofree,
                                                           request):
    # the document holds no chain parents, which are derived on first use,
    # and no iteration count
    table = named_table(name, request)
    built = build_relation(table, depth, include_cofree=include_cofree)
    read = relation_from_json(table, export_json(built))
    assert not read._chains
    assert analyze(table, read) == {**analyze(table, built), "iterations": 0}
    derived, recorded = chains(table, read), chains(table, built)
    assert np.array_equal(derived.parent, recorded.parent)
    for mine, theirs in ((derived.members, recorded.members), (derived.ends, recorded.ends)):
        assert mine.keys() == theirs.keys()
        assert all(np.array_equal(mine[cls], theirs[cls]) for cls in theirs)
