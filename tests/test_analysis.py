"""The verification battery: `analyze` is the report document, and its
verdict catches a relation that breaks the laws."""

import json
import pathlib

from nomsub import analyze, initial_relation
from nomsub.cli import main

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
