"""Tests of the benchmark itself, at the tiny size.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from nomsub import build_relation, parse_class_table  # noqa: E402
from nomsub.cli import main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, *args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def tiny_runs():
    return {trace: bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny")
            for trace in (0, 1)}


def test_tiny_smoke_run(tiny_runs):
    for trace, (code, last, output) in tiny_runs.items():
        assert code == 0, output
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert last["attempted"] >= 1


def test_every_declared_metric_is_emitted(tiny_runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = tiny_runs[trace][1]["metrics"]
        declared = {m["name"]: m for m in SPEC[key]}
        for workload in WORKLOADS:
            emitted = {name.split("/", 1)[1]: m for name, m in metrics.items()
                       if name.startswith(workload + "/")}
            assert set(emitted) == set(declared), (workload, key)
            for name, m in emitted.items():
                assert m["unit"] == declared[name]["unit"]
                assert isinstance(m["value"], (int, float))
                if key == "end_to_end":
                    assert m["value"] > 0, (workload, name)


def test_survey_cap_failure_is_counted_not_skipped(tiny_runs):
    code, last, _ = tiny_runs[0]
    # sample@2 runs out of the universe cap in every survey pass today
    assert last["failed"] >= 1
    assert last["metrics"]["survey/completed_ratio"]["value"] < 1


def test_wrong_verdicts_are_caught():
    table = parse_class_table((ROOT / "tables" / "sample.table").read_text())
    stratum = reference.strata(table, 1)[-1]
    rel = build_relation(table, 1)
    assert checks.check_pairwise("sample1", rel.labels, rel.edges, stratum) == []
    edges = rel.edges.copy()
    edges[3, 5] = not edges[3, 5]
    assert checks.check_pairwise("sample1", rel.labels, edges, stratum)

    exp = checks.Expected("sample1", 1, len(stratum), table.class_names)
    doc = {"checked_pairs": (len(stratum) - 1) * len(table.class_names),
           "bottom_skipped": 1, "violations": [], "cofree_violations": []}
    assert checks.check_galois(doc, exp) == []
    assert checks.check_galois({**doc, "checked_pairs": doc["checked_pairs"] - 1}, exp)
    assert checks.check_galois({**doc, "violations": [{"type": "Integer"}]}, exp)

    assert checks.check_answers("10", [0, 1], [True, False]) == []
    assert checks.check_answers("11", [0, 1], [True, False])


def test_report_verdicts_on_sample_are_checked():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", str(ROOT / "tables" / "sample.table")]) == 0
    doc = json.loads(out.getvalue())
    exp = checks.Expected("sample1", 1, doc["universe_size"], (
        "Object", "Number", "Integer", "String", "List", "LinkedList", "Enum", "Weekday"),
        valid_in_both=("Enum<Weekday>",), valid_in_neither=("Enum<Object>",))
    assert checks.check_report(doc, exp) == []
    coind = doc["validity"]["coinductive"]["valid"]
    coind.append("Enum<Object>")
    assert any("Enum<Object>" in e for e in checks.check_report(doc, exp))


def test_a_broken_program_fails_the_run(tmp_path):
    """A copy of the program whose subtype query answers wrongly: the run
    must exit nonzero and say the result is not correct."""
    for part in ("perfbench", "src", "tables", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    relation = tmp_path / "src" / "nomsub" / "relation.py"
    text = relation.read_text()
    good = "return bool(rel.edges[rel.index(t1), rel.index(t2)])"
    assert good in text
    relation.write_text(text.replace(
        good, "return not bool(rel.edges[rel.index(t1), rel.index(t2)])"))
    code, last, output = bench(tmp_path, "--workload", "queries", "--seed", "3",
                               "--seconds", "0.2", "--size", "tiny")
    assert code == 1, output
    assert last["correct"] is False


def test_without_the_program_the_run_refuses(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, last, _ = bench(tmp_path, "--workload", "ladder", "--seed", "1", "--seconds", "1")
    assert code != 0 and last is None


def test_inputs_follow_the_seed():
    first = [t.text for t in inputs.survey_tables(5, ((0, 300, 2), (300, None, 2)))]
    again = [t.text for t in inputs.survey_tables(5, ((0, 300, 2), (300, None, 2)))]
    other = [t.text for t in inputs.survey_tables(6, ((0, 300, 2), (300, None, 2)))]
    assert first == again and first != other
    assert len(set(first)) == len(first)
