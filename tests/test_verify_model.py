"""scripts/verify_model.py prints its findings from the analyze document."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

SAMPLE_FINDINGS = """\
   adjunction grid: 0 violations / 688 pairs
   closure laws: 0 unit violations, 0 counit violations
   monotonicity: erasure ok, free type ok
   mutual pairs: 0
   validity: 62 inductive / 62 coinductive (agree: True)
   List: maximal coalgebras ['List<!>'] (free type member=False, greatest=True); \
minimal algebras ['List<? super List<!>>'] (co-free member=False, least=True)
   LinkedList: maximal coalgebras ['LinkedList<!>'] (free type member=False, \
greatest=True); minimal algebras ['LinkedList<? super LinkedList<!>>', \
'List<? super List<!>>'] (co-free member=False, least=True)
   Enum: maximal coalgebras ['Enum<!>', 'Weekday'] (free type member=False, \
greatest=True); minimal algebras ['Enum<? super Enum<!>>', 'Enum<? super Weekday>'] \
(co-free member=False, least=True)
"""


def load_script():
    spec = importlib.util.spec_from_file_location(
        "verify_model", ROOT / "scripts" / "verify_model.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_sample_prints_the_findings(capsys):
    assert load_script().verify("sample.table", 1) is True
    header, findings = capsys.readouterr().out.split("\n", 1)
    assert header.startswith("== sample.table @ depth 1: 87 terms, 3 iterations, ")
    assert findings == SAMPLE_FINDINGS
