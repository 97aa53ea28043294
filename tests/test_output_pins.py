"""The CLI's outputs on the pinned inputs are byte-identical to the digests
committed in tests/output_pins.json (see scripts/pin_outputs.py)."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "pin_outputs", ROOT / "scripts" / "pin_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load_script()
PINS = json.loads(SCRIPT.PINS.read_text(encoding="utf-8"))


def test_every_command_line_is_pinned():
    assert sorted(SCRIPT.cases()) == sorted(PINS)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned")
    SCRIPT.write_tables(directory)
    return directory


@pytest.mark.parametrize("text", sorted(PINS))
def test_output_matches_its_pin(text, table_dir, monkeypatch):
    monkeypatch.chdir(table_dir)
    assert SCRIPT.digest(SCRIPT.cases()[text]) == PINS[text]
