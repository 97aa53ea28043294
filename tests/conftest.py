import pathlib

import pytest

from nomsub import build_relation, parse_class_table, terms
from nomsub._lex import TokenStream

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_table(name):
    return parse_class_table((ROOT / "tables" / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def sample_table():
    return load_table("sample.table")


@pytest.fixture(scope="session")
def reduced_table():
    return load_table("reduced.table")


@pytest.fixture(scope="session")
def sample_rel0(sample_table):
    return build_relation(sample_table, 0)


@pytest.fixture(scope="session")
def sample_rel1(sample_table):
    return build_relation(sample_table, 1)


@pytest.fixture(scope="session")
def sample_rel2(sample_table):
    return build_relation(sample_table, 2)


@pytest.fixture(scope="session")
def reduced_rel1(reduced_table):
    return build_relation(reduced_table, 1)


@pytest.fixture(scope="session")
def reduced_rel2(reduced_table):
    return build_relation(reduced_table, 2)


@pytest.fixture
def lexed(monkeypatch):
    """The texts that parse_type lexes while the test runs, in order."""
    texts = []

    class Counted(TokenStream):
        __slots__ = ()

        def __init__(self, source):
            texts.append(source)
            super().__init__(source)

    monkeypatch.setattr(terms, "TokenStream", Counted)
    return texts
