"""Parse errors of both parsers: exact positions and messages, and no
stray exception on any string over the token alphabet."""

import pytest
from hypothesis import given, settings, strategies as st

from nomsub import NomsubError, ParseError, parse_class_table, parse_type

TYPE_ERRORS = [
    ('', '1:1: expected type name, found end of input'),
    ('List< // x', '1:7: expected type name, found end of input'),
    ('List<\tString', "1:13: expected '>', found end of input"),
    ('List<String>\r\n>', "2:1: expected end of input, found '>'"),
    ('List<$>', "1:6: unexpected character '$'"),
    ('List<String>.', "1:13: unexpected character '.'"),
    ('List</String>', "1:6: unexpected character '/'"),
    ('List<1a>', "1:6: unexpected character '1'"),
    ('List<[Null...Object]>', "1:13: unexpected character '.'"),
    ('List<String', "1:12: expected '>', found end of input"),
    ('List<String> trailing', "1:14: expected end of input, found 'trailing'"),
    ('List<\n  ? extends>', "2:12: expected type name, found '>'"),
    ('List<? super // c\n>', "2:1: expected type name, found '>'"),
    ('List<String,>', "1:13: expected type name, found '>'"),
    ('List<String>\n  // done\n  ?', "3:3: expected end of input, found '?'"),
    ('Enum<_x>', "1:6: unexpected character '_'"),
    ('List<[String Object]>', "1:14: expected '..', found 'Object'"),
]

TABLE_ERRORS = [
    ('klass Object', "1:1: expected 'class', found 'klass'"),
    ('class Object\nclass A extends $', "2:17: unexpected character '$'"),
    ('class Object\n\tclass List<T> extends Object\n\tclass class', "3:8: expected class name, found reserved word 'class'"),
    ('class Object // root\nclass A<T extends> extends Object', "2:18: expected type name, found '>'"),
    ('class Object\r\nclass A extends Object\r\nclass B<T', "3:10: expected '>', found end of input"),
    ('class Object\nclass A<T super Null> extends Object', "2:17: expected type name, found reserved word 'Null'"),
    ('class Object\n// trailing comment\nclass A extends // x', '3:17: expected type name, found end of input'),
    ('class Object\nclass A.B', "2:8: unexpected character '.'"),
    ('class Object\nclass 9A', "2:7: unexpected character '9'"),
    ('class Object\nclass A<T,> extends Object', "2:11: expected parameter name, found '>'"),
    ('class Object\nclass A / B', "2:9: unexpected character '/'"),
    ('', "1:1: expected 'class', found end of input"),
    ('class Object\n\t\tclass A<T> extends Object<T!>', "2:30: expected '>', found '!'"),
]


@pytest.mark.parametrize("text, error", TYPE_ERRORS)
def test_type_parse_error_is_pinned(sample_table, text, error):
    with pytest.raises(ParseError) as exc:
        parse_type(sample_table, text)
    assert str(exc.value) == error


@pytest.mark.parametrize("text, error", TABLE_ERRORS)
def test_table_parse_error_is_pinned(text, error):
    with pytest.raises(ParseError) as exc:
        parse_class_table(text)
    assert str(exc.value) == error


def test_parse_error_line_and_col_match_its_text(sample_table):
    with pytest.raises(ParseError) as exc:
        parse_type(sample_table, "List<String>\n  // done\n  ?")
    assert (exc.value.line, exc.value.col) == (3, 3)


# single characters of every class the lexer knows, plus words that steer
# the parsers past their first token
TOKEN_ALPHABET = (list("aZq09_ \t\r\n<>,[]?!./")
                  + ["extends", "super", "Null", "//", "class", "List", "Enum", "Object", "String"])
token_strings = st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=30).map("".join)


@settings(max_examples=300)
@given(token_strings)
def test_type_parser_raises_only_package_errors(sample_table, text):
    try:
        parse_type(sample_table, text)
    except NomsubError:
        pass


@settings(max_examples=300)
@given(token_strings)
def test_table_parser_raises_only_package_errors(text):
    try:
        parse_class_table(text)
    except NomsubError:
        pass
