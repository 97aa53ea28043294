"""Tokenizer shared by the class-table DSL and the type surface syntax.

A token is its text and its start offset in the source.  The end of input
is the empty text, which no ``accept`` or ``expect`` ever asks for.  Line
and column are worked out from an offset only when a ParseError is built.
"""

from __future__ import annotations

import re

from .errors import ParseError

# one lexeme per match: a token (group 1), a run of whitespace or a comment
_LEXEME = re.compile(r"([A-Za-z][A-Za-z0-9_]*|\.\.|[<>,\[\]?!])|[ \t\r\n]+|//[^\n]*")


def tokenize(source: str) -> tuple[list[str], list[int]]:
    """Token texts and their start offsets, closed by the empty text at the
    end of input; raises ParseError at the first character no token,
    whitespace or comment starts with."""
    texts: list[str] = []
    offsets: list[int] = []
    pos = 0
    for m in _LEXEME.finditer(source):
        if m.start() != pos:
            break
        text = m.group(1)
        if text:
            texts.append(text)
            offsets.append(pos)
        pos = m.end()
    if pos < len(source):
        raise _error(source, pos, f"unexpected character {source[pos]!r}")
    # the end of input is reported where a comment on the last line starts
    end = source.find("//", source.rfind("\n") + 1)
    texts.append("")
    offsets.append(pos if end < 0 else end)
    return texts, offsets


def _error(source: str, offset: int, message: str) -> ParseError:
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def _describe(text: str) -> str:
    return repr(text) if text else "end of input"


class TokenStream:
    """Cursor over a tokenized source with expectation-style error reporting."""

    __slots__ = ("_source", "_texts", "_offsets", "_pos")

    def __init__(self, source: str):
        self._source = source
        self._texts, self._offsets = tokenize(source)
        self._pos = 0

    def peek(self) -> str:
        return self._texts[self._pos]

    def at_end(self) -> bool:
        return not self._texts[self._pos]

    def accept(self, text: str) -> bool:
        if self._texts[self._pos] == text:
            self._pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        found = self._texts[self._pos]
        if found != text:
            raise self.error(f"expected {text!r}, found {_describe(found)}")
        self._pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        text = self._texts[self._pos]
        if not text[:1].isalpha():  # punctuation or the end of input
            raise self.error(f"expected {what}, found {_describe(text)}")
        self._pos += 1
        return text

    def expect_end(self) -> None:
        found = self._texts[self._pos]
        if found:
            raise self.error(f"expected end of input, found {_describe(found)}")

    def error(self, message: str) -> ParseError:
        """A ParseError at the current token."""
        return _error(self._source, self._offsets[self._pos], message)
