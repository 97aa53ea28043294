"""Exception types shared across the package."""

from __future__ import annotations


class NomsubError(Exception):
    """Base class for every error raised by this package."""


class ParseError(NomsubError):
    """Syntax error; carries the 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(NomsubError):
    """A parsed class table violates a table invariant."""


class UnknownClass(NomsubError):
    """A name does not denote a declared class."""


class NotGeneric(NomsubError):
    """Co-free types exist only for generic classes."""


class NotUnaryGeneric(NomsubError):
    """Fixed-point analyses are defined for single-parameter generics only."""


class ArityMismatch(NomsubError):
    """A class was applied to the wrong number of type arguments."""


class BottomHasNoErasure(NomsubError):
    """The bottom type denotes no class."""


class UniverseCapExceeded(NomsubError):
    """Universe enumeration hit the configured term cap."""


class EndpointOutsideUniverse(NomsubError):
    """An interval endpoint is not a member of the relation's universe."""


class TermOutsideUniverse(NomsubError):
    """A queried term is not a member of the relation's universe."""


class InvalidRelationDocument(NomsubError):
    """A relation document repeats a universe term or indexes outside it."""


class FreeTypeOutsideUniverse(NomsubError):
    """A check needs every free type present; rebuild at depth >= 1."""
