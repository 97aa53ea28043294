"""Generic class declarations and the subclassing relation they induce.

Table DSL (whitespace-insensitive, ``//`` line comments)::

    table   := decl+
    decl    := "class" IDENT params? ("extends" typeuse)?
    params  := "<" param ("," param)* ">"
    param   := IDENT ("extends" typeuse)? ("super" typeuse)?
    typeuse := IDENT ("<" typeuse ("," typeuse)* ">")?

``IDENT`` matches ``[A-Za-z][A-Za-z0-9_]*``.  ``class``, ``extends``,
``super`` and ``Null`` are reserved and cannot name classes or parameters.

Single inheritance only; interfaces and traits are modeled as ordinary
classes.  Exactly one declared class has no superclass: the root.  Parameter
bounds are recorded but not checked here; bound satisfaction is decided by
the validity analysis, never during parsing.

The table owns the subclass order: each class's ancestors (the class, then
its superclasses up to the root) are recorded once, during the walk that
rejects extends cycles, and `subclass_of` is a membership test on them.  It
also owns the pool of terms made against it (see `ClassTable.intern`) and
the texts parsed against it (see `terms.parse_type`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from ._lex import TokenStream
from .errors import UnknownClass, ValidationError

RESERVED_WORDS = frozenset({"class", "extends", "super", "Null"})


@dataclass(frozen=True)
class TypeUse:
    """A class or parameter name applied to type-use arguments."""

    name: str
    args: tuple[TypeUse, ...] = ()

    def __str__(self) -> str:
        return format_typeuse(self)

    def mentioned_names(self) -> Iterator[str]:
        yield self.name
        for arg in self.args:
            yield from arg.mentioned_names()


@dataclass(frozen=True)
class TypeParam:
    """A declared type parameter; ``None`` bounds mean the defaults
    (root class above, bottom type below)."""

    name: str
    upper_bound: TypeUse | None = None
    lower_bound: TypeUse | None = None


@dataclass(frozen=True)
class ClassDecl:
    name: str
    params: tuple[TypeParam, ...] = ()
    superclass: TypeUse | None = None

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def is_generic(self) -> bool:
        return bool(self.params)


class ClassTable:
    """Validated, immutable collection of class declarations.

    Construction enforces every table invariant: unique names, resolvable
    references with matching arities, an acyclic extends graph, and exactly
    one root class.  Instances are safe to share across threads.

    The table also holds the pool of type terms made against it, a plain
    dict from each term to itself (see `intern`), the texts parsed against
    it, a plain dict from each text to its term (see `terms.parse_type`).
    Neither is part of the table's value: equality, hashing and pickling
    ignore them, and an unpickled table starts with both empty.
    """

    def __init__(self, decls: Iterable[ClassDecl]):
        ordered = tuple(decls)
        by_name: dict[str, ClassDecl] = {}
        for decl in ordered:
            if decl.name in RESERVED_WORDS:
                raise ValidationError(f"'{decl.name}' is a reserved word")
            if decl.name in by_name:
                raise ValidationError(f"duplicate class '{decl.name}'")
            by_name[decl.name] = decl
        self._ordered = ordered
        self.class_names = tuple(by_name)  # in declaration order
        self._hash = hash(ordered)
        self._by_name = by_name
        self._decls_view: Mapping[str, ClassDecl] = MappingProxyType(by_name)
        self.root = self._validate()
        self._terms: dict = {}  # see intern
        self._parsed: dict = {}  # see terms.parse_type

    # -- validation -------------------------------------------------------

    def _validate(self) -> str:
        for decl in self._ordered:
            param_names = [p.name for p in decl.params]
            if len(set(param_names)) != len(param_names):
                raise ValidationError(f"duplicate parameter name in class '{decl.name}'")
            for p in decl.params:
                if p.name in RESERVED_WORDS:
                    raise ValidationError(f"'{p.name}' is a reserved word")
            scope = set(param_names)
            if decl.superclass is not None:
                if decl.superclass.name in scope:
                    raise ValidationError(
                        f"class '{decl.name}' extends its own parameter "
                        f"'{decl.superclass.name}'")
                self._check_use(decl.superclass, decl, scope)
            for p in decl.params:
                for bound in (p.upper_bound, p.lower_bound):
                    if bound is not None:
                        self._check_use(bound, decl, scope)

        self._ancestors = self._ancestry()
        roots = [d.name for d in self._ordered if d.superclass is None]
        if not roots:
            raise ValidationError("no root class: every class has a superclass")
        if len(roots) > 1:
            raise ValidationError(f"multiple root classes: {', '.join(roots)}")
        root = roots[0]
        if self._by_name[root].is_generic:
            raise ValidationError(f"root class '{root}' must not be generic")
        return root

    def _check_use(self, use: TypeUse, decl: ClassDecl, scope: set[str]) -> None:
        if use.name in scope:
            if use.args:
                raise ValidationError(
                    f"parameter '{use.name}' of class '{decl.name}' "
                    "cannot take type arguments")
            return
        target = self._by_name.get(use.name)
        if target is None:
            raise ValidationError(
                f"unknown name '{use.name}' referenced by class '{decl.name}'")
        if len(use.args) != target.arity:
            raise ValidationError(
                f"class '{use.name}' expects {target.arity} argument(s), "
                f"got {len(use.args)} in class '{decl.name}'")
        for arg in use.args:
            self._check_use(arg, decl, scope)

    def _ancestry(self) -> dict[str, tuple[str, ...]]:
        """Each class's ancestors, nearest first; raises ValidationError on
        an extends cycle."""
        ancestry = {}
        for start in self._by_name:
            chain = [start]
            cur = self._by_name[start].superclass
            while cur is not None:
                if cur.name in chain:
                    raise ValidationError(f"extends cycle through '{cur.name}'")
                chain.append(cur.name)
                cur = self._by_name[cur.name].superclass
            ancestry[start] = tuple(chain)
        return ancestry

    # -- lookup -----------------------------------------------------------

    @property
    def decls(self) -> Mapping[str, ClassDecl]:
        return self._decls_view

    def decl(self, name: str) -> ClassDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownClass(f"unknown class '{name}'") from None

    def arity(self, name: str) -> int:
        return self.decl(name).arity

    def ancestors(self, name: str) -> tuple[str, ...]:
        """The class, then its superclasses up to the root, nearest first."""
        try:
            return self._ancestors[name]
        except KeyError:
            raise UnknownClass(f"unknown class '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def intern(self, term):
        """The table's one object equal to `term`; `term` itself becomes it
        when the table holds none yet.  The pool lives as long as the
        table.  Terms compare structurally whether pooled or not, so sharing
        only makes equal terms identical, which dict lookups test first."""
        return self._terms.setdefault(term, term)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassTable) and self._ordered == other._ordered

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild rather than copy _hash
        return ClassTable, (self._ordered,)

    def __repr__(self) -> str:
        return f"ClassTable({len(self._ordered)} classes, root={self.root!r})"


def subclass_of(table: ClassTable, sub: str, sup: str) -> bool:
    """Reflexive-transitive closure of the declared extends edges."""
    table.decl(sup)
    return sup in table.ancestors(sub)


# -- parsing --------------------------------------------------------------


def parse_class_table(source: str) -> ClassTable:
    """Parse the table DSL; raises ParseError on syntax and ValidationError
    on table-invariant failures."""
    ts = TokenStream(source)
    decls = [_parse_decl(ts)]
    while not ts.at_end():
        decls.append(_parse_decl(ts))
    return ClassTable(decls)


def _parse_decl(ts: TokenStream) -> ClassDecl:
    ts.expect("class")
    name = _parse_name(ts, "class name")
    params: list[TypeParam] = []
    if ts.accept("<"):
        params.append(_parse_param(ts))
        while ts.accept(","):
            params.append(_parse_param(ts))
        ts.expect(">")
    superclass = _parse_typeuse(ts) if ts.accept("extends") else None
    return ClassDecl(name, tuple(params), superclass)


def _parse_param(ts: TokenStream) -> TypeParam:
    name = _parse_name(ts, "parameter name")
    upper = _parse_typeuse(ts) if ts.accept("extends") else None
    lower = _parse_typeuse(ts) if ts.accept("super") else None
    return TypeParam(name, upper, lower)


def _parse_typeuse(ts: TokenStream) -> TypeUse:
    name = _parse_name(ts, "type name")
    args: list[TypeUse] = []
    if ts.accept("<"):
        args.append(_parse_typeuse(ts))
        while ts.accept(","):
            args.append(_parse_typeuse(ts))
        ts.expect(">")
    return TypeUse(name, tuple(args))


def _parse_name(ts: TokenStream, what: str) -> str:
    if ts.peek() in RESERVED_WORDS:
        raise ts.error(f"expected {what}, found reserved word '{ts.peek()}'")
    return ts.expect_ident(what)


# -- printing -------------------------------------------------------------


def format_typeuse(use: TypeUse) -> str:
    if not use.args:
        return use.name
    return use.name + "<" + ", ".join(format_typeuse(a) for a in use.args) + ">"


def format_class_table(table: ClassTable) -> str:
    """Canonical printer; parse_class_table is a left inverse of it."""
    lines = []
    for decl in table.decls.values():
        text = f"class {decl.name}"
        if decl.params:
            text += "<" + ", ".join(_format_param(p) for p in decl.params) + ">"
        if decl.superclass is not None:
            text += f" extends {format_typeuse(decl.superclass)}"
        lines.append(text)
    return "\n".join(lines) + "\n"


def _format_param(param: TypeParam) -> str:
    text = param.name
    if param.upper_bound is not None:
        text += f" extends {format_typeuse(param.upper_bound)}"
    if param.lower_bound is not None:
        text += f" super {format_typeuse(param.lower_bound)}"
    return text
