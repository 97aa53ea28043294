"""Type terms: parameterized types over interval arguments, co-free atoms,
and the bottom type.

Every term is an immutable value with structural equality.  Ground terms
and intervals compute their hash and nesting depth once, at construction,
so hashing or measuring a nested term costs O(arity), not O(size).

Terms made against one class table object are shared objects
(hash-consing): the parser, the table-aware constructors below and the
relation's build make every ground term, interval and co-free atom through
the table's pool (`ClassTable.intern`), so equal terms made against that
table are one object.  A label parsed against the table that built a
relation is the universe's own term, and a dict lookup finds it by identity
instead of comparing it node by node.  Equality stays structural: a term
made by ``Ground(...)`` directly, an unpickled one or one made against an
equal but distinct table compares, hashes and indexes the same, only
without the identity shortcut.  The pool lives as long as its table.
Surface syntax::

    type := "Null" | IDENT | IDENT "<" "!" ">" | IDENT "<" arg ("," arg)* ">"
    arg  := type | "?" | "? extends" type | "? super" type
          | "[" type ".." type "]"

Wildcards desugar to intervals: ``?`` is ``[Null..Root]``, ``? extends T``
is ``[Null..T]``, ``? super T`` is ``[T..Root]``, and a concrete argument
``T`` is the point interval ``[T..T]``.  Declared parameter bounds never
affect this desugaring; they matter only to the validity analysis.

`parse_type` parses each text once per table object: the table keeps each
text it parsed with its term, which lives and dies with the table like its
pool; errors are never kept, so a bad text raises on every call.  A relation's
universe, once made, keeps every one of its labels there with its term
(see `relation.build_relation`), so such a label never lexes; any other
text, such as another layout of a label, still lexes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._lex import TokenStream
from .class_table import ClassTable, TypeUse
from .errors import ArityMismatch, BottomHasNoErasure, NotGeneric


# frozen dataclasses set their stored fields through object.__setattr__;
# Ground and Interval write their own __init__ (dataclass keeps it and still
# derives __eq__ and __repr__) to store hash and depth with no __post_init__ call
_set = object.__setattr__


class TypeTerm:
    """Base class for all type terms."""

    __slots__ = ()
    _depth = 0  # nesting depth; only ground terms with arguments nest

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class BottomType(TypeTerm):
    """The least type (surface name ``Null``); below every other term."""

    __slots__ = ()


BOTTOM = BottomType()


@dataclass(frozen=True, slots=True)
class Interval:
    """A pair of term endpoints; wildcards and concrete arguments alike.

    Endpoint order (``lo <: hi``) is relation-relative and deliberately not
    checked at construction time.
    """

    lo: TypeTerm
    hi: TypeTerm
    _hash: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def __init__(self, lo: TypeTerm, hi: TypeTerm):
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "_hash", hash((lo, hi)))
        _set(self, "_depth", max(lo._depth, hi._depth))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild rather than copy _hash
        return Interval, (self.lo, self.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True, slots=True)
class Ground(TypeTerm):
    """A class applied to interval arguments (zero arguments when the class
    is not generic)."""

    cls: str
    args: tuple[Interval, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def __init__(self, cls: str, args: tuple[Interval, ...] = ()):
        _set(self, "cls", cls)
        _set(self, "args", args)
        _set(self, "_hash", hash((cls, args)))
        _set(self, "_depth", 1 + max([iv._depth for iv in args]) if args else 0)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Ground, (self.cls, self.args)


@dataclass(frozen=True)
class Cofree(TypeTerm):
    """The distinguished least instantiation ``C<!>`` of a generic class.

    Not encodable as an interval instantiation, so the relation gives it
    axiomatic edges instead.
    """

    cls: str


def point(term: TypeTerm) -> Interval:
    return Interval(term, term)


def _point(table: ClassTable, term: TypeTerm) -> Interval:
    return table.intern(Interval(term, term))


def root_term(table: ClassTable) -> Ground:
    return table.intern(Ground(table.root))


def wildcard(table: ClassTable) -> Interval:
    return table.intern(Interval(BOTTOM, root_term(table)))


def nesting_depth(term: TypeTerm) -> int:
    return term._depth


def has_cofree(term: TypeTerm) -> bool:
    """Whether the term is a co-free atom or has one among its arguments."""
    if isinstance(term, Ground):
        return any(has_cofree(iv.lo) or has_cofree(iv.hi) for iv in term.args)
    return isinstance(term, Cofree)


def erase(term: TypeTerm) -> str:
    """Drop type arguments, yielding the term's class name."""
    if isinstance(term, (Ground, Cofree)):
        return term.cls
    raise BottomHasNoErasure("the bottom type has no erasure")


def free_type(table: ClassTable, name: str) -> Ground:
    """The fully wildcarded instantiation C<?,...,?> of a class; for a
    non-generic class this is the class's sole type."""
    decl = table.decl(name)
    return table.intern(Ground(name, (wildcard(table),) * decl.arity))


def cofree_type(table: ClassTable, name: str) -> Cofree:
    decl = table.decl(name)
    if not decl.is_generic:
        raise NotGeneric(f"class '{name}' is not generic and has no co-free type")
    return table.intern(Cofree(name))


def term_from_typeuse(table: ClassTable, use: TypeUse,
                      env: dict[str, TypeTerm] | None = None) -> TypeTerm:
    """Interpret a declaration-side type expression as a term, mapping
    parameter names through ``env`` and concrete arguments to point
    intervals."""
    env = env or {}
    if use.name in env:
        return env[use.name]
    args = tuple(_point(table, term_from_typeuse(table, a, env)) for a in use.args)
    return table.intern(Ground(use.name, args))


def super_instantiation(table: ClassTable, term: TypeTerm) -> Ground | None:
    """Push an instantiation one step up its superclass edge.

    A parameter at a direct argument position passes its whole interval
    through; a parameter nested inside a compound argument expression needs
    a point interval, and a non-point interval there makes the result absent
    (conservative skip).  Returns None for terms without a superclass.
    """
    if not isinstance(term, Ground):
        return None
    decl = table.decl(term.cls)
    sup = decl.superclass
    if sup is None:
        return None
    slot = {p.name: iv for p, iv in zip(decl.params, term.args)}
    env = {name: iv.lo for name, iv in slot.items() if iv.is_point}
    args: list[Interval] = []
    for arg in sup.args:
        if not arg.args and arg.name in slot:
            args.append(slot[arg.name])
        elif any(name in slot and name not in env for name in arg.mentioned_names()):
            return None
        else:
            args.append(_point(table, term_from_typeuse(table, arg, env)))
    return table.intern(Ground(sup.name, tuple(args)))


def super_chain(table: ClassTable, term: TypeTerm) -> list[Ground]:
    """Successive super-instantiations of a term, nearest first.  The chain
    stops early where a nested occurrence meets a non-point interval."""
    chain: list[Ground] = []
    cur = super_instantiation(table, term)
    while cur is not None:
        chain.append(cur)
        cur = super_instantiation(table, cur)
    return chain


# -- printing -------------------------------------------------------------


def format_type(term: TypeTerm, table: ClassTable | None = None) -> str:
    """Canonical printed form; parse_type inverts it.  With a table the
    printer uses wildcard sugar (``?`` forms); without one, intervals that
    would need the root are spelled explicitly."""
    return _format(term, table.root if table is not None else None)


def _format(term: TypeTerm, root: str | None) -> str:
    if isinstance(term, BottomType):
        return "Null"
    if isinstance(term, Cofree):
        return f"{term.cls}<!>"
    assert isinstance(term, Ground)
    if not term.args:
        return term.cls
    parts = []
    for iv in term.args:
        lo = _format(iv.lo, root)
        parts.append(format_interval(lo, lo if iv.is_point else _format(iv.hi, root), root))
    return term.cls + "<" + ", ".join(parts) + ">"


def format_interval(lo: str, hi: str, root: str | None) -> str:
    """The printed form of an interval argument from its endpoints' printed
    forms: ``T``, ``?``, ``? extends U``, ``? super L`` or ``[L..U]``, where
    `root` is the root class's name (None spells every interval that would
    need it explicitly).  The printed form is injective, so equal forms
    mean equal endpoints, and only bottom prints as ``Null``."""
    if lo == hi:
        return lo
    if lo == "Null":
        return "?" if hi == root else "? extends " + hi
    if hi == root:
        return "? super " + lo
    return f"[{lo}..{hi}]"


# -- parsing --------------------------------------------------------------

def parse_type(table: ClassTable, text: str) -> TypeTerm:
    """Parse the type surface syntax against a class table."""
    term = table._parsed.get(text)
    if term is None:
        ts = TokenStream(text)
        term = _parse_term(table, ts)
        ts.expect_end()
        table._parsed[text] = term
    return term


def _parse_term(table: ClassTable, ts: TokenStream) -> TypeTerm:
    name = ts.expect_ident("type name")
    if name == "Null":
        return BOTTOM
    decl = table.decl(name)
    if not ts.accept("<"):
        if decl.is_generic:
            raise ArityMismatch(
                f"class '{name}' expects {decl.arity} argument(s), got 0")
        return table.intern(Ground(name))
    if ts.accept("!"):
        ts.expect(">")
        return cofree_type(table, name)
    args = [_parse_arg(table, ts)]
    while ts.accept(","):
        args.append(_parse_arg(table, ts))
    ts.expect(">")
    if len(args) != decl.arity:
        raise ArityMismatch(
            f"class '{name}' expects {decl.arity} argument(s), got {len(args)}")
    return table.intern(Ground(name, tuple(args)))


def _parse_arg(table: ClassTable, ts: TokenStream) -> Interval:
    if ts.accept("?"):
        if ts.accept("extends"):
            return table.intern(Interval(BOTTOM, _parse_term(table, ts)))
        if ts.accept("super"):
            return table.intern(Interval(_parse_term(table, ts), root_term(table)))
        return wildcard(table)
    if ts.accept("["):
        lo = _parse_term(table, ts)
        ts.expect("..")
        hi = _parse_term(table, ts)
        ts.expect("]")
        return table.intern(Interval(lo, hi))
    return _point(table, _parse_term(table, ts))
