"""Hand-written class tables for the superclass arguments the build treats
specially and for bounds the validity analysis checks term by term, and a
lookup of every table the differential tests name."""

from nomsub import parse_class_table
from nomsub.random_tables import random_table

# superclass arguments that nest a parameter (``B<C<T>>``)
NESTED_TABLES = {
    "nested": ("class Object\nclass Str extends Object\nclass C<T> extends Object\n"
               "class B<T> extends Object\nclass A<T extends C<T>> extends B<C<T>>\n"
               "class W extends A<W>"),
    "nested_plain": ("class Object\nclass C<T> extends Object\nclass B<T> extends Object\n"
                     "class A<T> extends B<C<T>>"),
}

# superclass arguments for the chain members, each one superclass step by
# universe index: parameters permuted across positions and closed types
# (whose step lands in the universe), a parameter passed through beside one
# nested in a compound argument, and closed types deeper than the stratum
# below (whose step can land outside it, where the term walks its chain)
INDEX_TABLES = {
    "permuted": ("class Object\nclass Str extends Object\nclass Q<A, B> extends Object\n"
                 "class P<K, V> extends Q<V, K>\nclass R<X> extends P<X, Str>"),
    "closed": ("class Object\nclass Str extends Object\nclass B<T> extends Object\n"
               "class A<T> extends B<Str>\nclass C<T> extends A<T>"),
    "mixed": ("class Object\nclass C<T> extends Object\nclass B<S, U> extends Object\n"
              "class A<T> extends B<C<T>, T>\nclass W extends A<W>"),
    "closed_nested": ("class Object\nclass Str extends Object\nclass C<T> extends Object\n"
                      "class B<T> extends Object\nclass X extends B<C<C<Str>>>\n"
                      "class A<T> extends B<C<Str>>"),
}

# parameters bounded below through each other's class (``G<T super H<T>>``):
# each term's lower F-bound is a term whose own check depends on it
BOUND_TABLES = {
    "mutual": ("class Object\nclass Str extends Object\nclass G<T super H<T>> extends Object\n"
               "class H<T super G<T>> extends Object"),
}


# labels that are prefixes of one another: ``Foo`` sorts before ``Foo2``,
# and ``Foo, `` before ``Foo2, ``, yet ``Foo>`` after ``Foo2>``, so a label's
# last argument sorts by another key than the ones before it (Map's two)
PREFIX_TABLES = {
    "prefixed": ("class Object\nclass Foo extends Object\nclass Foo2 extends Foo\n"
                 "class Box<T> extends Object\nclass Box2<T> extends Box<T>"),
    "map": ("class Object\nclass Foo extends Object\nclass Foo2 extends Foo\n"
            "class Map<K, V> extends Object"),
    # ``A`` continued by a digit, ``_`` and a letter (``A1>`` sorts before
    # ``A>``, and ``A1]`` before ``A]``, but ``A_`` and ``Ab`` after both),
    # ``Null`` continued, and a point in lower case, which sorts after ``[``
    "cased": ("class Object\nclass A extends Object\nclass A1 extends A\nclass a extends Object\n"
              "class Ab<T> extends Object\nclass A_<T> extends Ab<T>\nclass Z9 extends A1\n"
              "class Nullable extends Object"),
}


def named_table(name, request):
    """A table of NESTED_TABLES, INDEX_TABLES, BOUND_TABLES or PREFIX_TABLES,
    ``seedN`` for ``random_table(N)``, or a shipped table by its fixture's
    prefix."""
    for texts in (NESTED_TABLES, INDEX_TABLES, BOUND_TABLES, PREFIX_TABLES):
        if name in texts:
            return parse_class_table(texts[name])
    if name.startswith("seed"):
        return random_table(int(name[4:]))
    return request.getfixturevalue(f"{name}_table")
