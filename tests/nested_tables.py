"""Class tables whose superclass arguments nest a parameter (``B<C<T>>``)."""

NESTED_TABLES = {
    "nested": ("class Object\nclass Str extends Object\nclass C<T> extends Object\n"
               "class B<T> extends Object\nclass A<T extends C<T>> extends B<C<T>>\n"
               "class W extends A<W>"),
    "nested_plain": ("class Object\nclass C<T> extends Object\nclass B<T> extends Object\n"
                     "class A<T> extends B<C<T>>"),
}
