"""Brute-force subtyping oracle: a naive memoized recursive decision
procedure, written before (and kept independent of) the matrix-based
relation builder.

The oracle decides ``t1 <: t2`` by structural recursion:

* reflexivity, and bottom below everything;
* same-class instantiations by interval containment on the arguments
  (endpoint comparisons recurse into the oracle itself);
* different classes by climbing the superclass chain one instantiation at
  a time;
* a co-free atom ``C<!>`` below every non-bottom term whose class C
  subclasses (co-free atoms and instantiations alike), at every depth.

The only shared code is the term vocabulary and the single-step
super-instantiation substitution; no edge matrix, closure, or fixpoint
machinery is used here.
"""

from __future__ import annotations

from nomsub.class_table import ClassTable, subclass_of
from nomsub.terms import (
    BOTTOM,
    Cofree,
    Ground,
    TypeTerm,
    super_instantiation,
)


class Oracle:
    """Memoized recursive subtype decisions.

    The universe argument no longer affects any answer: every rule reads
    only the two terms and the class table.  It is accepted, and ignored,
    so that callers written for the universe-relative oracle still work.
    Pairs currently on the recursion stack are answered False and not
    memoized (least-fixpoint reading).
    """

    def __init__(self, table: ClassTable, universe):
        self.table = table
        self._memo: dict[tuple[TypeTerm, TypeTerm], bool] = {}
        self._stack: set[tuple[TypeTerm, TypeTerm]] = set()

    def is_subtype(self, t1: TypeTerm, t2: TypeTerm) -> bool:
        if t1 == t2:
            return True
        key = (t1, t2)
        if key in self._memo:
            return self._memo[key]
        if key in self._stack:
            return False
        self._stack.add(key)
        try:
            result = self._decide(t1, t2)
        finally:
            self._stack.discard(key)
        self._memo[key] = result
        return result

    def _decide(self, t1: TypeTerm, t2: TypeTerm) -> bool:
        if t1 == BOTTOM:
            return True
        if t2 == BOTTOM:
            return False
        if isinstance(t1, Cofree):
            return subclass_of(self.table, t1.cls, t2.cls)
        if isinstance(t2, Cofree):
            return False
        assert isinstance(t1, Ground) and isinstance(t2, Ground)
        if t1.cls == t2.cls and all(
            self.is_subtype(b.lo, a.lo) and self.is_subtype(a.hi, b.hi)
            for a, b in zip(t1.args, t2.args)
        ):
            return True
        parent = super_instantiation(self.table, t1)
        return parent is not None and self.is_subtype(parent, t2)
