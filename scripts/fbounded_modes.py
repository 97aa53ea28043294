#!/usr/bin/env python3
"""Survey inductive versus coinductive validity over seeded random tables.

Prints one row per table: class count, whether it carries F-bounds, the two
valid-set sizes, and where the modes part ways.  Two hand-written mutually
bounded tables follow the random ones, since random_table draws none on
which the modes differ.  The subset inclusion (inductive inside
coinductive) is asserted throughout, and the script exits 1 when no table
separates the modes, as the inclusion is then never tested on a gap, and 2
when --max-classes lies outside the 2..6 that random_table draws.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nomsub import (  # noqa: E402
    build_relation,
    check_validity,
    format_type,
    parse_class_table,
)
from nomsub.random_tables import has_f_bounds, random_table  # noqa: E402

# Wrap<Unit> and Core<Unit> need each other's upper bound, G<Object> and
# H<Object> each other's lower bound: coinductive validity admits them,
# inductive validity does not
FIXED_TABLES = {
    "wrap": ("class Object\nclass Wrap<T extends Core<T>> extends Object\n"
             "class Core<T extends Wrap<T>> extends Wrap<T>\nclass Unit extends Core<Unit>"),
    "gh": ("class Object\nclass Str extends Object\nclass G<T super H<T>> extends Object\n"
           "class H<T super G<T>> extends Object"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=20)
    parser.add_argument("--max-classes", type=int, default=6)
    parser.add_argument("--depth", type=int, default=1)
    args = parser.parse_args()

    try:
        tables = [(str(seed), random_table(seed, max_classes=args.max_classes))
                  for seed in range(args.tables)]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    tables += [(name, parse_class_table(text)) for name, text in FIXED_TABLES.items()]
    disagreements = 0
    print(f"{'seed':>4}  {'classes':>7}  {'f-bounds':>8}  {'ind':>5}  {'coind':>5}  gap")
    for name, table in tables:
        rel = build_relation(table, args.depth)
        ind, coind = check_validity(table, rel)
        assert ind.valid <= coind.valid
        gap = sorted(format_type(t, table) for t in coind.valid - ind.valid)
        bounded = has_f_bounds(table)
        if gap:
            disagreements += 1
        print(f"{name:>4}  {len(table.decls):>7}  {str(bounded):>8}  "
              f"{len(ind.valid):>5}  {len(coind.valid):>5}  {', '.join(gap[:4])}")
        if not bounded and gap:
            print("  !! modes must coincide without F-bounds")
            return 1
    print(f"\n{disagreements}/{len(tables)} tables separate the modes")
    if not disagreements:
        print("  !! no table separates the modes, so the inclusion was never tested")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
