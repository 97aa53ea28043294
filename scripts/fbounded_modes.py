#!/usr/bin/env python3
"""Survey inductive versus coinductive validity over seeded random tables.

Prints one row per table: class count, whether it carries F-bounds, the two
valid-set sizes, and where the modes part ways.  The subset inclusion
(inductive inside coinductive) is asserted throughout.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nomsub import build_relation, check_validity_modes, format_type  # noqa: E402
from nomsub.random_tables import has_f_bounds, random_table  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=20)
    parser.add_argument("--max-classes", type=int, default=6)
    parser.add_argument("--depth", type=int, default=1)
    args = parser.parse_args()

    disagreements = 0
    print(f"{'seed':>4}  {'classes':>7}  {'f-bounds':>8}  {'ind':>5}  {'coind':>5}  gap")
    for seed in range(args.tables):
        table = random_table(seed, max_classes=args.max_classes)
        rel = build_relation(table, args.depth)
        ind, coind = check_validity_modes(table, rel)
        assert ind.valid <= coind.valid
        gap = sorted(format_type(t, table) for t in coind.valid - ind.valid)
        bounded = has_f_bounds(table)
        if gap:
            disagreements += 1
        print(f"{seed:>4}  {len(table.decls):>7}  {str(bounded):>8}  "
              f"{len(ind.valid):>5}  {len(coind.valid):>5}  {', '.join(gap[:4])}")
        if not bounded and gap:
            print("  !! modes must coincide without F-bounds")
            return 1
    print(f"\n{disagreements}/{args.tables} tables separate the modes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
