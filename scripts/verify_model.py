#!/usr/bin/env python3
"""Run the verification battery (`nomsub.analyze`) on the shipped tables
and print a findings summary.  Exits 1 if any law is violated; unlike
`nomsub report`, co-free Galois mismatches, mutual pairs and inductively
valid terms that are not coinductively valid count as violations too."""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nomsub import analyze, build_relation, parse_class_table  # noqa: E402

RUNS = [("sample.table", 1), ("sample.table", 2), ("reduced.table", 2)]


def verify(name: str, depth: int) -> bool:
    table = parse_class_table((ROOT / "tables" / name).read_text())
    started = time.monotonic()
    rel = build_relation(table, depth)
    print(f"== {name} @ depth {depth}: {len(rel.universe)} terms, "
          f"{rel.iterations} iterations, {time.monotonic() - started:.2f}s")
    doc = analyze(table, rel)

    galois = doc["galois"]
    print(f"   adjunction grid: {len(galois['violations'])} violations / "
          f"{galois['checked_pairs']} pairs")
    closures = doc["closure_laws"]
    print(f"   closure laws: {len(closures['unit_violations'])} unit violations, "
          f"{len(closures['counit_violations'])} counit violations")
    mono = doc["monotonicity"]
    print(f"   monotonicity: erasure {'ok' if mono['erasure_ok'] else 'BROKEN'}, "
          f"free type {'ok' if mono['free_type_ok'] else 'BROKEN'}")
    print(f"   mutual pairs: {len(doc['mutual_pairs'])}")
    validity = doc["validity"]
    ind, coind = (set(validity[mode]["valid"]) for mode in ("inductive", "coinductive"))
    print(f"   validity: {len(ind)} inductive / {len(coind)} "
          f"coinductive (agree: {validity['agree']})")
    for cls, fx in doc["fixpoints"].items():
        print(f"   {cls}: maximal coalgebras {fx['maxima']} "
              f"(free type member={fx['free_type']['is_member']}, "
              f"greatest={fx['free_type']['is_greatest']}); "
              f"minimal algebras {fx['minima']} "
              f"(co-free member={fx['cofree']['is_member']}, "
              f"least={fx['cofree']['is_least']})")
    return (doc["verification_ok"] and not galois["cofree_violations"]
            and not doc["mutual_pairs"] and ind <= coind)


def main() -> int:
    all_ok = all([verify(name, depth) for name, depth in RUNS])
    print("\nverification:", "OK" if all_ok else "VIOLATIONS FOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
