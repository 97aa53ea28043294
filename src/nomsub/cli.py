"""Command-line frontend.

Subcommands bind the analyses to a class-table file with deterministic
text/JSON/DOT output: identical inputs and flags produce byte-identical
output.  Clean boolean answers exit 0; verification violations exit 1;
usage, syntax, and table errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import adjunction, fixpoints, relation
from .analysis import (analyze, closure_doc, closure_laws_hold, galois_doc,
                       labels, maxima_doc, minima_doc, validity_doc)
from .class_table import ClassTable, parse_class_table
from .errors import NomsubError
from .relation import SubtypeRelation, build_relation
from .terms import Interval, format_type, has_cofree, nesting_depth, parse_type


class UsageError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.depth < 0:
            raise UsageError("--depth must be >= 0")
        return args.handler(args, _load_table(args.table))
    except (UsageError, NomsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load_table(path: str) -> ClassTable:
    return parse_class_table(Path(path).read_text(encoding="utf-8"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("table", help="class-table file")
    common.add_argument("--depth", type=int, default=1,
                        help="universe nesting depth (default 1)")
    common.add_argument("--no-cofree", dest="include_cofree",
                        action="store_false",
                        help="build without the co-free axioms")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text")

    parser = argparse.ArgumentParser(
        prog="nomsub",
        description="Construct generic subtyping from subclassing and verify "
                    "its order-theoretic structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="parse and validate a table")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("universe", parents=[common, fmt],
                       help="enumerate the term universe")
    p.set_defaults(handler=_cmd_universe)

    p = sub.add_parser("subtype", parents=[common],
                       help="decide t1 <: t2 in the depth-bounded relation")
    p.add_argument("t1")
    p.add_argument("t2")
    p.set_defaults(handler=_cmd_subtype)

    p = sub.add_parser("build", parents=[common],
                       help="build the relation and export it")
    p.add_argument("--export", choices=["dot", "json"], required=True)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("galois", parents=[common, fmt],
                       help="verify the erasure/free-type adjunction grid")
    p.add_argument("--quantify", choices=["admittable", "valid"],
                   default="admittable")
    p.set_defaults(handler=_cmd_galois)

    p = sub.add_parser("closures", parents=[common, fmt],
                       help="verify closure laws and list closed types")
    p.set_defaults(handler=_cmd_closures)

    for name, kind, help_text in [("fsub", "f-subtypes", "terms Ty with Ty <: F<Ty>"),
                                  ("fsup", "f-supertypes", "terms Ty with F<Ty> <: Ty")]:
        p = sub.add_parser(name, parents=[common, fmt], help=help_text)
        p.add_argument("cls")
        p.set_defaults(handler=_cmd_members, kind=kind)

    for name, help_text in [("maxima", "maximal F-subtypes and free-type comparison"),
                            ("minima", "minimal F-supertypes and co-free comparison")]:
        p = sub.add_parser(name, parents=[common, fmt], help=help_text)
        p.add_argument("cls")
        p.set_defaults(handler=_cmd_extrema)

    p = sub.add_parser("validity", parents=[common, fmt],
                       help="classify instantiations as valid or invalid")
    p.add_argument("--mode", choices=["ind", "coind"], default="ind")
    p.set_defaults(handler=_cmd_validity)

    p = sub.add_parser("report", parents=[common],
                       help="run every analysis, one JSON document")
    p.add_argument("--quantify", choices=["admittable", "valid"],
                   default="admittable")
    p.set_defaults(handler=_cmd_report)
    return parser


def _build(table: ClassTable, args) -> SubtypeRelation:
    return build_relation(table, args.depth, include_cofree=args.include_cofree)


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# -- handlers ----------------------------------------------------------------


def _cmd_check(args, table: ClassTable) -> int:
    print(f"ok: {len(table.decls)} classes, root {table.root}")
    return 0


def _cmd_universe(args, table: ClassTable) -> int:
    # the labels alone: the strata below are built, the top one only staged
    space = relation._universe(table, args.depth, args.include_cofree, relation._ROW_BUDGET)
    if args.format == "json":
        _emit_json({"depth": space.depth, "universe": list(space.labels)})
    else:
        for label in space.labels:
            print(label)
    return 0


def _cmd_subtype(args, table: ClassTable) -> int:
    t1 = parse_type(table, args.t1)
    t2 = parse_type(table, args.t2)
    needed = max(args.depth, nesting_depth(t1), nesting_depth(t2))
    if needed > args.depth:
        print(f"note: deciding at depth {needed} to cover the query terms",
              file=sys.stderr)
    for term, text in ((t1, args.t1), (t2, args.t2)):
        if faults := relation.universe_faults(table, term, needed, args.include_cofree):
            for iv in (f for f in faults if isinstance(f, Interval)):
                print(f"warning: interval in '{text}' has unordered endpoints "
                      f"({format_type(iv.lo, table)} is not a subtype of "
                      f"{format_type(iv.hi, table)})", file=sys.stderr)
            cause = ("co-free atoms are excluded by --no-cofree"
                     if not args.include_cofree and has_cofree(term)
                     else "endpoint-unordered intervals are never enumerated")
            print(f"error: '{text}' is not in the depth-{needed} universe ({cause})",
                  file=sys.stderr)
            return 2
    print("true" if relation.decider(table, needed)(t1, t2) else "false")
    return 0


def _cmd_build(args, table: ClassTable) -> int:
    rel = _build(table, args)
    if args.export == "dot":
        sys.stdout.write(relation.export_dot(rel))
    else:
        sys.stdout.write(relation.export_json(rel))
    return 0


def _cmd_galois(args, table: ClassTable) -> int:
    rel = _build(table, args)
    report = adjunction.check_galois(table, rel, quantify=args.quantify)
    if args.format == "json":
        _emit_json(galois_doc(rel, report))
    else:
        print(f"{len(report.violations)} violations / {report.checked_pairs} pairs "
              f"({len(report.cofree_violations)} co-free-isolated, "
              f"{report.bottom_skipped} bottom skipped)")
        for v in report.violations + report.cofree_violations:
            print(f"  {rel.space.label(v.at)} vs {v.cls}: {v.direction}")
    return 0 if report.ok else 1


def _cmd_closures(args, table: ClassTable) -> int:
    rel = _build(table, args)
    doc = closure_doc(table, rel)
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"unit violations: {len(doc['unit_violations'])}; "
              f"counit violations: {len(doc['counit_violations'])}; "
              f"idempotence violations: {len(doc['idempotence_violations'])}")
        print(f"closed types ({len(doc['closed_types'])}):")
        for label in doc["closed_types"]:
            print(f"  {label}")
    return 0 if closure_laws_hold(doc) else 1


def _cmd_members(args, table: ClassTable) -> int:
    rel = _build(table, args)
    find = fixpoints.f_subtypes if args.kind == "f-subtypes" else fixpoints.f_supertypes
    names = labels(rel, find(table, rel, args.cls).at)
    key = f"{args.kind} of {args.cls}"
    if args.format == "json":
        _emit_json({key: names, "count": len(names)})
    else:
        print(f"{key}: {len(names)}")
        for label in names:
            print(f"  {label}")
    return 0


def _cmd_extrema(args, table: ClassTable) -> int:
    rel = _build(table, args)
    if args.command == "maxima":
        subs = fixpoints.f_subtypes(table, rel, args.cls)
        doc = maxima_doc(rel, fixpoints.maximal_f_subtypes(table, rel, args.cls, subs))
        title, ref = "maximal f-subtypes", doc["free_type"]
        claims = (f"free type is member: {ref['is_member']}; "
                  f"dominates all members: {ref['is_greatest']}")
    else:
        sups = fixpoints.f_supertypes(table, rel, args.cls)
        doc = minima_doc(rel, fixpoints.minimal_f_supertypes(table, rel, args.cls, sups))
        title, ref = "minimal f-supertypes", doc["cofree"]
        claims = (f"co-free type is member: {ref['is_member']}; "
                  f"below all members: {ref['is_least']}")
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"{title} of {args.cls}: {', '.join(doc[args.command]) or '(none)'}")
        print(claims)
    return 0


def _cmd_validity(args, table: ClassTable) -> int:
    rel = _build(table, args)
    inductive, coinductive = fixpoints.check_validity(table, rel)
    assignment = inductive if args.mode == "ind" else coinductive
    doc = validity_doc(rel, assignment)
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"mode {assignment.mode}: {len(doc['valid'])} valid, "
              f"{len(doc['invalid'])} invalid")
        for label in doc["invalid"]:
            print(f"  invalid: {label}")
    return 0


def _cmd_report(args, table: ClassTable) -> int:
    doc = {"table": args.table, **analyze(table, _build(table, args), quantify=args.quantify)}
    _emit_json(doc)
    return 0 if doc["verification_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
