#!/usr/bin/env python3
"""Pin the CLI's outputs on a fixed set of inputs as sha256 digests.

Each pin is one command (`report`, `galois --format json` or `build --export
json`) on one input: sample@1, sample@2, reduced@2, every table of
NESTED_TABLES and INDEX_TABLES in tests/nested_tables.py at depth 1, and
`random_table` seeds 0-19 at depths 1 and 2; or one `subtype` query of a
fixed list (see QUERIES), the command that parses type texts.  Its digest is
the sha256 of the exit code, a newline, then stdout, followed by a line
``stderr:`` and stderr when the command writes there.  The commands run in
process, from a directory that holds each table under a fixed file name, so
that the `table` field of a report is the same wherever they run.

    python scripts/pin_outputs.py           # rewrite tests/output_pins.json
    python scripts/pin_outputs.py --check   # list each moved digest, exit 1 if any

tests/test_output_pins.py recomputes every digest in the tier-1 suite.  A
change that alters output on purpose regenerates the file with this script
and lists the digests that moved in CHANGES.md, since it changes a check.

Seven commands too slow for the tier-1 suite, `galois --format json` and
`report` at reduced@3 and at sample@3, `build --export json` at reduced@3,
and `minima --format json ... List` and `validity --format json` at
sample@3, are pinned apart, in
tests/ci_output_pins.json, which no tier-1 test reads: CI's memory steps run
them from the repository root, as `--ci` does here, and compare each run's
digest (see `pin`) with that file.  `--ci` takes about 10-25 s and peaks near
2.5 GiB, the sample@3 build's rows.

    python scripts/pin_outputs.py --ci           # rewrite tests/ci_output_pins.json
    python scripts/pin_outputs.py --ci --check   # compare with it
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "output_pins.json"
CI_PINS = ROOT / "tests" / "ci_output_pins.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from nested_tables import INDEX_TABLES, NESTED_TABLES  # noqa: E402
from nomsub import cli, format_class_table  # noqa: E402
from nomsub.random_tables import random_table  # noqa: E402

COMMANDS = (["report"], ["galois", "--format", "json"], ["build", "--export", "json"])
SEEDS = range(20)
# subtype queries as (table, depth, t1, t2)
QUERIES = (
    # one label in four layouts, the reverse pair, and a pair deeper than the
    # depth, which is decided at its own depth with a note on stderr
    ("sample.table", 2, "List<? extends List<String>>", "List<?>"),
    ("sample.table", 2, "List< ? extends List <String> >", "List<?>"),
    ("sample.table", 2, "List<?\textends\n  List<String>>", "List<?>"),
    ("sample.table", 2, "// leading\nList<? extends List<String>> // trailing", "List<?>"),
    ("sample.table", 2, "List<?>", "List<? extends List<String>>"),
    ("sample.table", 2, "LinkedList<? extends List<? extends List<Object>>>",
     "List<? extends List<?>>"),
    # exit 2: an unordered interval, an unknown class and a syntax error
    ("sample.table", 2, "List<[Object..String]>", "List<?>"),
    ("sample.table", 2, "Nope<String>", "Object"),
    ("sample.table", 2, "List<String", "Object"),
    # superclass arguments that nest a parameter or a closed type
    ("nested.table", 1, "W", "B<C<W>>"),
    ("nested.table", 1, "A<W>", "B<?>"),
    ("nested.table", 1, "B<C<W>>", "A<W>"),
    ("closed_nested.table", 1, "X", "B<? extends C<?>>"),
    ("closed_nested.table", 1, "A<Str>", "B<C<Str>>"),
    ("closed_nested.table", 1, "X", "B<C<Str>>"),
)
# run from the repository root, by the paths CI gives them
CI_CASES = (["galois", "--format", "json", "tables/reduced.table", "--depth", "3"],
            ["report", "tables/reduced.table", "--depth", "3"],
            ["galois", "--format", "json", "tables/sample.table", "--depth", "3"],
            ["minima", "--format", "json", "tables/sample.table", "--depth", "3", "List"],
            ["validity", "--format", "json", "tables/sample.table", "--depth", "3"],
            ["report", "tables/sample.table", "--depth", "3"],
            ["build", "--export", "json", "tables/reduced.table", "--depth", "3"])


def tables() -> dict[str, str]:
    """Each input table's text by its file name."""
    texts = {name: (ROOT / "tables" / name).read_text(encoding="utf-8")
             for name in ("sample.table", "reduced.table")}
    texts.update((f"{name}.table", text) for name, text in {**NESTED_TABLES,
                                                            **INDEX_TABLES}.items())
    texts.update((f"seed{seed}.table", format_class_table(random_table(seed)))
                 for seed in SEEDS)
    return texts


def cases() -> dict[str, list[str]]:
    """Each pinned command line, by its text."""
    runs = [("sample.table", 1), ("sample.table", 2), ("reduced.table", 2)]
    runs += [(name, 1) for name in tables() if name not in ("sample.table", "reduced.table")]
    runs += [(f"seed{seed}.table", 2) for seed in SEEDS]
    argvs = [[*command, name, "--depth", str(depth)]
             for command in COMMANDS for name, depth in runs]
    argvs += [["subtype", name, t1, t2, "--depth", str(depth)]
              for name, depth, t1, t2 in QUERIES]
    return {shlex.join(argv): argv for argv in argvs}


def write_tables(directory: pathlib.Path) -> None:
    for name, text in tables().items():
        (directory / name).write_text(text, encoding="utf-8")


def pin(code: int, stdout: str, stderr: str) -> str:
    """The digest of one command's exit code, stdout and stderr."""
    pinned = f"{code}\n{stdout}"
    if stderr:
        pinned += f"stderr:\n{stderr}"
    return hashlib.sha256(pinned.encode()).hexdigest()


def digest(argv: list[str]) -> str:
    """The pin of one command line, run in process from the current
    directory, which must hold the tables (see write_tables)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return pin(code, out.getvalue(), err.getvalue())


def digests() -> dict[str, str]:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_tables(pathlib.Path(directory))
        os.chdir(directory)
        try:
            return {text: digest(argv) for text, argv in cases().items()}
        finally:
            os.chdir(here)


def ci_digests() -> dict[str, str]:
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        return {shlex.join(argv): digest(argv) for argv in CI_CASES}
    finally:
        os.chdir(here)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed pins instead of rewriting them")
    parser.add_argument("--ci", action="store_true",
                        help="the commands CI pins, in tests/ci_output_pins.json")
    args = parser.parse_args()
    pins, found = (CI_PINS, ci_digests()) if args.ci else (PINS, digests())
    if not args.check:
        pins.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(found)} pins to {pins.relative_to(ROOT)}")
        return 0
    pinned = json.loads(pins.read_text(encoding="utf-8"))
    moved = sorted(k for k in found.keys() | pinned.keys() if found.get(k) != pinned.get(k))
    for text in moved:
        print(f"moved: {text}")
    print(f"{len(moved)} of {len(found)} pins moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
