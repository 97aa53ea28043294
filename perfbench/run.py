#!/usr/bin/env python3
"""Benchmark of the nomsub kernel.

    python3 perfbench/run.py --workload {ladder,survey,queries,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it needs ``src/``, ``tables/`` and
``tests/oracle.py`` there and runs the program from ``src/`` through
``PYTHONPATH``.  Workloads and metrics are defined in ``METRICS.md``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The lines
before it list every metric with its unit and sample count, the extra rows
(per-rung times, failed share) and the environment; the same record is
written to ``.perfbench/results/``.  Exit code 1 means a verdict was wrong,
2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/nomsub/__init__.py", "tests/oracle.py",
            "tables/sample.table", "tables/reduced.table")
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def environment(args) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def print_table(workload: str, outcome) -> None:
    print(f"== {workload}: {outcome.attempted} attempted, {outcome.failed} failed, "
          f"{len(outcome.errors)} wrong verdicts")
    print(f"   {'metric':<28} {'value':>14}  {'unit':<6} samples")
    for rows in (outcome.metrics, outcome.extra):
        for name, m in rows.items():
            print(f"   {name:<28} {m.value:>14.6g}  {m.unit:<6} {m.samples}")
    for error in outcome.errors[:20]:
        print(f"   WRONG: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "survey", "queries", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run; whole passes repeat until it is reached")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs the benchmark's own smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (ROOT / ".perfbench" / "tmp").mkdir(exist_ok=True)

    records = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench" / "tmp") as scratch:
            run = workloads.Run(args.seed, args.seconds, size, Path(scratch),
                                time.monotonic() + RUN_LIMIT_S)
            try:
                outcome = workloads.WORKLOADS[name](run, bool(args.trace))
            except RuntimeError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 2
            samples = run.calibration + run.parent_calibration
            outcome.extra["calibration_s"] = workloads.Metric(median(samples), "s", len(samples))
        print_table(name, outcome)
        record = {
            "workload": name, "trace": args.trace, "env": env,
            "correct": not outcome.errors, "attempted": outcome.attempted,
            "failed": outcome.failed, "errors": outcome.errors,
            "metrics": {k: vars(m) for k, m in outcome.metrics.items()},
            "extra": {k: vars(m) for k, m in outcome.extra.items()},
        }
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        records[name] = record
    print("env " + json.dumps(env, sort_keys=True))

    def short(record, prefix=""):
        return {prefix + k: {"value": m["value"], "unit": m["unit"]}
                for k, m in record["metrics"].items()}

    if len(names) == 1:
        metrics = short(records[names[0]])
    else:
        metrics = {}
        for name, record in records.items():
            metrics.update(short(record, f"{name}/"))
    correct = all(r["correct"] for r in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
