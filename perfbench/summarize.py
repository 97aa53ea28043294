#!/usr/bin/env python3
"""Summarize benchmark result records into one point of the trajectory.

    python3 perfbench/summarize.py [--label NAME] [--out FILE] RESULT.json...

For every workload and metric of the given records (written by run.py to
``.perfbench/results/``), prints the median, the quartiles and the spread
(distance between the quartiles as a share of the median) over the runs,
and the share of BENCHMARK.json's bound that spread uses.  With ``--out``
the summary is written as JSON, for a later change to quote as its
"before" row.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for record in records:
        key = f"{record['workload']}/trace{record['trace']}"
        entry = out.setdefault(key, {"runs": 0, "seeds": [], "metrics": {}})
        entry["runs"] += 1
        entry["seeds"].append(record["env"]["seed"])
        for group in ("metrics", "extra"):
            for name, m in record[group].items():
                slot = entry["metrics"].setdefault(
                    name, {"unit": m["unit"], "values": [], "samples": []})
                slot["values"].append(m["value"])
                slot["samples"].append(m["samples"])
    for entry in out.values():
        for slot in entry["metrics"].values():
            values = slot["values"]
            mid = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            slot.update(median=mid, q1=q1, q3=q3,
                        spread=(q3 - q1) / abs(mid) if mid else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--label", default="unnamed")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    records = [json.loads(p.read_text(encoding="utf-8")) for p in args.records]
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    summary = summarize(records)
    for key, entry in sorted(summary.items()):
        print(f"== {key}: {entry['runs']} runs, seeds {entry['seeds']}")
        for name, s in entry["metrics"].items():
            used = f"{s['spread'] / bounds[name]:.2f} of bound" if name in bounds else ""
            print(f"   {name:<28} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {used}")
    if args.out:
        envs = {json.dumps({k: v for k, v in r["env"].items() if k != "seed"}, sort_keys=True)
                for r in records}
        doc = {"label": args.label, "environments": [json.loads(e) for e in sorted(envs)],
               "workloads": summary}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
