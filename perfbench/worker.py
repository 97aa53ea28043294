"""One fresh interpreter of the benchmark.

It sets up, prints ``ready`` on stdout, runs the operations its spec names
and writes a JSON result file.  The benchmark starts it as

    python3 perfbench/worker.py SPEC.json

from the checkout root with the program's ``src/`` on ``PYTHONPATH``.  Set-up
time is measured by the starting process, from spawn to ``ready``; operation
latencies are measured here.  With ``trace`` set, spans around the layer
calls are recorded in memory and written with the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from spans import END, START, Tracer  # noqa: E402

QUERY_BLOCK = 2000  # queries between two calibration samples
REPORT_BLOCK = 2    # survey reports between two calibration samples


def relation_digest(labels, edges) -> str:
    """Digest of a relation's universe labels and edge matrix."""
    import numpy as np
    digest = hashlib.sha256("\n".join(labels).encode())
    digest.update(np.packbits(np.asarray(edges, dtype=bool)).tobytes())
    return digest.hexdigest()


class Worker:
    def __init__(self, spec: dict):
        self.spec = spec
        self.tracer = Tracer() if spec.get("trace") else None
        self.result: dict = {"mode": spec["mode"]}
        self.top = None  # (universe size, seconds, table, relation) of the largest own build

    # -- set-up ----------------------------------------------------------------

    def import_program(self) -> None:
        started = time.perf_counter()
        importlib.import_module("nomsub.cli")
        self.result["import_s"] = time.perf_counter() - started
        if self.tracer:
            self.tracer.patch_cli_layers()

    def parse(self, path: str):
        from nomsub import class_table
        return class_table.parse_class_table(Path(path).read_text(encoding="utf-8"))

    def build(self, table, depth: int):
        """The relation at ``depth``; traced passes build the strata in
        ascending order so that each build span covers one stratum."""
        from nomsub import relation
        if not self.tracer:
            return relation.build_relation(table, depth)
        for d in range(depth + 1):
            first = len(self.tracer.spans)
            rel = relation.build_relation(table, d)
        span = self.tracer.spans[first]
        seconds = (span[END] - span[START]) / 1e9
        if self.top is None or len(rel) > self.top[0]:
            self.top = (len(rel), seconds, table, rel)
        return rel

    def ready(self) -> None:
        sys.stdout.write("ready\n")
        sys.stdout.flush()

    # -- operations --------------------------------------------------------------

    def run_cli(self, argv: list[str]) -> dict:
        """One in-process CLI call with its output captured."""
        from nomsub import cli
        main = self.tracer.traced(cli.main, "cli.main") if self.tracer else cli.main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def survey(self) -> None:
        """One report per table; a calibration sample before every
        REPORT_BLOCK reports and one after the last."""
        ops, cal = [], []
        self.ready()
        clock = time.perf_counter_ns
        for k, (path, depth) in enumerate(self.spec["ops"]):
            if self.tracer:
                self.tracer.op = k
            if k % REPORT_BLOCK == 0:
                cal.append(calibration.sample())
            t0 = clock()
            try:
                if self.tracer:
                    self.build(self.parse(path), depth)
                record = self.run_cli(["report", path, "--depth", str(depth)])
            except Exception as exc:  # an operation that dies counts as failed
                record = {"code": -1, "stdout": "", "stderr": repr(exc)}
            record["latency_ns"] = clock() - t0
            ops.append(record)
        cal.append(calibration.sample())
        self.result["wall_s"] = sum(op["latency_ns"] for op in ops) / 1e9
        self.result["ops"] = ops
        self.result["calibration"] = cal

    def queries(self, table, rel) -> None:
        from nomsub import relation, terms
        is_subtype, parse_type = relation.is_subtype, terms.parse_type
        export_json, from_json = relation.export_json, relation.relation_from_json
        if self.tracer:
            is_subtype = self.tracer.traced(is_subtype, "relation.is_subtype")
            parse_type = self.tracer.traced(parse_type, "terms.parse_type")
            export_json = self.tracer.traced(export_json, "relation.export_json")
            from_json = self.tracer.traced(from_json, "relation.relation_from_json")
        term_of = dict(zip(rel.labels, rel.universe))
        pairs = [(term_of[a], term_of[b], a, b) for a, b in self.spec["pairs"]]
        stream = list(zip(self.spec["stream"], self.spec["forms"]))
        answers = bytearray(len(stream))
        latencies = [0] * len(stream)
        self.ready()

        clock = time.perf_counter_ns
        cal = []
        for k, (p, by_label) in enumerate(stream):
            if k % QUERY_BLOCK == 0:
                cal.append(calibration.sample())
            t1, t2, s1, s2 = pairs[p]
            t0 = clock()
            try:
                if by_label:
                    answer = is_subtype(rel, parse_type(table, s1), parse_type(table, s2))
                else:
                    answer = is_subtype(rel, t1, t2)
            except Exception:  # an operation that dies counts as failed
                answer = 2
            latencies[k] = clock() - t0
            answers[k] = answer
        cal.append(calibration.sample())
        t0 = clock()
        back = from_json(table, export_json(rel))
        roundtrip_ns = clock() - t0
        cal.append(calibration.sample())

        self.result.update({
            "wall_s": (sum(latencies) + roundtrip_ns) / 1e9,
            "roundtrip_s": roundtrip_ns / 1e9,
            "answers": answers.decode("latin-1").translate({0: "0", 1: "1", 2: "x"}),
            "latencies_ns": latencies,
            "calibration": cal,
            "roundtrip_digest": relation_digest(back.labels, back.edges),
        })

    def finish(self) -> None:
        if self.tracer:
            self.tracer.restore()
            if self.top is not None and self.spec.get("step", True):
                _, seconds, table, rel = self.top
                from nomsub import relation
                step = self.tracer.traced(relation.construction_step,
                                          "relation.construction_step")
                step(table, rel)
                self.result["top"] = {
                    "stratum_s": seconds, "iterations": rel.iterations,
                    "terms": len(rel), "edges": int(rel.edges.sum()),
                    "matrix_mb": rel.edges.nbytes / 2**20,
                }
            self.result["spans"] = self.tracer.spans
        Path(self.spec["result"]).write_text(json.dumps(self.result), encoding="utf-8")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    worker = Worker(spec)
    worker.import_program()
    mode = spec["mode"]
    if mode == "setup":
        if spec["workload"] == "ladder":
            worker.parse(spec["table"])
        elif spec["workload"] == "queries":
            rel = worker.build(worker.parse(spec["table"]), spec["depth"])
            dict(zip(rel.labels, rel.universe))
        worker.ready()
    elif mode == "survey":
        worker.survey()
    elif mode == "queries":
        table = worker.parse(spec["table"])
        rel = worker.build(table, spec["depth"])
        worker.result["universe_size"] = len(rel)
        worker.queries(table, rel)
    elif mode == "rung":
        worker.ready()
        cal = [calibration.sample()]
        clock = time.perf_counter_ns
        t0 = clock()
        if worker.tracer:
            worker.build(worker.parse(spec["table"]), spec["depth"])
        record = worker.run_cli(["galois", "--format", "json", spec["table"],
                                 "--depth", str(spec["depth"])])
        record["latency_ns"] = clock() - t0
        worker.result["ops"] = [record]
        worker.result["calibration"] = cal + [calibration.sample()]
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    worker.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
