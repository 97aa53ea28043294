"""The three workloads: how each drives the program, checks its verdicts
and turns its timings into metrics.  See METRICS.md for the definitions.

Load is a closed loop with one client: one operation in flight at a time.
Set-up, the timed operations and the verdict checks are kept apart: the
work runs in child processes (CLI calls or ``worker.py``), whose peak RSS
is reported, while the reference answers and the checks run afterwards in
this process.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from nomsub.class_table import ClassTable, parse_class_table
from nomsub.relation import build_relation
from nomsub.terms import Ground, format_type, free_type, point

import calibration
import checks
import inputs
import reference
import spans
from worker import QUERY_BLOCK, REPORT_BLOCK, relation_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
PAIRWISE_RUNGS = ("sample1", "reduced2")


@dataclass(frozen=True)
class Size:
    """How much work one run does; ``FULL`` is the benchmark, ``TINY`` the
    smoke test of the benchmark itself."""

    ladder_small: tuple[tuple[str, str, int], ...]  # (rung, table, depth), every round
    ladder_top: tuple[tuple[str, str, int], ...]    # run once, mid-run
    ladder_rounds: int
    survey_quotas: tuple
    query_pairs: int
    query_stream: int


FULL = Size(
    ladder_small=(("sample1", "sample", 1), ("sample2", "sample", 2),
                  ("reduced2", "reduced", 2)),
    ladder_top=(("reduced3", "reduced", 3),),
    ladder_rounds=5,
    survey_quotas=inputs.SURVEY_QUOTAS,
    query_pairs=inputs.QUERY_PAIRS,
    query_stream=inputs.QUERY_STREAM,
)
TINY = Size(
    ladder_small=(("sample1", "sample", 1),),
    ladder_top=(("sample2", "sample", 2),),
    ladder_rounds=2,
    survey_quotas=((0, 300, 2), (300, None, 1)),
    query_pairs=200,
    query_stream=1000,
)
# A run makes the same number of passes on every commit: as many whole
# passes as fit in --seconds at the seed's speed (the nominal timed seconds
# of one pass), and at least two.
MIN_PASSES = 2
SURVEY_PASS_S = 6.0
QUERIES_PASS_S = 1.2


def passes(seconds: float, nominal_s: float) -> int:
    return max(MIN_PASSES, int(seconds // nominal_s))



@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    extra: dict[str, Metric] = field(default_factory=dict)


@dataclass
class Finished:
    code: int
    stdout: str
    stderr: str
    seconds: float        # spawn to exit
    ready_s: float | None  # spawn to the worker's "ready" line
    peak_mb: float


class Run:
    """One benchmark run: its seed, time budget, scratch directory and the
    child processes it starts (each waited for before it returns)."""

    def __init__(self, seed: int, seconds: float, size: Size, scratch: Path,
                 deadline: float):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.scratch = scratch
        self.deadline = deadline
        # One BLAS thread: the load is one client on one core, and starting
        # OpenBLAS's thread pool costs 30-90 ms per process depending on what
        # else holds the other core.  No measured path calls BLAS.
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
                    "OPENBLAS_NUM_THREADS": "1"}
        self.cache = reference.ReferenceCache(ROOT, ROOT / ".perfbench" / "reference")
        self.calibration: list[float] = []  # every sample of the run, raw
        self.parent_calibration: list[float] = []  # samples taken before each child
        self._specs = 0

    def child(self, argv: list[str], wait_ready: bool = False) -> Finished:
        self.parent_calibration += calibration.samples()
        err_path = self.scratch / f"stderr{self._specs}.txt"
        self._specs += 1
        with open(err_path, "w+b") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            ready_s = None
            try:
                if wait_ready and proc.stdout.readline() == b"ready\n":
                    ready_s = time.perf_counter() - started
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                proc.stdout.close()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return Finished(proc.returncode, out.decode("utf-8", "replace"), stderr,
                        seconds, ready_s, usage.ru_maxrss / 1024)

    def parent_scale(self) -> float:
        """Factor to nominal machine speed for the times this process
        measures around child processes."""
        return calibration.scale_fastest(self.parent_calibration)

    def worker(self, spec: dict) -> tuple[Finished, dict]:
        """Run ``worker.py`` on ``spec``; returns the process and its result."""
        n = self._specs
        spec = {**spec, "result": str(self.scratch / f"result{n}.json")}
        spec_path = self.scratch / f"spec{n}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        done = self.child([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          wait_ready=True)
        result_path = Path(spec["result"])
        if done.code != 0 or not result_path.is_file():
            raise RuntimeError(f"worker {spec['mode']} exited {done.code}: {done.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.calibration += result.get("calibration", [])
        return done, result

    def setup_samples(self, workload: str, have: list[float], want: int = SETUP_SAMPLES,
                      **spec) -> list[float]:
        """Set-up times, topped up with set-up-only workers to ``want``."""
        samples = list(have)
        while len(samples) < want:
            done, _ = self.worker({"mode": "setup", "workload": workload, **spec})
            samples.append(done.ready_s)
        return samples


# -- metrics -------------------------------------------------------------------


def rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: an observed value, never an interpolation."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Slots:
    """Repeated operations.  Each operation (slot) is timed once per pass;
    its latency is its fastest repeat, which filters out the slow phases of
    a shared machine without hiding a slower program."""

    def __init__(self) -> None:
        self.best: dict = {}        # slot -> fastest repeat
        self.completed: dict = {}   # slot -> fastest completed repeat

    def add(self, out: Outcome, slot, seconds: float, ok: bool) -> None:
        out.attempted += 1
        out.failed += not ok
        self.best[slot] = min(seconds, self.best.get(slot, seconds))
        if ok:
            self.completed[slot] = min(seconds, self.completed.get(slot, seconds))


def end_to_end(out: Outcome, run: Run, setups: list[float], slots: Slots,
               peaks: list[float], other_s: float = 0.0, slot_scale: float = 1.0) -> None:
    """The end-to-end metrics.  ``wall_s`` is one pass with every operation
    at its fastest repeat, plus ``other_s`` of timed work that is not an
    operation.  Set-up times, measured from this process, are scaled by
    the run's calibration, and the slots by ``slot_scale``."""
    lat = sorted(v * slot_scale for v in slots.completed.values())
    wall = sum(slots.best.values()) * slot_scale + other_s
    completed = out.attempted - out.failed
    out.metrics.update({
        "setup_s": Metric(median(setups) * run.parent_scale(), "s", len(setups)),
        "wall_s": Metric(wall, "s", len(slots.best)),
        "ops_per_s": Metric(len(lat) / wall, "1/s", len(lat)),
        "op_p50_s": Metric(rank(lat, 0.50), "s", len(lat)),
        "op_p90_s": Metric(rank(lat, 0.90), "s", len(lat)),
        "peak_rss_mb": Metric(max(peaks), "MiB", len(peaks)),
        "completed_ratio": Metric(completed / out.attempted, "ratio", out.attempted),
    })
    out.extra["failed_ratio"] = Metric(out.failed / out.attempted, "ratio", out.attempted)
    if len(lat) >= 1000:  # at least ten samples beyond it
        out.extra["op_p99_s"] = Metric(rank(lat, 0.99), "s", len(lat))


def _scale(result: dict) -> float:
    """A worker's factor to nominal machine speed, from all its samples."""
    return calibration.scale(result["calibration"])


def _scaled_wall(result: dict) -> float:
    return result["wall_s"] * _scale(result)


def per_layer(out: Outcome, results: list[dict], overhead_s: float) -> None:
    """Per-layer metrics from the traced workers' results; times are
    scaled to nominal machine speed."""
    parts = []
    for r in results:
        f = _scale(r)
        parts.append({k: v * f if k.endswith("_s") else v
                      for k, v in spans.layer_metrics(r["spans"]).items()})
    layers = spans.merge(parts)
    tops = [{**r["top"], "stratum_s": r["top"]["stratum_s"] * _scale(r)}
            for r in results if "top" in r]
    top = max(tops, key=lambda t: t["terms"]) if tops else {}
    imports = [r["import_s"] * _scale(r) for r in results]
    n = len(results)
    units = {"adjunction.galois_pairs": "count", "fixpoints.failed": "count"}
    for name, value in layers.items():
        out.metrics[name] = Metric(value, units.get(name, "s"), n)
    out.metrics.update({
        "cli.import_s": Metric(median(imports), "s", len(imports)),
        "relation.top_stratum_s": Metric(top.get("stratum_s", 0.0), "s", 1),
        "relation.iterations": Metric(top.get("iterations", 0), "count", 1),
        "relation.terms": Metric(top.get("terms", 0), "count", 1),
        "relation.edges": Metric(top.get("edges", 0), "count", 1),
        "relation.matrix_mb": Metric(top.get("matrix_mb", 0.0), "MiB", 1),
        "trace.overhead_s": Metric(overhead_s, "s", n),
    })


# -- ladder --------------------------------------------------------------------


def _galois_argv(table: str, depth: int) -> list[str]:
    return [sys.executable, "-m", "nomsub", "galois", "--format", "json",
            f"tables/{table}.table", "--depth", str(depth)]


def _table(name: str) -> tuple[ClassTable, str]:
    text = (ROOT / "tables" / f"{name}.table").read_text(encoding="utf-8")
    return parse_class_table(text), text


def _ladder_expected(run: Run) -> tuple[dict[str, checks.Expected], list[str]]:
    """Expected universe size per rung, and the oracle's pair-for-pair check
    of the relations of PAIRWISE_RUNGS."""
    expected, errors = {}, []
    for rung, name, depth in run.size.ladder_small + run.size.ladder_top:
        table, text = _table(name)
        below = run.cache.stratum(table, text, depth - 1)
        size = reference.universe_size_above(table, below)
        expected[rung] = checks.Expected(rung, depth, size, table.class_names)
        if rung in PAIRWISE_RUNGS:
            rel = build_relation(table, depth)
            errors += checks.check_pairwise(rung, rel.labels, rel.edges,
                                            run.cache.stratum(table, text, depth))
    return expected, errors


def _galois_ok(out: Outcome, exp: checks.Expected, code: int, stdout: str) -> bool:
    """Checks one galois verdict; False for an error exit."""
    if code not in (0, 1):
        return False
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        out.errors.append(f"{exp.name}: galois output is not JSON")
        return True
    errors = checks.check_galois(doc, exp)
    if code == 1 and not errors:
        errors.append(f"{exp.name}: galois exited 1 without reporting a violation")
    out.errors += errors
    return True


def ladder(run: Run, trace: bool) -> Outcome:
    """Rounds of the small rungs, with the top rungs once after the middle
    round; one set-up sample per round."""
    out = Outcome()
    if trace:
        return _ladder_traced(run, out)
    setups, peaks, calls = [], [], []
    rungs = {}
    for r in range(run.size.ladder_rounds):
        setups += run.setup_samples("ladder", [], 1, table="tables/sample.table")
        batch = list(run.size.ladder_small)
        if r == run.size.ladder_rounds // 2:
            batch += run.size.ladder_top
        for rung, name, depth in batch:
            calls.append((rung, run.child(_galois_argv(name, depth))))
            rungs[rung] = rungs.get(rung, 0) + 1
    expected, out.errors = _ladder_expected(run)
    slots = Slots()  # one pass holds each rung once
    for rung, done in calls:
        peaks.append(done.peak_mb)
        slots.add(out, rung, done.seconds,
                  _galois_ok(out, expected[rung], done.code, done.stdout))
    scale = run.parent_scale()
    end_to_end(out, run, setups, slots, peaks, slot_scale=scale)
    for rung, best in slots.completed.items():
        out.extra[f"rung_s.{rung}"] = Metric(best * scale, "s", rungs[rung])
    return out


def _ladder_traced(run: Run, out: Outcome) -> Outcome:
    """Each rung once in a traced worker; the small rungs also untraced, for
    the tracing overhead.  The top rung adds one construction step."""
    traced, outputs, overhead = [], [], 0.0
    for rung, name, depth in run.size.ladder_small + run.size.ladder_top:
        top = (rung, name, depth) in run.size.ladder_top
        spec = {"mode": "rung", "table": f"tables/{name}.table", "depth": depth}
        _, result = run.worker({**spec, "trace": True, "step": top})
        traced.append(result)
        outputs.append((rung, result))
        if not top:
            _, plain = run.worker(spec)
            outputs.append((rung, plain))
            overhead += (result["ops"][0]["latency_ns"] * _scale(result)
                         - plain["ops"][0]["latency_ns"] * _scale(plain)) / 1e9
    expected, out.errors = _ladder_expected(run)
    for rung, result in outputs:
        op = result["ops"][0]
        out.attempted += 1
        out.failed += not _galois_ok(out, expected[rung], op["code"], op["stdout"])
    per_layer(out, traced, overhead)
    return out


# -- survey --------------------------------------------------------------------


def _f_sets(table: ClassTable, below: reference.Stratum) -> dict[str, tuple[list[str], list[str]]]:
    """Oracle F-subtypes and F-supertypes of every unary class, judged in the
    universe one depth up, as the analyses define them."""
    above = reference.stratum_above(table, below)
    oracle = above.oracle()
    sets = {}
    for cls in table.class_names:
        if table.arity(cls) != 1:
            continue
        subs = [label for t, label in zip(below.universe, below.labels)
                if oracle.is_subtype(t, Ground(cls, (point(t),)))]
        sups = [label for t, label in zip(below.universe, below.labels)
                if oracle.is_subtype(Ground(cls, (point(t),)), t)]
        sets[cls] = (subs, sups)
    return sets


def _survey_ops(run: Run) -> tuple[list[inputs.SurveyTable], list[checks.Expected], list[str]]:
    """The survey's tables in run order, what a correct report on each says,
    and the oracle's pair-for-pair check of every depth-1 relation."""
    randoms = inputs.survey_tables(run.seed, run.size.survey_quotas)
    half = len(randoms) // 2
    # sample@2 and sample@1 share strata; the random tables between them
    # evict those from the program's cache, so neither reuses the other's.
    tables = ([inputs.fixed_table(ROOT, "sample", 2)] + randoms[:half]
              + [inputs.fixed_table(ROOT, "reduced", 1)] + randoms[half:]
              + [inputs.fixed_table(ROOT, "sample", 1)])
    expected, errors = [], []
    for st in tables:
        closed = tuple(sorted(format_type(free_type(st.table, c), st.table)
                              for c in st.table.class_names))
        exp = checks.Expected(st.name, st.depth, 0, st.table.class_names, closed)
        if st.stratum is None:  # a shipped table
            below = run.cache.stratum(st.table, st.text, 1)
            if st.depth == 1:
                st.stratum = below
                exp.f_sets = run.cache.get(f"f_sets\0{st.text}",
                                           lambda: _f_sets(st.table, below))
            else:
                exp.universe_size = reference.universe_size_above(st.table, below)
        if st.stratum is not None:
            exp.universe_size = len(st.stratum)
            rel = build_relation(st.table, 1)
            errors += checks.check_pairwise(st.name, rel.labels, rel.edges, st.stratum)
        if st.name.startswith("sample"):
            exp.valid_in_both = ("Enum<Weekday>",)
            exp.valid_in_neither = ("Enum<Object>",)
        expected.append(exp)
        (run.scratch / f"{st.name}.table").write_text(st.text, encoding="utf-8")
    return tables, expected, errors


def _check_reports(out: Outcome, slots: Slots, result: dict,
                   expected: list[checks.Expected], first: list[dict] | None) -> None:
    """Counts, times and checks one pass of reports."""
    ops, cal = result["ops"], result["calibration"]
    if len(ops) != len(expected):
        out.errors.append(f"survey: {len(ops)} reports for {len(expected)} tables")
    for k, (op, exp) in enumerate(zip(ops, expected)):
        ok = op["code"] in (0, 1)
        scale = calibration.scale(calibration.near(cal, k // REPORT_BLOCK))
        slots.add(out, k, op["latency_ns"] / 1e9 * scale, ok)
        if not ok:
            continue
        if first is not None and op["stdout"] != first[k]["stdout"]:
            out.errors.append(f"{exp.name}: report differs between passes")
            continue
        try:
            doc = json.loads(op["stdout"])
        except json.JSONDecodeError:
            out.errors.append(f"{exp.name}: report is not JSON")
            continue
        out.errors += checks.check_report(doc, exp)


def survey(run: Run, trace: bool) -> Outcome:
    out = Outcome()
    tables, expected, out.errors = _survey_ops(run)
    spec = {"mode": "survey",
            "ops": [[str(run.scratch / f"{st.name}.table"), st.depth] for st in tables]}
    slots = Slots()
    if trace:
        _, plain = run.worker(spec)
        _, traced = run.worker({**spec, "trace": True})
        _check_reports(out, slots, plain, expected, None)
        _check_reports(out, slots, traced, expected, plain["ops"])
        per_layer(out, [traced], _scaled_wall(traced) - _scaled_wall(plain))
        return out
    setups, peaks, first = [], [], None
    for _ in range(passes(run.seconds, SURVEY_PASS_S)):
        done, result = run.worker(spec)
        setups.append(done.ready_s)
        peaks.append(done.peak_mb)
        _check_reports(out, slots, result, expected, first)
        first = first or result["ops"]
    setups = run.setup_samples("survey", setups)
    end_to_end(out, run, setups, slots, peaks)
    return out


# -- queries -------------------------------------------------------------------


def queries(run: Run, trace: bool) -> Outcome:
    out = Outcome()
    table, _ = _table("sample")
    rel = build_relation(table, 2)
    top = reference.strata(table, 2, top_matrix=False)[-1]
    if rel.labels != top.labels:
        out.errors.append(f"queries: universe of {len(rel)} terms differs from the oracle's "
                          f"enumeration of {len(top)}")
        return out
    stream = inputs.query_stream(run.seed, table, rel.edges, top,
                                 run.size.query_pairs, run.size.query_stream)
    digest = relation_digest(rel.labels, rel.edges)
    spec = {"mode": "queries", "table": "tables/sample.table", "depth": 2,
            "pairs": stream.pairs, "stream": stream.stream, "forms": stream.forms}
    slots, roundtrips = Slots(), []

    def check(result: dict) -> None:
        answers, cal = result["answers"], result["calibration"]
        scales = [calibration.scale(calibration.near(cal, b)) for b in range(len(cal))]
        for k, (ns, answer) in enumerate(zip(result["latencies_ns"], answers)):
            slots.add(out, k, ns / 1e9 * scales[k // QUERY_BLOCK], answer != "x")
        roundtrips.append(result["roundtrip_s"] * scales[-2])
        out.errors.extend(checks.check_answers(answers, stream.stream, stream.expected))
        if result["universe_size"] != len(top):
            out.errors.append(f"queries: universe of {result['universe_size']} terms, "
                              f"expected {len(top)}")
        if result["roundtrip_digest"] != digest:
            out.errors.append("queries: export_json -> relation_from_json changed the relation")

    if trace:
        _, plain = run.worker(spec)
        _, traced = run.worker({**spec, "trace": True})
        check(plain)
        check(traced)
        per_layer(out, [traced], _scaled_wall(traced) - _scaled_wall(plain))
        return out
    setups, peaks = [], []
    for _ in range(passes(run.seconds, QUERIES_PASS_S)):
        done, result = run.worker(spec)
        setups.append(done.ready_s)
        peaks.append(done.peak_mb)
        check(result)
    setups = run.setup_samples("queries", setups, table="tables/sample.table", depth=2)
    end_to_end(out, run, setups, slots, peaks, other_s=min(roundtrips))
    return out


WORKLOADS = {"ladder": ladder, "survey": survey, "queries": queries}
