"""In-memory spans around calls into the program's layers.

The tracer wraps public functions from outside: ``patch`` replaces a
function in every loaded ``nomsub`` module that holds it, so calls made by
the CLI and by the analyses are timed too; ``traced`` wraps a single
function for the benchmark's own calls.  Spans nest by call order, are kept
in memory and are written out by the caller when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time

# Span record: [name, start_ns, end_ns, parent index or -1, op index, error, count]
NAME, START, END, PARENT, OP, ERROR, COUNT = range(7)

FIXPOINT_GROUPS = {
    "fixpoints.f_subtypes": "fixpoints.fsub_fsup_s",
    "fixpoints.f_supertypes": "fixpoints.fsub_fsup_s",
    "fixpoints.exact_fixed_points": "fixpoints.fsub_fsup_s",
    "fixpoints.maximal_f_subtypes": "fixpoints.extrema_s",
    "fixpoints.minimal_f_supertypes": "fixpoints.extrema_s",
    "fixpoints.check_validity": "fixpoints.validity_s",
}

# Layer functions patched for passes that run the CLI in-process.
CLI_LAYER_FUNCTIONS = {
    "nomsub.class_table": ("parse_class_table",),
    "nomsub.relation": ("build_relation", "mutual_pairs"),
    "nomsub.adjunction": ("check_galois", "check_monotonicity", "closure_type",
                          "closure_class", "closed_types"),
    "nomsub.fixpoints": tuple(name.split(".")[1] for name in FIXPOINT_GROUPS),
}

# Sums of span durations, by span name.
SUMMED = {
    "class_table.parse_s": ("class_table.parse_class_table",),
    "adjunction.galois_s": ("adjunction.check_galois",),
    "adjunction.closures_s": ("adjunction.closure_type", "adjunction.closure_class",
                              "adjunction.closed_types"),
    "adjunction.monotonicity_s": ("adjunction.check_monotonicity",),
    "relation.mutual_pairs_s": ("relation.mutual_pairs",),
    "relation.step_s": ("relation.construction_step",),
    "relation.query_s": ("relation.is_subtype",),
    "terms.parse_type_s": ("terms.parse_type",),
    "relation.roundtrip_s": ("relation.export_json", "relation.relation_from_json"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def traced(self, func, name: str, count=None):
        """``func`` wrapped in a span; ``count(result)`` fills the span's count."""
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self.op, False, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if count is not None:
                record[COUNT] = count(result)
            return result

        return wrapper

    def patch(self, module_name: str, attr: str, count=None) -> None:
        """Wrap ``module.attr`` wherever a loaded nomsub module binds it."""
        module = sys.modules[module_name]
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.traced(original, f"{module_name.split('.')[-1]}.{attr}", count)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "nomsub" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_cli_layers(self) -> None:
        for module_name, attrs in CLI_LAYER_FUNCTIONS.items():
            for attr in attrs:
                count = (lambda report: report.checked_pairs) if attr == "check_galois" else None
                self.patch(module_name, attr, count)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def _seconds(span) -> float:
    return (span[END] - span[START]) / 1e9


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times and counts from one pass's spans (zero for a layer
    the pass never reached)."""
    out = {name: 0.0 for name in SUMMED}
    by_name = {}
    for name, names in SUMMED.items():
        for n in names:
            by_name[n] = name
    for span in spans:
        if span[NAME] in by_name:
            out[by_name[span[NAME]]] += _seconds(span)

    def inside_fixpoints(span) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] in FIXPOINT_GROUPS:
                return True
            parent = spans[parent][PARENT]
        return False

    out["relation.build_s"] = sum(_seconds(s) for s in spans
                                  if s[NAME] == "relation.build_relation"
                                  and not inside_fixpoints(s))
    out["adjunction.galois_pairs"] = sum(s[COUNT] for s in spans
                                         if s[NAME] == "adjunction.check_galois")

    out.update({"fixpoints.first_call_s": 0.0, "fixpoints.fsub_fsup_s": 0.0,
                "fixpoints.extrema_s": 0.0, "fixpoints.validity_s": 0.0,
                "fixpoints.failed": 0})
    seen_ops = set()
    for span in spans:
        if span[NAME] not in FIXPOINT_GROUPS or inside_fixpoints(span):
            continue
        if span[OP] not in seen_ops:
            seen_ops.add(span[OP])
            out["fixpoints.first_call_s"] += _seconds(span)
        else:
            out[FIXPOINT_GROUPS[span[NAME]]] += _seconds(span)
        out["fixpoints.failed"] += int(span[ERROR])

    children: dict[int, float] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] = children.get(span[PARENT], 0.0) + _seconds(span)
    out["cli.self_s"] = sum(_seconds(s) - children.get(i, 0.0)
                            for i, s in enumerate(spans) if s[NAME] == "cli.main")
    return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-layer metrics of several traced processes."""
    out: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0) + value
    return out

