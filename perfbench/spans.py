"""In-memory spans for the traced benchmark run, and the per-layer metrics
derived from them.

A worker records one span per call into a layer: name, start and end in
`process_time_ns` (the worker's CPU time, not scaled as the end-to-end times
are), the id of the enclosing span, and the run id shared by all spans of one
repetition. Spans stay in memory until the worker exits; the parent writes
them out as JSON lines and computes every per-layer metric from them, so the
span file is the single source of the traced numbers.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import process_time_ns


class Tracer:
    """Nested spans of one single-threaded repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": process_time_ns(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = process_time_ns()
            self._open.pop()


def duration_s(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_time_s(span: dict, spans: list[dict]) -> float:
    """Duration minus the time the span's children cover; spans of one
    single-threaded run nest, so children never overlap."""
    kids = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return (span["end"] - span["start"] - kids) / 1e9


# (name, unit, better, which end-to-end metric it should move on which
# workload); BENCHMARK.json lists the same names, units and directions
LAYER_METRICS = [
    ("sequences.fill_s", "s", "lower", "cpu_s on verify-sums, somewhat on catalogue, not on search"),
    ("sequences.terms", "count", "lower", "as sequences.fill_s"),
    ("sequences.max_term_bits", "bits", "lower", "as sequences.fill_s"),
    ("congruence.sum_s", "s", "lower", "cpu_s and peak_rss_mb on verify-sums"),
    ("congruence.sum_terms", "count", "lower", "as congruence.sum_s"),
    ("congruence.check_s", "s", "lower", "ops_per_cpu_s on verify-sums and catalogue"),
    ("congruence.points", "count", "higher", "as congruence.check_s"),
    ("congruence.points_failed", "count", "lower", "as congruence.check_s"),
    ("congruence.direct_s", "s", "lower", "cpu_s on catalogue only"),
    ("telescoper.search_found_s", "s", "lower", "cpu_s on search"),
    ("telescoper.search_none_s", "s", "lower", "cpu_s on search"),
    ("telescoper.solves", "count", "lower", "cpu_s on search"),
    ("telescoper.build_s", "s", "lower", "cpu_s on search"),
    ("telescoper.certify_symbolic_s", "s", "lower", "cpu_s on search"),
    ("telescoper.certify_numeric_s", "s", "lower", "cpu_s on search"),
    ("telescoper.discover_s", "s", "lower", "cpu_s on search"),
    ("exactmath.nullspace_s", "s", "lower", "cpu_s on search; nothing on verify-sums"),
    ("exactmath.nullspace_calls", "count", "lower", "as exactmath.nullspace_s"),
    ("exactmath.max_rows", "count", "lower", "as exactmath.nullspace_s"),
    ("exactmath.max_cols", "count", "lower", "as exactmath.nullspace_s"),
    ("trace.cpu_s", "s", "lower", "the traced repetition's own unscaled CPU time"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced unscaled CPU time of the same run"),
]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (every span shares one run id)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, pred=lambda s: True):
        return sum(duration_s(s) for s in named(name) if pred(s))

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in named(name))

    searches = named("telescoper.find_telescoper")
    search_ids = {s["id"] for s in searches}
    nullspaces = named("exactmath.nullspace")
    certify_symbolic = total("telescoper.certify_symbolic")
    (root,) = named("workload")
    return {
        "sequences.fill_s": total("sequences.terms"),
        "sequences.terms": attr_sum("sequences.terms", "terms"),
        "sequences.max_term_bits": max((s["attrs"]["max_bits"] for s in named("sequences.terms")), default=0),
        "congruence.sum_s": total("congruence.eval_sum"),
        "congruence.sum_terms": attr_sum("congruence.eval_sum", "terms"),
        "congruence.check_s": total("congruence.verify_claim_range", lambda s: not s["attrs"]["direct"]),
        "congruence.points": attr_sum("congruence.verify_claim_range", "points"),
        "congruence.points_failed": attr_sum("congruence.verify_claim_range", "failed"),
        "congruence.direct_s": total("congruence.verify_claim_range", lambda s: s["attrs"]["direct"]),
        "telescoper.search_found_s": sum(duration_s(s) for s in searches if s["attrs"]["found"]),
        "telescoper.search_none_s": sum(duration_s(s) for s in searches if not s["attrs"]["found"]),
        "telescoper.solves": sum(1 for s in nullspaces if s["parent"] in search_ids),
        "telescoper.build_s": sum(
            self_time_s(s, spans) for s in searches + named("telescoper.discover_weights")
        ),
        "telescoper.certify_symbolic_s": certify_symbolic,
        "telescoper.certify_numeric_s": total("telescoper.certify") - certify_symbolic,
        "telescoper.discover_s": total("telescoper.discover_weights"),
        "exactmath.nullspace_s": total("exactmath.nullspace"),
        "exactmath.nullspace_calls": len(nullspaces),
        "exactmath.max_rows": max((s["attrs"]["rows"] for s in nullspaces), default=0),
        "exactmath.max_cols": max((s["attrs"]["cols"] for s in nullspaces), default=0),
        "trace.cpu_s": duration_s(root),
    }


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
