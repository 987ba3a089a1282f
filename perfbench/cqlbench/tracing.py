"""In-memory spans around the public calls, and the per-layer numbers.

A span has a name (the layer, e.g. ``core.datalog``), a start, an end, a
parent and an operation id.  Each operation's root span is ``op.<kind>``;
the workloads open one child span per public call.  Spans stay in memory
and are written out once, when the run ends.  A disabled tracer hands out
one shared no-op span, so the untraced path pays a method call per span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "attrs", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs: dict[str, Any] = {}

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.op = tracer.op
        self.index = len(tracer.spans)
        tracer.spans.append(self)
        tracer.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL = _NullSpan()


class Tracer:
    """Collects spans while ``enabled``; otherwise every span is a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[_Span] = []
        self.stack: list[int] = []
        self.op: str | None = None

    def span(self, name: str) -> _Span | _NullSpan:
        return _Span(self, name) if self.enabled else _NULL

    # ----------------------------------------------------------- derived
    def roots(self) -> list[_Span]:
        return [s for s in self.spans if s.parent is None and s.name.startswith("op.")]

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        own = {s.index: s.seconds for s in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def coverage(self) -> list[float]:
        """Per operation: the share of its wall time covered by layer spans."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return [covered[r.index] / r.seconds for r in self.roots() if r.seconds > 0]

    def dump(self, path: Path, summary: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "summary": summary,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(document, default=str))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: EvaluationStats fields summed into the per-layer counters
STAT_FIELDS = (
    "iterations",
    "join_steps",
    "rule_firings",
    "tuples_derived",
    "tuples_added",
    "sat_checks",
    "parallel_rounds",
    "rename_cache_hits",
    "rename_cache_misses",
    "complement_cache_hits",
    "complement_cache_misses",
    "index_probes",
    "index_candidates",
    "index_scan_avoided",
    "compiled_firings",
    "fastpath_leaves",
    "compile_seconds",
    "ivm_maintain_seconds",
    "ivm_derived_added",
    "ivm_derived_removed",
    "ivm_overdeleted",
    "ivm_rederived",
)


def stats_attrs(stats: Any) -> dict[str, Any]:
    return {name: getattr(stats, name) for name in STAT_FIELDS}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced operations, each per operation.

    Busy times are span self times; counters are the deltas attached to the
    spans.  Every ratio's base is reported beside it.
    """
    roots = tracer.roots()
    ops = max(1, len(roots))
    own = tracer.self_seconds()
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    query_hit: list[float] = []
    query_miss: list[float] = []
    for span in tracer.spans:
        if span.op == "setup":
            continue
        busy[span.name] += own[span.index]
        calls[span.name] += 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] += value
        if span.name == "core.query":
            (query_hit if span.attrs.get("reused") else query_miss).append(span.seconds)
        # a call's wall time includes its plan-cache fetch and lowering,
        # which is core.compile's busy time, not the caller's
        busy[span.name] -= span.attrs.get("compile_seconds", 0.0)
    busy["core.compile"] += total["compile_seconds"]
    for span in tracer.spans:
        if span.op == "setup" and span.name == "core.ivm.setup":
            total["ivm_setup_s"] = span.seconds

    def per(value: float) -> float:
        return value / ops

    out: dict[str, tuple[float, str]] = {}
    out["logic.parser.calls"] = (per(calls["logic.parser"]), "count/op")
    out["logic.parser.busy_s"] = (per(busy["logic.parser"]), "s/op")
    out["analysis.calls"] = (per(calls["analysis"]), "count/op")
    out["analysis.busy_s"] = (per(busy["analysis"]), "s/op")
    out["analysis.semantic.busy_s"] = (per(busy["analysis.semantic"]), "s/op")
    out["analysis.semantic.containment_checks"] = (per(total["containment_checks"]), "count/op")
    out["analysis.semantic.rules_removed"] = (per(total["rules_removed"]), "count/op")
    out["core.generalized.busy_s"] = (per(busy["core.generalized"]), "s/op")
    hits, misses = total["plan_cache_hits"], total["plan_cache_misses"]
    out["core.compile.busy_s"] = (per(busy["core.compile"]), "s/op")
    out["core.compile.hits"] = (per(hits), "count/op")
    out["core.compile.misses"] = (per(misses), "count/op")
    out["core.compile.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["core.compile.compiled_firings"] = (per(total["compiled_firings"]), "count/op")
    out["core.compile.fastpath_leaves"] = (per(total["fastpath_leaves"]), "count/op")
    out["core.datalog.busy_s"] = (per(busy["core.datalog"]), "s/op")
    for name in (
        "iterations",
        "join_steps",
        "rule_firings",
        "tuples_derived",
        "tuples_added",
        "sat_checks",
        "parallel_rounds",
    ):
        out[f"core.datalog.{name}"] = (per(total[name]), "count/op")
    out["core.datalog.added_per_derived"] = (
        _ratio(total["tuples_added"], total["tuples_derived"]),
        "ratio",
    )
    for cache in ("rename_cache", "complement_cache"):
        h, m = total[f"{cache}_hits"], total[f"{cache}_misses"]
        out[f"core.datalog.{cache}.lookups"] = (per(h + m), "count/op")
        out[f"core.datalog.{cache}.hit_ratio"] = (_ratio(h, h + m), "ratio")
    h, m = total["theory_cache_hits"], total["theory_cache_misses"]
    out["constraints.theory_cache.hits"] = (per(h), "count/op")
    out["constraints.theory_cache.misses"] = (per(m), "count/op")
    out["constraints.theory_cache.hit_ratio"] = (_ratio(h, h + m), "ratio")
    probes = total["index_probes"]
    out["indexing.pool.probes"] = (per(probes), "count/op")
    out["indexing.pool.candidates"] = (per(total["index_candidates"]), "count/op")
    out["indexing.pool.scan_avoided"] = (per(total["index_scan_avoided"]), "count/op")
    out["indexing.pool.candidates_per_probe"] = (
        _ratio(total["index_candidates"], probes),
        "ratio",
    )
    out["core.magic.rules"] = (per(total["magic_rules"]), "count/op")
    out["core.magic.cone_tuples"] = (per(total["cone_tuples"]), "count/op")
    out["core.magic.answers_per_cone_tuple"] = (
        _ratio(total["answers"], total["cone_tuples"]),
        "ratio",
    )
    out["core.magic.full_fallbacks"] = (per(total["full_fallback"]), "count/op")
    h, m = total["query_cache_hits"], total["query_cache_misses"]
    out["core.query.busy_s"] = (per(busy["core.query"]), "s/op")
    out["core.query.hit_ms"] = (_mean(query_hit) * 1000, "ms")
    out["core.query.miss_ms"] = (_mean(query_miss) * 1000, "ms")
    out["core.query.cache.hits"] = (per(h), "count/op")
    out["core.query.cache.misses"] = (per(m), "count/op")
    out["core.query.cache.invalidations"] = (per(total["query_cache_invalidations"]), "count/op")
    out["core.query.cache.hit_ratio"] = (_ratio(h, h + m), "ratio")
    out["core.ivm.setup_s"] = (total["ivm_setup_s"], "s")
    out["core.ivm.insert_busy_s"] = (per(busy["core.ivm.insert"]), "s/op")
    out["core.ivm.retract_busy_s"] = (per(busy["core.ivm.retract"]), "s/op")
    out["core.ivm.maintain_s"] = (per(total["ivm_maintain_seconds"]), "s/op")
    for name in ("derived_added", "derived_removed", "overdeleted", "rederived"):
        out[f"core.ivm.{name}"] = (per(total[f"ivm_{name}"]), "count/op")
    out["core.ivm.rederivation_ratio"] = (
        _ratio(total["ivm_rederived"], total["ivm_overdeleted"]),
        "ratio",
    )
    out["core.calculus.calls"] = (per(calls["core.calculus"]), "count/op")
    out["core.calculus.busy_s"] = (per(busy["core.calculus"]), "s/op")
    out["core.calculus.answers"] = (
        _ratio(total["calculus_answers"], calls["core.calculus"]),
        "count/call",
    )
    out["tableaux.busy_s"] = (per(busy["tableaux"]), "s/op")
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
