"""The closed loop: one client, no think time, whole blocks of operations.

End-to-end numbers come from an untraced run.  With tracing on, blocks
alternate between untraced and traced, so the same run yields the layer
numbers and the tracing overhead (traced against untraced ops/s).

Shared hosts change speed by up to half within minutes, and by a fifth
within seconds, which swamps any change worth detecting.  So the runner
times a fixed reference (see :func:`host_scale`) after every set-up and
after every ``SEGMENT_S`` of operations, and scales those operations' times
by ``REFERENCE_S`` over the reference's time: the reported times read as if
the host had run at one speed throughout.  Pairing each short segment with
the reference timed right after it tracked a fixed engine operation best
when tried over six minutes of drifting host speed: a 25-second window's
scaled median moved with a standard deviation of 1.5%, against 9% for one
scale per run and 16% unscaled.  The unscaled wall-clock times go to the
detail record.

Before every block and every set-up the runner collects garbage and
freezes the survivors (see :func:`settle`), untimed.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from repro.core.compile import PLAN_CACHE

from cqlbench.tracing import layer_metrics
from cqlbench.workloads import WORKLOADS, Op, Workload

#: set-ups per run; setup_s is their median
SETUPS = 5
#: the reference's time, in seconds, that scaled times are relative to
#: (about what it takes on a 2-core x86 host at its fast speed)
REFERENCE_S = 0.0015
#: operation time after which the reference is timed again
SEGMENT_S = 0.05
#: peak_rss_mb is read after this many blocks, a fixed amount of work,
#: because the theory caches grow with every operation a run completes
RSS_BLOCKS = 3


@dataclass
class Loop:
    """What one closed loop measured."""

    #: untraced wall-clock latencies per operation kind
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: the same latencies scaled to the reference host speed
    scaled: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rss_mb: float = 0.0

    def record(self, kind: str, seconds: float, scale: float, traced: bool) -> None:
        if traced:
            self.traced.append(seconds)
        else:
            self.latencies.setdefault(kind, []).append(seconds)
            self.scaled.append(seconds * scale)

    def untraced(self) -> list[float]:
        return [s for values in self.latencies.values() for s in values]


FRACTIONS = [Fraction(k % 997 + 1, k % 43 + 1) for k in range(0, 40_000, 100)]


def _integer_loop() -> None:
    total = 0
    for i in range(20_000):
        total += i * i % 7


def _fraction_loop() -> None:
    total = Fraction(0)
    for a, b in zip(FRACTIONS, FRACTIONS[1:]):
        total += a * b if a < b else a - b


def _median_time(loop: Callable[[], None]) -> float:
    times = []
    for _ in range(3):
        started = time.perf_counter()
        loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def host_scale() -> float:
    """``REFERENCE_S`` over the reference's time right now.

    The reference is the geometric mean of an integer loop and a Fraction
    loop (the dense-order theory's arithmetic), each the median of three.
    Against a fixed engine operation the integer loop tracked the slowest
    moments best and the Fraction loop the median; the mean does well on
    both.
    """
    reference = math.sqrt(_median_time(_integer_loop) * _median_time(_fraction_loop))
    return REFERENCE_S / reference


def settle() -> None:
    """Collect garbage and freeze what survives.

    A full collection scans every tracked object, and the heap grows with
    each operation a run completes (theory caches), so without this its
    50-100 ms pauses land on random operations, make up most of
    program_batch's tail, and do not follow host speed.  Frozen objects are
    skipped by later collections, so an operation pays only for collecting
    what its own block allocated.
    """
    gc.collect()
    gc.freeze()


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples beyond it.

    Nearest-rank; returns (value, percentile).  Below 20 samples no
    percentile above the median qualifies, so the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = 50
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            best = pct
            break
    rank = max(1, math.ceil(best * n / 100))
    return ordered[rank - 1], best


def fastest_fifth(samples: list[float]) -> float:
    """Mean of the fastest fifth of the samples (at least one).

    The median and tail sit on a workload's middle and heaviest kinds; this
    sits on its lightest (live_view inserts, bound_queries cache hits), so
    a regression there moves a bounded metric, not just ops/s.
    """
    ordered = sorted(samples)
    return statistics.fmean(ordered[: max(1, len(ordered) // 5)])


def execute(workload: Workload, op: Op, loop: Loop, traced: bool) -> float:
    """Run one operation and return its latency; a raise or a wrong answer
    counts as failed."""
    tracer = workload.tracer
    tracer.enabled = traced
    loop.attempted += 1
    if traced:
        before = workload.counters()
        tracer.op = str(loop.attempted)
        root = tracer.span(f"op.{op.kind}")
    started = time.perf_counter()
    try:
        if traced:
            with root:
                answer = op.run(tracer)
        else:
            answer = op.run(tracer)
        elapsed = time.perf_counter() - started
        ok = op.check(answer)
    except Exception:  # the loop must survive any failing operation
        elapsed = time.perf_counter() - started
        ok = False
        loop.failures.append(f"{op.label}: {traceback.format_exc(limit=2)}")
    else:
        if not ok:
            loop.failures.append(f"{op.label}: answers differ from the oracle")
    if traced:
        after = workload.counters()
        root.attrs.update({k: after[k] - before[k] for k in after})
        tracer.enabled = False
    loop.failed += 0 if ok else 1
    return elapsed


def run_loop(
    workload: Workload,
    seconds: float,
    trace: bool = False,
    max_blocks: int | None = None,
) -> Loop:
    """Run whole blocks until ``seconds`` have passed (or ``max_blocks``)."""
    loop = Loop()
    stream = workload.stream()
    started = time.perf_counter()
    blocks = 0
    while True:
        if max_blocks is not None and blocks >= max_blocks:
            break
        # a traced run needs at least one untraced and one traced block
        if max_blocks is None and time.perf_counter() - started >= seconds:
            if not trace or blocks >= 2:
                break
        traced = trace and blocks % 2 == 1
        settle()
        # ops are drawn one at a time: a live view's next op depends on the
        # edge model the previous one left behind
        segment: list[tuple[str, float]] = []
        for index in range(workload.block):
            op = next(stream)
            segment.append((op.kind, execute(workload, op, loop, traced)))
            if index == workload.block - 1 or sum(e for _, e in segment) >= SEGMENT_S:
                scale = host_scale()
                loop.scales.append(scale)
                for kind, elapsed in segment:
                    loop.record(kind, elapsed, scale, traced)
                segment = []
        blocks += 1
        if blocks == RSS_BLOCKS:
            loop.rss_mb = peak_rss_mb()
    loop.rss_mb = loop.rss_mb or peak_rss_mb()
    return loop


def timed_setups(workload: Workload, trace: bool) -> float:
    """Median scaled set-up time over cold set-ups; the last one is kept."""
    times = []
    for index in range(SETUPS):
        workload.close()
        PLAN_CACHE.clear()
        tracer = workload.tracer
        tracer.enabled = trace and index == SETUPS - 1
        tracer.op = "setup"
        settle()
        started = time.perf_counter()
        workload.setup()
        times.append((time.perf_counter() - started) * host_scale())
        tracer.enabled = False
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run: set up, loop, check, and report."""
    workload = WORKLOADS[name](seed)
    try:
        setup_s = timed_setups(workload, trace)
        loop = run_loop(workload, seconds, trace)
    finally:
        workload.close()
    samples = loop.untraced()
    detail: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "clients": 1,
        "loop": "closed",
        "error_rate": loop.failed / loop.attempted,
        "failures": loop.failures[:5],
    }
    for kind, values in sorted(loop.latencies.items()):
        value, pct = tail(values)
        detail[f"{kind}_p50_ms"] = statistics.median(values) * 1000
        detail[f"{kind}_tail_ms"] = value * 1000
        detail[f"{kind}_tail_percentile"] = pct
        detail[f"{kind}_samples"] = len(values)
    if trace:
        tracer = workload.tracer
        metrics = layer_metrics(tracer)
        untraced_ops = len(samples) / sum(samples)
        traced_ops = len(loop.traced) / sum(loop.traced)
        coverage = tracer.coverage()
        metrics["trace.untraced_ops_per_s"] = (untraced_ops, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_ops, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_ops / traced_ops, "ratio")
        metrics["trace.span_coverage_min"] = (min(coverage), "ratio")
        detail["traced_ops"] = len(loop.traced)
    else:
        scaled = loop.scaled
        value, pct = tail(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "op_tail_ms": (value * 1000, "ms"),
            "op_fast_ms": (fastest_fifth(scaled) * 1000, "ms"),
            "peak_rss_mb": (loop.rss_mb, "MB"),
        }
        detail["op_tail_percentile"] = pct
        detail["op_samples"] = len(scaled)
        detail["wall_ops_per_s"] = len(samples) / sum(samples)
        detail["wall_op_p50_ms"] = statistics.median(samples) * 1000
        detail["host_scale"] = statistics.median(loop.scales)
    return {
        "detail": detail,
        "tracer": workload.tracer,
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
