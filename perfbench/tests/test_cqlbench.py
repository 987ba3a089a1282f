"""The benchmark's own contract: inputs, oracles, failure counting, tracing."""

from __future__ import annotations

import itertools

import pytest
from cqlbench import oracles
from cqlbench.runner import measure, run_loop, tail, timed_setups
from cqlbench.workloads import WORKLOADS

NAMES = sorted(WORKLOADS)


def _inputs(name: str, seed: int, count: int = 40) -> list:
    workload = WORKLOADS[name](seed)
    workload.setup()
    try:
        stream = itertools.islice(workload.stream(), count)
        return [(op.kind, op.label, op.data) for op in stream]
    finally:
        workload.close()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_oracles_agree_with_engine(name, seed):
    workload = WORKLOADS[name](seed)
    timed_setups(workload, trace=False)
    try:
        loop = run_loop(workload, seconds=0, max_blocks=1)
    finally:
        workload.close()
    assert loop.attempted == workload.block
    assert loop.failed == 0, loop.failures


def _corrupt(op):
    real = op.run

    def run(tracer):
        answer = real(tracer).copy()
        answer.discard(next(iter(answer)))
        return answer

    op.run = run
    return op


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_answer_counts_as_failed(name):
    workload = WORKLOADS[name](3)
    timed_setups(workload, trace=False)
    honest = workload.stream
    # drop one tuple from every non-empty answer of every other operation
    corrupted = 0

    def stream():
        nonlocal corrupted
        for index, op in enumerate(honest()):
            if index % 2 == 0:
                corrupted += 1
                yield _corrupt(op)
            else:
                yield op

    workload.stream = stream
    try:
        loop = run_loop(workload, seconds=0, max_blocks=1)
    finally:
        workload.close()
    empty = sum("StopIteration" in text for text in loop.failures)
    assert loop.failed == corrupted
    assert loop.failed - empty > 0
    assert loop.failed / loop.attempted > 0


def test_raising_operation_never_crashes_the_loop():
    workload = WORKLOADS["paper_calculus"](4)
    timed_setups(workload, trace=False)
    honest = workload.stream

    def stream():
        for op in honest():
            op.run = lambda tracer: 1 / 0
            yield op

    workload.stream = stream
    loop = run_loop(workload, seconds=0, max_blocks=1)
    assert loop.failed == loop.attempted == workload.block
    assert "ZeroDivisionError" in loop.failures[0]


@pytest.mark.parametrize("name", NAMES)
def test_layer_spans_cover_each_operation(name):
    workload = WORKLOADS[name](5)
    timed_setups(workload, trace=True)
    try:
        run_loop(workload, seconds=0, trace=True, max_blocks=2)
    finally:
        workload.close()
    tracer = workload.tracer
    coverage = tracer.coverage()
    assert len(coverage) == workload.block
    assert min(coverage) >= 0.95
    assert {s.op for s in tracer.spans} >= {"setup"}


def test_result_line_reports_every_declared_metric():
    import json
    from pathlib import Path

    config = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    outcome = measure("paper_calculus", 1, seconds=0.1, trace=False)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in config["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    traced = measure("paper_calculus", 1, seconds=0.1, trace=True)["result"]
    assert {m["name"] for m in config["per_layer"]} <= set(traced["metrics"])


def test_tail_keeps_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90)
    assert tail([1.0] * 5) == (1.0, 50)


def test_interval_closed_form():
    spans = [(0, 1), (1, 2), (4, 5)]
    assert oracles.interval_reach(spans, 0, 2)
    assert not oracles.interval_reach(spans, 1, 4)
    assert not oracles.interval_reach(spans, 2, 1)
