"""``BENCH_perf.json``: one append-only entry per (commit, workload)."""

import json

import pytest

from repro.harness.perfrecord import (
    PerfRecordError,
    append_entry,
    main,
    make_entry,
    parse_runs,
)

BENCHMARK = {
    "run_seconds": 25,
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}


def _stdout(workload, seed, ops, p50=2.0, failed=0, skip=()):
    """What ``perfbench/run.py`` prints: a detail line, then a result line."""
    metrics = {"ops_per_s": ops, "op_p50_ms": p50}
    detail = {"workload": workload, "seed": seed, "clients": 1}
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "x"}
            for name, value in metrics.items()
            if name not in skip
        },
    }
    return json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def _runs(*texts):
    return [run for text in texts for run in parse_runs(text)]


def test_an_entry_holds_the_median_and_quartiles_of_each_metric():
    runs = _runs(*(_stdout("live_view", 700 + v, float(v)) for v in (5, 1, 4, 2, 3)))
    entry = make_entry(runs, commit="abc", benchmark=BENCHMARK)
    assert entry["workload"] == "live_view"
    assert entry["seeds"] == [705, 701, 704, 702, 703]
    assert (entry["attempted"], entry["failed"]) == (500, 0)
    ops = entry["metrics"]["ops_per_s"]
    # statistics.quantiles(n=4) over 1..5
    assert (ops["q1"], ops["median"], ops["q3"]) == (1.5, 3.0, 4.5)
    assert ops["unit"] == "1/s"
    assert set(entry["metrics"]) == {"ops_per_s", "op_p50_ms"}
    with pytest.raises(PerfRecordError, match="two runs"):
        make_entry(runs[:1], commit="abc", benchmark=BENCHMARK)


def test_appending_keeps_earlier_entries_byte_identical(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    runs = _runs(_stdout("live_view", 1, 100.0), _stdout("live_view", 2, 110.0))
    first = make_entry(runs, commit="aaa", benchmark=BENCHMARK)
    append_entry(path, first)
    before = path.read_text()
    second = make_entry(runs, commit="bbb", benchmark=BENCHMARK)
    append_entry(path, second)
    after = path.read_text()
    assert after.startswith(before[: -len("\n]\n")] + ",\n")
    assert json.loads(after) == [first, second]
    with pytest.raises(PerfRecordError, match="already has"):
        append_entry(path, second)
    assert path.read_text() == after


def test_runs_of_mixed_workloads_are_rejected():
    runs = _runs(_stdout("live_view", 1, 100.0), _stdout("bound_queries", 2, 300.0))
    with pytest.raises(PerfRecordError, match="mixed workloads"):
        make_entry(runs, commit="abc", benchmark=BENCHMARK)


def test_a_run_missing_a_metric_is_rejected():
    runs = _runs(
        _stdout("live_view", 1, 100.0),
        _stdout("live_view", 2, 100.0, skip=("op_p50_ms",)),
    )
    with pytest.raises(PerfRecordError, match="op_p50_ms"):
        make_entry(runs, commit="abc", benchmark=BENCHMARK)


def test_the_cli_reads_the_benchmark_file_and_never_writes_it(tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    declared = benchmark.read_bytes()
    outs = []
    for seed, ops in ((1, 10.0), (2, 12.0), (3, 11.0)):
        out = tmp_path / f"run{seed}.out"
        out.write_text(_stdout("live_view", seed, ops))
        outs.append(str(out))
    target = tmp_path / "BENCH_perf.json"
    argv = ["--commit", "abc", "--benchmark", str(benchmark), "--out", str(target)]
    assert main(argv + outs) == 0
    assert benchmark.read_bytes() == declared
    (entry,) = json.loads(target.read_text())
    assert entry["run_seconds"] == 25
    assert entry["metrics"]["ops_per_s"]["median"] == 11.0
    # a second entry for the same commit and workload is refused
    assert main(argv + outs) == 2
    assert "already has" in capsys.readouterr().err
