"""The end-to-end performance trajectory: ``BENCH_perf.json``.

``python3 perfbench/run.py`` prints two JSON lines per run: a detail record
(``workload``, ``seed``, ...) and a result record (``attempted``,
``failed`` and the end-to-end ``metrics``).  This module turns the saved
stdout of several runs of one workload at one commit into one entry of the
committed trajectory file::

    python -m repro.harness.perfrecord --commit 0c33e31 runs/live_view.*.out

An entry holds the commit, the workload, the run length, the seeds, the
attempted and failed operation counts summed over the runs, and, for every
``end_to_end`` metric ``BENCHMARK.json`` names, its unit, median and
quartiles (``statistics.quantiles`` with ``n=4``).  ``run.py`` does not
print its run length, so entries are made only from runs of the default
length, ``BENCHMARK.json``'s ``run_seconds``, which is what an entry
records.  Fewer than two runs, runs of mixed workloads, runs missing a
metric and a second entry for the same (commit, workload) are rejected.
The file is append-only: one entry per line inside a JSON list, and
appending rewrites only the closing bracket, so earlier entries stay
byte-identical.  ``BENCHMARK.json`` is read, never written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Sequence

#: the trajectory file, in the current working directory by default
DEFAULT_PATH = "BENCH_perf.json"
#: the benchmark declaration the metric names come from
BENCHMARK_PATH = "BENCHMARK.json"

_CLOSE = "\n]\n"

Run = tuple[dict[str, Any], dict[str, Any]]


class PerfRecordError(ValueError):
    """Runs that cannot make one trajectory entry."""


def parse_runs(text: str) -> list[Run]:
    """The (detail, result) pairs in the stdout of ``perfbench/run.py`` runs."""
    runs: list[Run] = []
    detail: dict[str, Any] | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "workload" in record:
            detail = record
        elif "metrics" in record and detail is not None:
            runs.append((detail, record))
            detail = None
    return runs


def make_entry(
    runs: Sequence[Run],
    *,
    commit: str,
    benchmark: dict[str, Any],
) -> dict[str, Any]:
    """One trajectory entry for ``runs`` of a single workload, each of
    ``benchmark``'s default run length."""
    if len(runs) < 2:
        raise PerfRecordError(f"need at least two runs for quartiles, got {len(runs)}")
    workloads = sorted({detail["workload"] for detail, _result in runs})
    if len(workloads) != 1:
        raise PerfRecordError(f"runs of mixed workloads: {', '.join(workloads)}")
    metrics: dict[str, dict[str, Any]] = {}
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = []
        for detail, result in runs:
            found = result["metrics"].get(name)
            if found is None:
                raise PerfRecordError(
                    f"run of seed {detail['seed']} has no metric {name!r}"
                )
            values.append(found["value"])
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": spec["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
        }
    return {
        "commit": commit,
        "workload": workloads[0],
        "run_seconds": benchmark["run_seconds"],
        "seeds": [detail["seed"] for detail, _result in runs],
        "attempted": sum(result["attempted"] for _detail, result in runs),
        "failed": sum(result["failed"] for _detail, result in runs),
        "metrics": metrics,
    }


def append_entry(path: Path, entry: dict[str, Any]) -> None:
    """Append ``entry``, leaving every earlier byte but the closing bracket."""
    line = json.dumps(entry, sort_keys=True)
    if not path.exists():
        path.write_text("[\n" + line + _CLOSE)
        return
    text = path.read_text()
    if not text.endswith(_CLOSE):
        raise PerfRecordError(f"{path} does not end in its closing bracket")
    for earlier in json.loads(text):
        if (earlier["commit"], earlier["workload"]) == (
            entry["commit"],
            entry["workload"],
        ):
            raise PerfRecordError(
                f"{path} already has {entry['workload']} at {entry['commit']}"
            )
    path.write_text(text[: -len(_CLOSE)] + ",\n" + line + _CLOSE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.perfrecord",
        description="Append perfbench runs to the performance trajectory.",
    )
    parser.add_argument("runs", nargs="+", help="saved stdout of default-length run.py runs")
    parser.add_argument("--commit", required=True)
    parser.add_argument("--benchmark", default=BENCHMARK_PATH)
    parser.add_argument("--out", default=DEFAULT_PATH)
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    runs = [run for name in args.runs for run in parse_runs(Path(name).read_text())]
    try:
        entry = make_entry(runs, commit=args.commit, benchmark=benchmark)
        append_entry(Path(args.out), entry)
    except PerfRecordError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"appended {entry['workload']} at {entry['commit']} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
