"""CQL end-to-end benchmark.

Run from the root of a checkout (pure Python, nothing to build)::

    python3 perfbench/run.py --workload program_batch --seed 1 --trace 0

To confirm a claim on a seed not used while making it, re-run the same
workload with another ``--seed``.  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``, the run length the bounds hold for.

Workloads: program_batch, bound_queries, live_view, paper_calculus (see
``perfbench/cqlbench/workloads.py``).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are scaled to one host speed by a
reference loop timed after every block (see ``cqlbench/runner.py``).  The
line before the result is a JSON detail record: per-kind wall-clock
latencies (request/query/insert/retract p50 and tail, with the tail's
percentile and sample count), unscaled ops/s and p50, the host scale, the
error rate and the first failures.
With ``--trace 1`` the spans are written to
``perfbench/traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = config["run_seconds"]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from cqlbench.runner import measure
    from cqlbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        outcome["tracer"].dump(path, outcome["detail"])
    print(json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
