"""Experiment T1.3 (Datalog-not + dense order cell) and E1.11.

Paper claims: inflationary Datalog-not with dense linear order evaluates
bottom-up in closed form with PTIME data complexity (Theorem 3.14.2); the
least fixpoint of Example 1.11's program exists and is finitely
representable.  Measured: transitive closure over growing chains scales
polynomially; the fixpoint of an interval-based (infinite relation) input
terminates with a small closed-form representation; the stratified
complement query also stays polynomial.
"""

from fractions import Fraction


from benchmarks.conftest import report
from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.harness.benchjson import record_bench
from repro.harness.measure import fit_exponent, time_callable
from repro.logic.parser import parse_rules
from repro.workloads.orders import chain_edges

order = DenseOrderTheory()

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


def _closure(db):
    program = DatalogProgram(parse_rules(TC_RULES, theory=order), order)
    world, stats = program.evaluate(db)
    return world, stats


def test_datalog_dense_scaling(benchmark):
    sizes = [4, 8, 16]
    times = []
    stats_rows = {}
    for n in sizes:
        db = chain_edges(n)
        times.append(time_callable(lambda d=db: _closure(d)))
        _, stats = _closure(db)
        stats_rows[n] = {
            "time_s": times[-1],
            "cache_hits": stats.cache_hits,
            "pin_prunes": stats.pin_prunes,
            "iterations": stats.iterations,
        }
    exponent = fit_exponent(sizes, times)
    record_bench(
        "datalog_dense_scaling",
        {
            "workload": "transitive closure over chains (Thm 3.14.2 cell)",
            "sizes": sizes,
            "times_s": times,
            "fitted_exponent": exponent,
            "per_size": stats_rows,
        },
    )
    benchmark(lambda: _closure(chain_edges(8)))
    report(
        "Table 1.3 cell: Datalog-not + dense order",
        "PTIME data complexity (Thm 3.14.2)",
        [
            f"chain sizes {sizes} -> {[f'{t*1000:.0f}ms' for t in times]}",
            f"fitted exponent {exponent:.2f} (polynomial; closure has O(N^2) tuples)",
        ],
    )
    assert exponent < 4.5


def test_infinite_relation_fixpoint(benchmark):
    # Example 1.11 flavour: the EDB is an *infinite* relation (an interval
    # constraint); the closed-form fixpoint is reached in few iterations
    db = GeneralizedDatabase(order)
    edge = db.create_relation("E", ("x", "y"))
    edge.add_tuple([le(0, "x"), lt("x", "y"), le("y", 1)])
    edge.add_tuple([le(2, "x"), lt("x", "y"), le("y", 3)])

    world, stats = benchmark(lambda: _closure(db))
    t = world.relation("T")
    assert t.contains_values([Fraction(0), Fraction(1)])
    assert not t.contains_values([Fraction(1), Fraction(5, 2)])
    report(
        "Example 1.11: fixpoint over an infinite input relation",
        "the least fixpoint exists and is finitely representable",
        [
            f"fixpoint: {len(t)} generalized tuples in {stats.iterations} iterations",
        ],
    )


def test_stratified_complement_scaling(benchmark):
    rules = parse_rules(
        TC_RULES + "U(x, y) :- V(x), V(y), not T(x, y).",
        theory=order,
    )

    def run(n):
        db = chain_edges(n)
        nodes = db.create_relation("V", ("x",))
        for i in range(n + 1):
            nodes.add_point([i])
        program = DatalogProgram(rules, order)
        return program.evaluate(db)

    sizes = [3, 6, 9]
    # one warm-up call lowers the rule variants (PLAN_CACHE), so the
    # smallest chain's time is not the compile's
    run(2)
    times = [time_callable(lambda k=n: run(k)) for n in sizes]
    exponent = fit_exponent(sizes, times)
    benchmark(lambda: run(4))
    report(
        "Table 1.3 cell: Datalog-not (stratified complement query)",
        "negation stays PTIME: each match minus the closure tuples it meets",
        [
            f"sizes {sizes} -> {[f'{t*1000:.0f}ms' for t in times]}",
            f"fitted exponent {exponent:.2f}",
        ],
    )
