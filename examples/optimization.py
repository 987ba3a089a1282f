"""Query optimization in the CQL framework (Section 6, open question (3)).

The paper asks "how do various optimization methods combine with our
framework?" and cites Ramakrishnan's magic templates [44].  This example
runs **magic sets** for Datalog: a reachability query bound to one source
only explores the relevant component of the graph.

Run:  python examples/optimization.py
"""

import time
from fractions import Fraction

from repro import DatalogProgram, DenseOrderTheory, GeneralizedDatabase
from repro.core.magic import MagicQuery, answer_magic_query, magic_rewrite
from repro.logic.parser import parse_rules

order = DenseOrderTheory()


def magic_sets() -> None:
    # two disconnected chains; the query asks for reachability from node 0
    db = GeneralizedDatabase(order)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(12):
        edge.add_point([i, i + 1])          # relevant chain
        edge.add_point([100 + i, 101 + i])  # irrelevant chain
    rules = parse_rules(
        """
        T(x, y) :- E(x, y).
        T(x, y) :- T(x, z), E(z, y).
        """,
        theory=order,
    )

    start = time.perf_counter()
    full_world, full_stats = DatalogProgram(rules, order).evaluate(db)
    full_time = time.perf_counter() - start

    query = MagicQuery("T", 2, {0: 0})
    start = time.perf_counter()
    answers = answer_magic_query(rules, query, db)
    magic_time = time.perf_counter() - start

    assert answers.contains_values([Fraction(0), Fraction(12)])
    assert not answers.contains_values([Fraction(100), Fraction(101)])
    print("magic sets (Datalog, query T(0, y)):")
    print(
        f"  full bottom-up: {len(full_world.relation('T'))} tuples, "
        f"{full_stats.tuples_added} added, {full_time*1000:.0f}ms"
    )
    rewritten, answer_name = magic_rewrite(rules, query, order)
    world = db.copy()
    world.create_relation("_magic_T_bf", ("_m0",)).add_point([0])
    magic_world, magic_stats = DatalogProgram(rewritten, order).evaluate(world)
    print(
        f"  magic rewrite:  {len(magic_world.relation(answer_name))} tuples, "
        f"{magic_stats.tuples_added} added, {magic_time*1000:.0f}ms"
    )
    print("  only the component reachable from node 0 is ever explored")


def main() -> None:
    magic_sets()


if __name__ == "__main__":
    main()
