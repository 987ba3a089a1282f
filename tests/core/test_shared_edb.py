"""Evaluation shares the caller's EDB relations and never writes them.

``DatalogProgram.evaluate`` puts the relations a program only reads into
its world by reference, so the join indexes built on them serve every later
evaluation over the same database; it copies only the relations the rules
derive.  These tests pin what callers rely on: their database keeps its
relations, keys and versions through ``evaluate``, ``Engine.query`` and a
``MaterializedView``'s deltas, and a second evaluation probes the EDB index
the first one built.
"""

from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.generalized import GeneralizedTuple
from repro.core.query import Engine
from repro.logic.parser import parse_rules

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

NEGATION_RULES = TC_RULES + """
Q(x, y) :- F(x, y), not T(x, y).
"""


def _database(theory, **relations):
    db = GeneralizedDatabase(theory)
    for name, points in relations.items():
        relation = db.create_relation(name, ("a", "b"))
        for a, b in points:
            relation.add_point([Fraction(a), Fraction(b)])
    return db


def _snapshot(db):
    return {
        name: (frozenset(db.relation(name).keys()), db.relation(name).version)
        for name in db.names()
    }


def _point(theory, a, b):
    return GeneralizedTuple(
        ("a", "b"),
        (
            theory.equality("a", theory.constant(Fraction(a))),
            theory.equality("b", theory.constant(Fraction(b))),
        ),
    )


CHAIN = [(i, i + 1) for i in range(6)]


@pytest.mark.parametrize(
    "rules_text, semi_naive, semantics",
    [
        (TC_RULES, True, "auto"),
        (TC_RULES, False, "auto"),
        (NEGATION_RULES, True, "stratified"),
        (NEGATION_RULES, True, "inflationary"),
    ],
    ids=["semi_naive", "naive", "stratified", "inflationary"],
)
def test_evaluate_leaves_database_untouched(rules_text, semi_naive, semantics):
    theory = DenseOrderTheory()
    # T is derived but also arrives with a fact of its own
    db = _database(theory, E=CHAIN, F=[(0, 3), (0, 9)], T=[(20, 21)])
    before = _snapshot(db)
    program = DatalogProgram(parse_rules(rules_text, theory=theory), theory)
    world, _ = program.evaluate(db, semi_naive=semi_naive, semantics=semantics)
    assert _snapshot(db) == before
    # read-only relations are shared, derived ones are the world's own
    assert world.relation("E") is db.relation("E")
    assert world.relation("F") is db.relation("F")
    assert world.relation("T") is not db.relation("T")
    assert len(world.relation("T")) == 1 + 21


def test_engine_query_leaves_database_untouched():
    theory = DenseOrderTheory()
    db = _database(theory, E=CHAIN)
    before = _snapshot(db)
    engine = Engine(parse_rules(TC_RULES, theory=theory), theory, database=db)
    for goal in ("T(0, y)", "T(x, y), 1 < x, x < 3", "T(x, 4)"):
        assert len(engine.query(goal)) > 0
        assert _snapshot(db) == before  # no magic seed, no IDB added


def test_view_deltas_leave_database_untouched():
    theory = DenseOrderTheory()
    db = _database(theory, E=CHAIN)
    before = _snapshot(db)
    program = DatalogProgram(parse_rules(TC_RULES, theory=theory), theory)
    with MaterializedView(program, db) as view:
        assert view.relation("E") is not db.relation("E")
        view.insert("E", _point(theory, 6, 7))
        view.retract("E", _point(theory, 0, 1))
        assert len(view.relation("E")) == len(CHAIN)
        # refresh re-derives T but keeps the view's EDB relation objects
        edb = view.relation("E")
        view.refresh()
        assert view.relation("E") is edb
    assert _snapshot(db) == before


def test_two_query_misses_build_the_edb_index_once(index_builds):
    theory = DenseOrderTheory()
    db = _database(theory, E=[(i, i + 1) for i in range(12)])
    engine = Engine(parse_rules(TC_RULES, theory=theory), theory, database=db)
    first = engine.query("T(3, y)")
    engine.cache.clear()
    second = engine.query("T(3, y)")
    assert not first.reused and not second.reused
    assert first.stats.index_probes > 0
    assert second.stats.join_steps == first.stats.join_steps
    assert second.stats.index_candidates == first.stats.index_candidates
    edb_builds = [build for build in index_builds if build[0] == "E"]
    assert edb_builds and len(edb_builds) == len(set(edb_builds))
