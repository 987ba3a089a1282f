"""Graceful degradation of the Datalog fixpoint under budgets.

The soundness claim under test (see ``DatalogProgram.evaluate``): every
stage of the inflationary/semi-naive iteration is a subset of the final
fixpoint (Thm 3.14.2 semantics), so a budget-killed run in ``"fringe"``
mode returns a *sound under-approximation* -- every returned tuple is in
the unbudgeted answer.
"""

from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.constraints.real_poly import RealPolynomialTheory
from repro.core.datalog import DatalogProgram, EngineOptions, Rule
from repro.core.generalized import GeneralizedDatabase
from repro.core.magic import MagicQuery, answer_magic_query
from repro.errors import BudgetExceededError
from repro.logic.parser import parse_rules
from repro.logic.syntax import RelationAtom
from repro.runtime.budget import Budget, supervised
from repro.tableaux.containment import evaluate_tableau, rule_output
from repro.tableaux.tableau import checkbook_query

order = DenseOrderTheory()

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


def _chain_db(n):
    db = GeneralizedDatabase(order)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(n):
        edge.add_point([i, i + 1])
    return db


def _atom_sets(relation):
    return {frozenset(item.atoms) for item in relation}


def _evaluate(db, budget=None, **evaluate_kwargs):
    rules = parse_rules(TC_RULES, theory=order)
    program = DatalogProgram(rules, order, options=EngineOptions(budget=budget))
    return program.evaluate(db, **evaluate_kwargs)


class TestRaiseMode:
    def test_rounds_budget_raises_with_report(self):
        with pytest.raises(BudgetExceededError) as info:
            _evaluate(_chain_db(20), budget=Budget(rounds=3))
        report = info.value.report
        assert report.budget_kind == "rounds"
        assert report.counts["round"] == 4

    def test_tuple_budget_raises(self):
        with pytest.raises(BudgetExceededError) as info:
            _evaluate(_chain_db(20), budget=Budget(tuples=10))
        assert info.value.report.budget_kind == "tuples"

    def test_generous_budget_changes_nothing(self):
        world, stats = _evaluate(
            _chain_db(6), budget=Budget(rounds=1000, tuples=100000)
        )
        baseline, _ = _evaluate(_chain_db(6))
        assert _atom_sets(world.relation("T")) == _atom_sets(
            baseline.relation("T")
        )
        assert not stats.incomplete


class TestFringeMode:
    def test_partial_is_sound_subset(self):
        full_world, full_stats = _evaluate(_chain_db(20))
        part_world, part_stats = _evaluate(
            _chain_db(20), budget=Budget(rounds=3, partial_results="fringe")
        )
        full = _atom_sets(full_world.relation("T"))
        part = _atom_sets(part_world.relation("T"))
        assert part < full  # strictly fewer tuples, all of them sound
        assert part_stats.incomplete
        assert not full_stats.incomplete
        assert part_stats.budget["budget_kind"] == "rounds"

    def test_partial_contains_all_base_edges(self):
        world, stats = _evaluate(
            _chain_db(12), budget=Budget(rounds=2, partial_results="fringe")
        )
        t = world.relation("T")
        for i in range(12):
            assert t.contains_values([Fraction(i), Fraction(i + 1)])
        assert stats.incomplete

    def test_stats_budget_payload_is_structured(self):
        _world, stats = _evaluate(
            _chain_db(20), budget=Budget(tuples=15, partial_results="fringe")
        )
        assert stats.incomplete
        payload = stats.budget
        assert payload["budget_kind"] == "tuples"
        assert payload["scope"] == "global"
        assert payload["counts"]["tuple"] >= 15
        assert stats.as_dict()["incomplete"] is True

    def test_fringe_mode_under_naive_order(self):
        full_world, _ = _evaluate(_chain_db(15))
        part_world, part_stats = _evaluate(
            _chain_db(15),
            budget=Budget(rounds=2, partial_results="fringe"),
            semi_naive=False,
        )
        assert _atom_sets(part_world.relation("T")) <= _atom_sets(
            full_world.relation("T")
        )
        assert part_stats.incomplete

    def test_interval_tuples_fringe_is_sound(self):
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        for i in range(8):
            edge.add_tuple([le(i, "x"), lt("x", "y"), le("y", i + 1)])
        full_world, _ = _evaluate(db)

        db2 = GeneralizedDatabase(order)
        edge2 = db2.create_relation("E", ("x", "y"))
        for i in range(8):
            edge2.add_tuple([le(i, "x"), lt("x", "y"), le("y", i + 1)])
        part_world, part_stats = _evaluate(
            db2, budget=Budget(rounds=2, partial_results="fringe")
        )
        assert part_stats.incomplete
        assert _atom_sets(part_world.relation("T")) <= _atom_sets(
            full_world.relation("T")
        )


class TestDeadlineAcceptance:
    """A dense-order transitive-closure query whose unbudgeted closure
    (11,325 tuples) takes several times the deadline returns a sound
    partial fringe under a 50 ms deadline."""

    N = 150  # long chain: the full closure has N*(N+1)/2 tuples

    def test_deadline_yields_sound_partial_fringe(self):
        part_world, part_stats = _evaluate(
            _chain_db(self.N),
            budget=Budget(deadline_seconds=0.05, partial_results="fringe"),
        )
        assert part_stats.incomplete
        assert part_stats.budget["budget_kind"] == "deadline"

        full_world, full_stats = _evaluate(_chain_db(self.N))
        assert not full_stats.incomplete
        part = _atom_sets(part_world.relation("T"))
        full = _atom_sets(full_world.relation("T"))
        assert part < full
        # the fringe made real progress before the deadline
        assert len(part) >= self.N


class TestAnswerOnlyHelpers:
    """Helpers that return only the answer relation drop the stats, and
    with them the ``incomplete`` tag, so under a fringe budget they must
    raise instead: every call of a ``joins`` sweep returns the complete
    answer or raises :class:`BudgetExceededError` with the trip's report,
    and the sweep sees both."""

    JOINS = (10, 30, 60, 150, 250, 400, 100_000)

    @staticmethod
    def _sweep(run, full):
        outcomes = set()
        for joins in TestAnswerOnlyHelpers.JOINS:
            try:
                with supervised(Budget(joins=joins, partial_results="fringe")):
                    answer = run()
            except BudgetExceededError as error:
                assert error.report.budget_kind == "joins"
                assert error.report.limit == joins
                outcomes.add("raised")
                continue
            assert _atom_sets(answer) == full
            outcomes.add("complete")
        assert outcomes == {"raised", "complete"}

    def test_evaluate_tableau(self):
        db = GeneralizedDatabase(RealPolynomialTheory())
        expenses = db.create_relation("Expenses", ("z", "f", "r", "m"))
        savings = db.create_relation("Savings", ("z", "s", "d1", "d2"))
        income = db.create_relation("Income", ("z", "w", "i", "d3"))
        for user in range(1, 13):
            expenses.add_point([user, 100, 500, user])
            savings.add_point([user, 50, 0, 0])
            # users 1..8 balance: 650 + user = wages + interest
            income.add_point([user, 640 + min(user, 8) * 2 - user, 10, 0])
        full = evaluate_tableau(checkbook_query(), db)
        assert len(full) == 8
        self._sweep(lambda: evaluate_tableau(checkbook_query(), db), _atom_sets(full))

    def test_rule_output(self):
        rule = Rule(
            RelationAtom("P", ("x", "y")),
            (RelationAtom("E", ("x", "z")), RelationAtom("E", ("z", "y"))),
        )
        db = _chain_db(40)
        full = rule_output(rule, db)
        assert len(full) == 39
        self._sweep(lambda: rule_output(rule, db), _atom_sets(full))

    def test_answer_magic_query(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = _chain_db(12)
        query = MagicQuery("T", 2, {0: 0})
        full = answer_magic_query(rules, query, db)
        assert len(full) == 12
        self._sweep(lambda: answer_magic_query(rules, query, db), _atom_sets(full))
