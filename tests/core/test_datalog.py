"""Tests for Datalog + constraints and inflationary Datalog-not."""

import dataclasses
from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.constraints.equality import EqualityTheory
from repro.constraints.equality import ne as ene
from repro.constraints.real_poly import RealPolynomialTheory, poly_eq
from repro.core.datalog import DatalogProgram, EngineOptions, EvaluationStats, Rule
from repro.core.generalized import GeneralizedDatabase
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    FixpointDivergenceError,
    NotClosedError,
)
from repro.logic.parser import parse_rules
from repro.logic.syntax import Not, RelationAtom
from repro.poly.polynomial import poly_var
from repro.runtime.budget import Budget, metered
from repro.workloads.orders import chain_edges

order = DenseOrderTheory()


class TestRuleValidation:
    def test_head_vars_must_occur(self):
        with pytest.raises(EvaluationError):
            Rule(RelationAtom("S", ("x", "y")), (RelationAtom("R", ("x",)),))

    def test_head_vars_in_constraints_ok(self):
        rule = Rule(
            RelationAtom("S", ("x", "y")),
            (RelationAtom("R", ("x",)), lt("x", "y")),
        )
        assert rule.constraint_atoms == [lt("x", "y")]

    def test_predicates(self):
        rules = parse_rules("S(x, y) :- R(x, z), S(z, y).", theory=order)
        program = DatalogProgram(rules, order)
        assert program.idb_predicates() == {"S"}
        assert program.edb_predicates() == {"R"}
        assert program.is_recursive()

    def test_nonrecursive(self):
        rules = parse_rules("S(x) :- R(x, y).", theory=order)
        assert not DatalogProgram(rules, order).is_recursive()


class TestTransitiveClosure:
    """Example 1.11 shape: recursive rules over dense order."""

    def _edges_db(self):
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        edge.add_point([1, 2])
        edge.add_point([2, 3])
        edge.add_point([3, 4])
        return db

    def test_points_closure(self):
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            """,
            theory=order,
        )
        program = DatalogProgram(rules, order)
        world, stats = program.evaluate(self._edges_db())
        t = world.relation("T")
        assert t.contains_values([Fraction(1), Fraction(4)])
        assert t.contains_values([Fraction(2), Fraction(3)])
        assert not t.contains_values([Fraction(4), Fraction(1)])
        assert stats.iterations >= 3

    def test_interval_closure_terminates(self):
        # edges from every x in [0,1] to every y in [x, x] shifted intervals
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        edge.add_tuple([le(0, "x"), lt("x", "y"), le("y", 1)])
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            """,
            theory=order,
        )
        program = DatalogProgram(rules, order)
        world, stats = program.evaluate(db)
        t = world.relation("T")
        assert t.contains_values([Fraction(0), Fraction(1)])
        assert not t.contains_values([Fraction(1), Fraction(0)])

    def test_naive_and_semi_naive_agree(self):
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            """,
            theory=order,
        )
        db = self._edges_db()
        world_naive, _ = DatalogProgram(rules, order).evaluate(db, semi_naive=False)
        world_semi, _ = DatalogProgram(rules, order).evaluate(db, semi_naive=True)
        naive_keys = {t.atom_set() for t in world_naive.relation("T")}
        semi_keys = {t.atom_set() for t in world_semi.relation("T")}
        assert naive_keys == semi_keys

    def test_example_111_constraint_rule(self):
        # Example 1.11: R(x,y) :- R(x,z), R0(z,y), x < y, y < z
        db = GeneralizedDatabase(order)
        r0 = db.create_relation("R0", ("x", "y"))
        r0.add_point([1, 5])
        r0.add_point([5, 3])
        rules = parse_rules(
            """
            R(x, y) :- R0(x, y).
            R(x, y) :- R(x, z), R0(z, y), x < y, y < z.
            """,
            theory=order,
        )
        world, _ = DatalogProgram(rules, order).evaluate(db)
        r = world.relation("R")
        # base tuples present
        assert r.contains_values([Fraction(1), Fraction(5)])
        # derived: R(1,5), R0(5,3), 1 < 3, 3 < 5 -> R(1,3)
        assert r.contains_values([Fraction(1), Fraction(3)])


class TestEqualityDatalog:
    def test_same_generation_style(self):
        eqt = EqualityTheory()
        db = GeneralizedDatabase(eqt)
        edge = db.create_relation("E", ("x", "y"))
        edge.add_point(["a", "b"])
        edge.add_point(["b", "c"])
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            """,
            theory=eqt,
        )
        world, _ = DatalogProgram(rules, eqt).evaluate(db)
        assert world.relation("T").contains_values(["a", "c"])

    def test_infinite_relation_in_fixpoint(self):
        # facts carrying disequality constraints flow through recursion
        eqt = EqualityTheory()
        db = GeneralizedDatabase(eqt)
        r = db.create_relation("R", ("x", "y"))
        r.add_tuple([ene("x", "y")])
        rules = parse_rules("S(x) :- R(x, y), y = 1.", theory=eqt)
        world, _ = DatalogProgram(rules, eqt).evaluate(db)
        s = world.relation("S")
        assert s.contains_values([0])
        assert s.contains_values([2])
        assert not s.contains_values([1])


class TestInflationaryNegation:
    def test_complement_via_negation(self):
        db = GeneralizedDatabase(order)
        r = db.create_relation("R", ("x",))
        r.add_tuple([le(0, "x"), le("x", 1)])
        base = db.create_relation("U", ("x",))
        base.add_tuple([le(-10, "x"), le("x", 10)])
        rules = [
            Rule(
                RelationAtom("S", ("x",)),
                (RelationAtom("U", ("x",)), Not(RelationAtom("R", ("x",)))),
            )
        ]
        program = DatalogProgram(rules, order)
        world, _ = program.evaluate(db)
        s = world.relation("S")
        assert s.contains_values([Fraction(5)])
        assert not s.contains_values([Fraction(1, 2)])

    def test_negated_idb_inflationary(self):
        # win/lose style: W(x) :- M(x, y), not W(y) -- inflationary semantics
        db = GeneralizedDatabase(order)
        move = db.create_relation("M", ("x", "y"))
        move.add_point([1, 2])  # position 1 moves to 2
        move.add_point([2, 3])  # position 2 moves to 3; 3 is lost
        rules = parse_rules(
            "W(x) :- M(x, y), not W(y).",
            theory=order,
        )
        program = DatalogProgram(rules, order)
        assert program.has_negation()
        world, stats = program.evaluate(db)
        w = world.relation("W")
        # round 1: both 1 and 2 enter W (W empty); inflationary keeps both
        assert w.contains_values([Fraction(2)])
        assert w.contains_values([Fraction(1)])


class TestClosureGuard:
    def test_polynomial_recursion_refused(self):
        poly = RealPolynomialTheory()
        x, y, z = poly_var("x"), poly_var("y"), poly_var("z")
        rules = [
            Rule(RelationAtom("S", ("x", "y")), (RelationAtom("R", ("x", "y")),)),
            Rule(
                RelationAtom("S", ("x", "y")),
                (RelationAtom("R", ("x", "z")), RelationAtom("S", ("z", "y"))),
            ),
        ]
        with pytest.raises(NotClosedError):
            DatalogProgram(rules, poly)

    def test_example_112_divergence(self):
        # transitive closure of y = 2x diverges: each iteration adds y = 2^i x
        poly = RealPolynomialTheory()
        x, y, z = poly_var("x"), poly_var("y"), poly_var("z")
        rules = [
            Rule(RelationAtom("S", ("x", "y")), (RelationAtom("R", ("x", "y")),)),
            Rule(
                RelationAtom("S", ("x", "y")),
                (RelationAtom("R", ("x", "z")), RelationAtom("S", ("z", "y"))),
            ),
        ]
        program = DatalogProgram(rules, poly, allow_unsafe_recursion=True)
        db = GeneralizedDatabase(poly)
        r = db.create_relation("R", ("x", "y"))
        r.add_tuple([poly_eq(y, 2 * x)])
        with pytest.raises(FixpointDivergenceError):
            program.evaluate(db, max_iterations=6)

    def test_nonrecursive_polynomial_allowed(self):
        poly = RealPolynomialTheory()
        rules = parse_rules("S(x) :- R(x, y), y = 0.", theory=poly)
        program = DatalogProgram(rules, poly)  # no recursion: fine
        db = GeneralizedDatabase(poly)
        r = db.create_relation("R", ("x", "y"))
        x, y = poly_var("x"), poly_var("y")
        r.add_tuple([poly_eq(y, x * x - 4)])
        world, _ = program.evaluate(db)
        s = world.relation("S")
        assert s.contains_values([Fraction(2)])
        assert s.contains_values([Fraction(-2)])
        assert not s.contains_values([Fraction(0)])


class TestStats:
    def test_rounds_recorded(self):
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            """,
            theory=order,
        )
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        for i in range(5):
            edge.add_point([i, i + 1])
        program = DatalogProgram(rules, order)
        _, stats = program.evaluate(db)
        assert stats.per_round_new[-1] == 0
        assert sum(stats.per_round_new) == stats.tuples_added
        assert stats.rule_firings > 0

    def test_merge_is_additive(self):
        a = EvaluationStats(join_steps=3, rule_firings=1, index_probes=2)
        b = EvaluationStats(join_steps=4, rule_firings=5, pin_prunes=7)
        a.merge(b)
        assert a.join_steps == 7
        assert a.rule_firings == 6
        assert a.index_probes == 2
        assert a.pin_prunes == 7

    def test_merge_leaves_round_bookkeeping_alone(self):
        a = EvaluationStats(iterations=2, per_round_new=[1])
        a.merge(EvaluationStats(iterations=9, per_round_new=[5, 5]))
        assert a.iterations == 2
        assert a.per_round_new == [1]

    def test_as_dict_covers_every_field(self):
        stats = EvaluationStats(
            join_steps=4,
            magic_fallback_predicates=("T",),
            per_round_new=[2, 0],
            budget={"budget_kind": "joins"},
        )
        payload = stats.as_dict()
        names = {spec.name for spec in dataclasses.fields(stats)}
        assert set(payload) == names | {"cache_hits", "ivm_rederivation_ratio"}
        assert payload["join_steps"] == 4
        # containers come back as JSON-ready copies
        assert payload["magic_fallback_predicates"] == ["T"]
        assert payload["per_round_new"] == [2, 0]
        assert payload["per_round_new"] is not stats.per_round_new
        assert payload["budget"] == {"budget_kind": "joins"}
        assert payload["budget"] is not stats.budget

    def test_parallel_rounds_reads_zero(self):
        # rounds always run serially; the name stays readable for the
        # perfbench tracer but is not part of the exported stats
        _world, stats = _evaluate_three_way(6)
        assert stats.iterations > 0
        assert stats.parallel_rounds == 0
        assert "parallel_rounds" not in stats.as_dict()

    def test_complement_cache_counters_read_zero(self):
        # a negated atom is a difference step of the join and no complement
        # is memoized; the names stay readable for the perfbench tracer
        rules = parse_rules("S(x) :- V(x), not R(x).", theory=order)
        db = GeneralizedDatabase(order)
        db.create_relation("V", ("x",)).add_point([1])
        db.create_relation("R", ("x",)).add_point([1])
        _world, stats = DatalogProgram(rules, order).evaluate(db)
        assert stats.join_steps == 2  # V's tuple, then R's candidate
        assert stats.complement_cache_hits == stats.complement_cache_misses == 0
        assert "complement_cache_misses" not in stats.as_dict()


#: two recursive rules plus a three-way join: several tasks per round
THREE_WAY_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
S(x, w) :- E(x, y), T(y, z), E(z, w).
"""


def _evaluate_three_way(n=10, **options):
    program = DatalogProgram(
        parse_rules(THREE_WAY_RULES, theory=order),
        order,
        options=EngineOptions(**options),
    )
    return program.evaluate(chain_edges(n))


def _fingerprint(world):
    return {
        name: frozenset(t.atoms for t in world.relation(name))
        for name in ("T", "S")
    }


class TestSerialRounds:
    def test_repeated_runs_identical(self):
        worlds = [_evaluate_three_way()[0] for _ in range(3)]
        for name in ("T", "S"):
            orders = {tuple(w.relation(name).tuples()) for w in worlds}
            assert len(orders) == 1  # insertion order included

    def test_join_budget_raise_propagates(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            _evaluate_three_way(budget=Budget(joins=40))
        assert excinfo.value.report.budget_kind == "joins"

    def test_join_budget_fringe_is_sound_stage(self):
        budget = Budget(joins=40, partial_results="fringe")
        world, stats = _evaluate_three_way(budget=budget)
        assert stats.incomplete
        assert stats.budget["budget_kind"] == "joins"
        # fringe soundness: everything derived is in the true fixpoint
        full, _ = _evaluate_three_way()
        for name in ("T", "S"):
            assert _fingerprint(world)[name] <= _fingerprint(full)[name]

    def test_ambient_meter_join_count_matches_stats(self):
        meter = Budget(partial_results="fringe").start()
        program = DatalogProgram(parse_rules(THREE_WAY_RULES, theory=order), order)
        with metered(meter):
            _world, stats = program.evaluate(chain_edges(6))
        assert stats.join_steps > 0
        assert meter.counts["join"] == stats.join_steps


class TestStratified:
    def test_stratify_levels(self):
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            U(x, y) :- V(x), V(y), not T(x, y).
            """,
            theory=order,
        )
        program = DatalogProgram(rules, order)
        strata = program.stratify()
        assert strata is not None
        assert [len(s) for s in strata] == [2, 1]

    def test_unstratifiable_detected(self):
        rules = parse_rules("W(x) :- M(x, y), not W(y).", theory=order)
        program = DatalogProgram(rules, order)
        assert program.stratify() is None
        with pytest.raises(EvaluationError):
            program.evaluate(GeneralizedDatabase(order), semantics="stratified")

    def test_unreachability_query(self):
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            U(x, y) :- V(x), V(y), not T(x, y).
            """,
            theory=order,
        )
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        edge.add_point([1, 2])
        edge.add_point([2, 3])
        nodes = db.create_relation("V", ("x",))
        for n in (1, 2, 3):
            nodes.add_point([n])
        world, _ = DatalogProgram(rules, order).evaluate(db)
        u = world.relation("U")
        assert u.contains_values([Fraction(3), Fraction(1)])
        assert u.contains_values([Fraction(1), Fraction(1)])  # no self loop
        assert not u.contains_values([Fraction(1), Fraction(3)])

    def test_stratified_negation_of_edb(self):
        rules = parse_rules("S(x) :- V(x), not R(x).", theory=order)
        db = GeneralizedDatabase(order)
        db.create_relation("V", ("x",)).add_point([1])
        db.relation("V").add_point([2])
        db.create_relation("R", ("x",)).add_point([1])
        world, _ = DatalogProgram(rules, order).evaluate(db, semantics="stratified")
        s = world.relation("S")
        assert s.contains_values([Fraction(2)])
        assert not s.contains_values([Fraction(1)])
