"""Tests for magic-set rewriting (the [44] direction, Section 6(3))."""

from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase, GeneralizedTuple
from repro.core.magic import (
    SLOT,
    Binding,
    MagicQuery,
    answer_magic_query,
    magic_plan,
    magic_rewrite,
    parse_goal,
    seed_world,
    select_answers,
)
from repro.core.query import Engine
from repro.errors import EvaluationError
from repro.logic.parser import parse_rules
from repro.workloads.orders import chain_edges

order = DenseOrderTheory()

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""
RIGHT_TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- E(x, z), T(z, y).
"""


def two_chains_db():
    """Two disjoint chains: 0..5 and 100..105."""
    db = GeneralizedDatabase(order)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(5):
        edge.add_point([i, i + 1])
        edge.add_point([100 + i, 101 + i])
    return db


class TestRewrite:
    def test_structure(self):
        rules = parse_rules(TC_RULES, theory=order)
        query = MagicQuery("T", 2, {0: 1})
        rewritten, answer = magic_rewrite(rules, query, order)
        assert answer == "T__bf"
        names = {r.head.name for r in rewritten}
        assert "T__bf" in names
        assert "_magic_T_bf" in names

    def test_negation_rejected(self):
        rules = parse_rules("S(x) :- V(x), not R(x).", theory=order)
        with pytest.raises(EvaluationError):
            magic_rewrite(rules, MagicQuery("S", 1, {0: 1}), order)

    def test_non_idb_rejected(self):
        rules = parse_rules(TC_RULES, theory=order)
        with pytest.raises(EvaluationError):
            magic_rewrite(rules, MagicQuery("E", 2, {0: 1}), order)


class TestSemantics:
    def test_matches_direct_evaluation(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = two_chains_db()
        answers = answer_magic_query(rules, MagicQuery("T", 2, {0: 0}), db)
        direct_world, _ = DatalogProgram(rules, order).evaluate(db)
        direct = direct_world.relation("T")
        for a in list(range(7)) + list(range(100, 107)):
            for b in list(range(7)) + list(range(100, 107)):
                point = [Fraction(0), Fraction(b)]
                # answers are the bound selection of T
                expected = direct.contains_values(point)
                assert answers.contains_values(point) == expected, point
                if a != 0:
                    assert not answers.contains_values([Fraction(a), Fraction(b)])

    def test_irrelevant_facts_not_derived(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = two_chains_db()
        query = MagicQuery("T", 2, {0: 0})
        rewritten, answer_name = magic_rewrite(rules, query, order)
        world = db.copy()
        seed = world.create_relation("_magic_T_bf", ("_m0",))
        seed.add_point([0])
        result_world, stats = DatalogProgram(rewritten, order).evaluate(world)
        adorned = result_world.relation(answer_name)
        # only the first chain is explored: 5 reachability facts, none >= 100
        assert len(adorned) == 5
        assert not adorned.contains_values([Fraction(100), Fraction(101)])

    def test_magic_fewer_firings_than_full(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = two_chains_db()
        # full evaluation
        _, full_stats = DatalogProgram(rules, order).evaluate(db)
        # magic evaluation
        query = MagicQuery("T", 2, {0: 0})
        rewritten, _ = magic_rewrite(rules, query, order)
        world = db.copy()
        world.create_relation("_magic_T_bf", ("_m0",)).add_point([0])
        _, magic_stats = DatalogProgram(rewritten, order).evaluate(world)
        assert magic_stats.tuples_added < full_stats.tuples_added

    def test_free_query_reduces_to_full(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = chain_edges(4)
        answers = answer_magic_query(rules, MagicQuery("T", 2, {}), db)
        direct_world, _ = DatalogProgram(rules, order).evaluate(db)
        direct = direct_world.relation("T")
        for a in range(5):
            for b in range(5):
                point = [Fraction(a), Fraction(b)]
                assert answers.contains_values(point) == direct.contains_values(point)

    def test_second_argument_bound(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = chain_edges(4)
        answers = answer_magic_query(rules, MagicQuery("T", 2, {1: 4}), db)
        assert answers.contains_values([Fraction(0), Fraction(4)])
        assert answers.contains_values([Fraction(3), Fraction(4)])
        assert not answers.contains_values([Fraction(0), Fraction(3)])


class TestSeedWorld:
    @pytest.mark.parametrize("rules_text", [TC_RULES, RIGHT_TC_RULES],
                             ids=["left", "right"])
    def test_point_goal_cone_renames_nothing(self, monkeypatch, rules_text):
        # the seed relation is over the positional variables the magic
        # rules derive over, so no magic tuple is renamed on admission
        rules = parse_rules(rules_text, theory=order)
        renames = []
        rename = GeneralizedTuple.rename

        def counting(item, targets):
            renames.append(targets)
            return rename(item, targets)

        monkeypatch.setattr(GeneralizedTuple, "rename", counting)
        engine = Engine(rules, order, database=two_chains_db())
        result = engine.query("T(0, y)")
        assert len(result.relation) == 5
        assert result.magic_rules >= 1
        assert renames == []

    @staticmethod
    def _idb_input_db(theory):
        """``E`` a five-edge chain and ``T`` -- derived by the rules --
        holding the point (7, 6) and the interval tuple ``a = 6, 0 <= b <=
        1`` over its own variables ``(a, b)``."""
        db = GeneralizedDatabase(theory)
        edge = db.create_relation("E", ("x", "y"))
        for i in range(5):
            edge.add_point([i, i + 1])
        given = db.create_relation("T", ("a", "b"))
        given.add_point([7, 6])
        given.add_tuple((eq("a", 6), le(0, "b"), le("b", 1)))
        return db

    @pytest.mark.parametrize("rules_text", [TC_RULES, RIGHT_TC_RULES],
                             ids=["left", "right"])
    @pytest.mark.parametrize("goal", [
        "T(6, y)", "T(0, y)", "T(x, 6)", "T(x, 1)",
        "T(x, y), 5 < x, x < 8", "T(x, y), 0 < y, y < 2",
    ])
    def test_adorned_relations_start_from_the_input(self, rules_text, goal):
        theory = DenseOrderTheory()
        rules = parse_rules(rules_text, theory=theory)

        def keys(relation):
            return {
                frozenset(theory.canonicalize(t.rename(("u", "v")).atoms))
                for t in relation
            }

        expected = keys(
            Engine(
                rules, theory, options=EngineOptions(magic=False),
                database=self._idb_input_db(theory),
            ).query(goal).relation
        )
        magic = Engine(rules, theory, database=self._idb_input_db(theory)).query(goal)
        assert not magic.full_fallback
        assert keys(magic.relation) == expected
        driven = answer_magic_query(
            rules, parse_goal(goal, theory), self._idb_input_db(theory)
        )
        assert keys(driven) == expected
        if goal == "T(6, y)" and rules_text == TC_RULES:
            # (6, b) for 0 <= b <= 1 and (6, 1) ... (6, 5) through the chain
            assert len(expected) == 6

    def test_plan_names_each_adorned_relation(self):
        rules = parse_rules(RIGHT_TC_RULES, theory=order)
        plan = magic_plan(rules, MagicQuery("T", 2, {0: 0}), order)
        assert plan.adorned == (("T", "T__bf"),)
        assert seed_world(two_chains_db(), plan, MagicQuery("T", 2, {0: 0})).names() \
            == ["E", "_magic_T_bf"]


class TestBinding:
    def test_equal_is_the_classical_binding(self):
        binding = Binding.equal(order, 3)
        assert binding.atoms == (order.equality(SLOT, order.constant(3)),)

    def test_interval_endpoints(self):
        binding = Binding.interval(1, 4, strict_high=True)
        assert binding.atoms == (le(1, SLOT), lt(SLOT, 4))
        low, high = binding.bounds(order)
        assert (low, high) == (Fraction(1), Fraction(4))

    def test_interval_needs_an_endpoint(self):
        with pytest.raises(EvaluationError):
            Binding.interval()

    def test_of_renames_onto_slot(self):
        binding = Binding.of("x", [lt(0, "x"), lt("x", 2)])
        assert binding.atoms == (lt(0, SLOT), lt(SLOT, 2))

    def test_multi_variable_atom_rejected(self):
        with pytest.raises(EvaluationError):
            Binding((lt("x", "y"),))

    def test_unsatisfiable_binding_has_no_canonical_key(self):
        binding = Binding((lt(SLOT, 0), lt(1, SLOT)))
        assert binding.canonical_key(order) is None
        assert Binding.equal(order, 3).canonical_key(order) is not None


class TestParseGoal:
    def test_constant_becomes_equality_binding(self):
        query = parse_goal("T(0, y)", order)
        assert query.predicate == "T"
        assert query.adornment == "bf"
        assert set(query.bindings) == {0}

    def test_interval_constraints_become_bindings(self):
        query = parse_goal("T(x, y), 3 < x, x < 5", order)
        assert query.adornment == "bf"
        low, high = query.bindings[0].bounds(order)
        assert (low, high) == (Fraction(3), Fraction(5))

    def test_repeated_variable_becomes_equalities(self):
        query = parse_goal("T(x, x)", order)
        assert query.equalities
        # a repeated free variable alone binds nothing
        assert query.adornment == "ff"
        # ...but binding one position propagates to its equality class
        bound = MagicQuery("T", 2, {0: 1}, equalities=query.equalities)
        assert bound.adornment == "bb"

    def test_two_position_constraint_goes_to_residual(self):
        query = parse_goal("T(x, y), x < y, y < 4", order)
        assert query.adornment == "fb"
        assert len(query.residual) == 1

    def test_loose_variable_rejected(self):
        with pytest.raises(EvaluationError):
            parse_goal("T(x, y), z < 3", order)

    def test_two_relation_atoms_rejected(self):
        with pytest.raises(EvaluationError):
            parse_goal("T(x, y), E(y, z)", order)


NEGATION_RULES = """
T(x, y) :- E(x, y).
T(x, z) :- E(x, y), T(y, z).
U(x, y) :- V(x), V(y), not T(x, y).
W(x) :- U(x, y).
"""


class TestPlanning:
    def test_all_free_returns_original_rules(self):
        rules = parse_rules(TC_RULES, theory=order)
        plan = magic_plan(rules, MagicQuery("T", 2, {}), order)
        # verbatim rule sharing keeps one compiled plan with plain evaluate
        assert plan.rules == list(rules)
        assert plan.answer == "T"
        assert plan.seed_name is None
        assert not plan.full_fallback

    def test_negation_reachable_from_query_falls_back_partially(self):
        rules = parse_rules(NEGATION_RULES, theory=order)
        plan = magic_plan(rules, MagicQuery("W", 1, {0: 1}), order)
        assert not plan.full_fallback
        assert plan.fallback_predicates == ("T", "U")
        heads = {rule.head.name for rule in plan.rules}
        # U's cone is carried over untouched, W is still magic-restricted
        # (its guard is fed by the seed relation, not by a magic rule)
        assert heads == {"T", "U", "W__b"}
        assert plan.seed_name == "_magic_W_b"

    def test_query_inside_negation_cone_degrades_to_full(self):
        rules = parse_rules(NEGATION_RULES, theory=order)
        plan = magic_plan(rules, MagicQuery("T", 2, {0: 1}, residual=()), order)
        # T is negated in U's body, but U is unreachable *from T*, so the
        # rewrite must not fall back...
        assert not plan.full_fallback
        plan_u = magic_plan(rules, MagicQuery("U", 2, {0: 1}), order)
        # ...while U itself (head of the negated rule) is a full fallback
        assert plan_u.full_fallback
        assert "U" in plan_u.fallback_predicates

    def test_inflationary_negation_degrades_to_full(self):
        rules = parse_rules(NEGATION_RULES, theory=order)
        plan = magic_plan(
            rules, MagicQuery("W", 1, {0: 1}), order, semantics="inflationary"
        )
        assert plan.full_fallback

    def test_partial_fallback_matches_full_then_filter(self):
        rules = parse_rules(NEGATION_RULES, theory=order)
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        for i in range(3):
            edge.add_point([i, i + 1])
        vertex = db.create_relation("V", ("x",))
        for i in range(5):
            vertex.add_point([i])
        query = MagicQuery("W", 1, {0: 4})
        plan = magic_plan(rules, query, order)
        world = seed_world(db, plan, query)
        result_world, _ = DatalogProgram(plan.rules, order).evaluate(world)
        answers = select_answers(result_world.relation(plan.answer), query, order)
        full_world, _ = DatalogProgram(rules, order).evaluate(db)
        expected = select_answers(full_world.relation("W"), query, order)
        assert frozenset(answers.keys()) == frozenset(expected.keys())

    def test_unreachable_negative_cycle_keeps_the_partial_rewrite(self):
        # W's negative cycle makes the whole program unstratifiable, but Q
        # cannot reach W: stratifiability is judged on what Q reaches, so
        # only Q's negation cone falls back
        rules = parse_rules(
            TC_RULES
            + """
            U(x, y) :- V(x), V(y), not T(x, y).
            Q(x) :- U(x, y).
            W(x) :- M(x, y), not W(y).
            """,
            theory=order,
        )
        query = MagicQuery("Q", 1, {0: 1})
        plan = magic_plan(rules, query, order)
        assert not plan.full_fallback
        assert plan.fallback_predicates == ("T", "U")
        assert "W" not in {rule.head.name for rule in plan.rules}
        # full evaluation of the whole program is inflationary, so the plan
        # runs as it does: on a cycle every vertex reaches every vertex, and
        # Q(1) holds only under inflationary rounds
        assert plan.semantics == "inflationary"
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        vertex = db.create_relation("V", ("x",))
        for i in range(3):
            edge.add_point([i, (i + 1) % 3])
            vertex.add_point([i])
        db.create_relation("M", ("x", "y")).add_point([0, 1])
        world = seed_world(db, plan, query)
        result_world, _ = DatalogProgram(plan.rules, order).evaluate(
            world, semantics=plan.semantics
        )
        answers = select_answers(result_world.relation(plan.answer), query, order)
        full_world, _ = DatalogProgram(rules, order).evaluate(db)
        expected = select_answers(full_world.relation("Q"), query, order)
        assert frozenset(answers.keys()) == frozenset(expected.keys())
        assert len(expected) == 1
        driven = answer_magic_query(rules, query, db)
        assert frozenset(driven.keys()) == frozenset(expected.keys())
        engine = Engine(rules, order, database=db)
        assert frozenset(engine.query(query).relation.keys()) == frozenset(
            expected.keys()
        )

    def test_stratified_refuses_an_unreachable_negative_cycle(self):
        # full evaluation refuses the program under "stratified", so the
        # magic route refuses it too, though the goal cannot reach W
        rules = parse_rules(
            TC_RULES + "W(x) :- M(x, y), not W(y).", theory=order
        )
        query = MagicQuery("T", 2, {0: 0})
        with pytest.raises(EvaluationError):
            magic_plan(rules, query, order, semantics="stratified")
        db = chain_edges(3)
        db.create_relation("M", ("x", "y")).add_point([0, 1])
        for magic in (True, False):
            engine = Engine(
                rules, order, options=EngineOptions(magic=magic), database=db
            )
            with pytest.raises(EvaluationError):
                engine.query("T(0, y)", semantics="stratified")
            assert len(engine.query("T(0, y)").relation) == 3

    def test_unsatisfiable_binding_yields_empty_answer(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = chain_edges(4)
        query = MagicQuery(
            "T", 2, {0: Binding((lt(SLOT, 0), lt(1, SLOT)))}
        )
        answers = answer_magic_query(rules, query, db)
        assert len(answers) == 0

    def test_interval_binding_restricts_cone(self):
        rules = parse_rules(TC_RULES, theory=order)
        db = two_chains_db()
        query = MagicQuery(
            "T", 2, {0: Binding.interval(100, 200)}
        )
        answers = answer_magic_query(rules, query, db)
        assert answers.contains_values([Fraction(100), Fraction(105)])
        assert not answers.contains_values([Fraction(0), Fraction(1)])
        full_world, _ = DatalogProgram(rules, order).evaluate(db)
        expected = select_answers(full_world.relation("T"), query, order)
        assert frozenset(answers.keys()) == frozenset(expected.keys())
