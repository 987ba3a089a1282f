"""Unit tests for incremental view maintenance (MaterializedView).

The differential properties (maintained == from-scratch over random update
interleavings) live in ``test_ivm_equivalence.py``; this file locks down the
mechanism: DRed over-deletion/re-derivation on join and recursive
strata, negation stratum recomputation, the recompute fallback, delta
hygiene (EDB-only, no-op batches free, retract+reinsert cancellation),
and the budget/staleness contract.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.datalog import EngineOptions
from repro.core.generalized import GeneralizedTuple
from repro.errors import EvaluationError, StaleViewError
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget

TC_RULES = """
T(x, y) :- E(x, y).
T(x, z) :- E(x, y), T(y, z).
"""

JOIN_RULES = """
J(x, z) :- E(x, y), F(y, z).
"""

NEGATION_RULES = TC_RULES + """
Q(x, y) :- F(x, y), not T(x, y).
"""


def _theory():
    return DenseOrderTheory()


def _program(rules_text, theory, **options):
    opts = replace(EngineOptions.all_on(), **options) if options else None
    return DatalogProgram(
        parse_rules(rules_text, theory=theory),
        theory,
        options=opts or EngineOptions.all_on(),
    )


def _db(theory, **relations):
    db = GeneralizedDatabase(theory)
    for name, points in relations.items():
        relation = db.create_relation(name, ("x", "y"))
        for a, b in points:
            relation.add_point([Fraction(a), Fraction(b)])
    return db


def _chain_with_interval(theory, length):
    """A point chain 0 -> ... -> length plus the interval edge
    ``1 <= x < y <= 3``: point tuples are canonical by inspection and never
    reach the theory memo, the tuples the interval derives do."""
    db = _db(theory, E=[(i, i + 1) for i in range(length)])
    db.relation("E").add_tuple(
        (theory.le(1, "x"), theory.lt("x", "y"), theory.le("y", 3))
    )
    return db


def _point(a, b, variables=("x", "y")):
    theory = _theory()
    atoms = tuple(
        theory.equality(v, theory.constant(Fraction(c)))
        for v, c in zip(variables, (a, b))
    )
    return GeneralizedTuple(tuple(variables), atoms)


def _scratch(rules_text, theory_factory, **relations):
    theory = theory_factory()
    world, _ = _program(rules_text, theory).evaluate(_db(theory, **relations))
    return {n: frozenset(world.relation(n).keys()) for n in world.names()}


class TestModes:
    def test_positive_recursive_is_incremental(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1)])
        )
        assert view.mode == "incremental"
        view.close()

    def test_stratified_negation_is_incremental(self):
        theory = _theory()
        view = MaterializedView(
            _program(NEGATION_RULES, theory),
            _db(theory, E=[(0, 1)], F=[(1, 2)]),
        )
        assert view.mode == "incremental"
        view.close()

    def test_inflationary_with_negation_falls_back(self):
        theory = _theory()
        view = MaterializedView(
            _program(NEGATION_RULES, theory),
            _db(theory, E=[(0, 1)], F=[(1, 2)]),
            semantics="inflationary",
        )
        assert view.mode == "recompute"
        view.close()

    def test_predefined_nonempty_idb_is_rejected(self):
        theory = _theory()
        db = _db(theory, E=[(0, 1)], T=[(5, 6)])
        with pytest.raises(EvaluationError, match="derived by rules"):
            MaterializedView(_program(TC_RULES, theory), db)

    def test_delta_on_idb_is_rejected(self):
        theory = _theory()
        with MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1)])
        ) as view:
            with pytest.raises(EvaluationError, match="EDB"):
                view.insert("T", _point(7, 8))


class TestJoinStratum:
    """DRed on the non-recursive ``J``, where ``J(0, 2)`` has two
    derivations, through ``y = 1`` and ``y = 9``."""

    F_EDGES = [(1, 2), (9, 2)]

    def test_retract_rederives_then_removes_then_reinsert_restores(self):
        theory = _theory()
        view = MaterializedView(
            _program(JOIN_RULES, theory),
            _db(theory, E=[(0, 1), (0, 9)], F=self.F_EDGES),
        )
        # losing one derivation over-deletes J(0, 2) and re-derives it
        stats = view.retract("E", _point(0, 1))
        assert (stats.ivm_overdeleted, stats.ivm_rederived) == (1, 1)
        assert stats.ivm_derived_removed == 0
        assert len(view.relation("J")) == 1
        assert view.fingerprint() == _scratch(
            JOIN_RULES, _theory, E=[(0, 9)], F=self.F_EDGES
        )
        # losing the last one removes it
        stats = view.retract("E", _point(0, 9))
        assert stats.ivm_derived_removed == 1
        assert len(view.relation("J")) == 0
        assert view.fingerprint() == _scratch(
            JOIN_RULES, _theory, E=[], F=self.F_EDGES
        )
        # an edge back derives it again
        stats = view.insert("E", _point(0, 1))
        assert stats.ivm_derived_added == 1
        assert view.fingerprint() == _scratch(
            JOIN_RULES, _theory, E=[(0, 1)], F=self.F_EDGES
        )
        view.close()

    def test_a_second_derivation_adds_nothing_and_outlives_the_first(self):
        theory = _theory()
        view = MaterializedView(
            _program(JOIN_RULES, theory),
            _db(theory, E=[(0, 1)], F=[(1, 2)]),
        )
        assert view.insert("E", _point(0, 9)).ivm_derived_added == 0
        assert view.insert("F", _point(9, 2)).ivm_derived_added == 0
        stats = view.retract("E", _point(0, 1))
        assert (stats.ivm_overdeleted, stats.ivm_rederived) == (1, 1)
        assert view.fingerprint() == _scratch(
            JOIN_RULES, _theory, E=[(0, 9)], F=self.F_EDGES
        )
        view.close()


class TestDRed:
    def test_retract_with_alternative_path_rederives(self):
        # two disjoint paths 0->1->2 and 0->3->2: cutting one leaves T(0,2)
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory),
            _db(theory, E=[(0, 1), (1, 2), (0, 3), (3, 2)]),
        )
        stats = view.retract("E", _point(0, 1))
        assert stats.ivm_overdeleted > 0
        assert stats.ivm_rederived > 0  # T(0, 2) survives via 0->3->2
        assert view.fingerprint() == _scratch(
            TC_RULES, _theory, E=[(1, 2), (0, 3), (3, 2)]
        )
        assert 0.0 < stats.ivm_rederivation_ratio <= 1.0
        view.close()

    def test_retract_cuts_downstream_closure(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory),
            _db(theory, E=[(i, i + 1) for i in range(5)]),
        )
        stats = view.retract("E", _point(2, 3))
        assert stats.ivm_derived_removed > 0
        assert view.fingerprint() == _scratch(
            TC_RULES, _theory, E=[(0, 1), (1, 2), (3, 4), (4, 5)]
        )
        view.close()

    def test_cycle_retract(self):
        theory = _theory()
        cycle = [(0, 1), (1, 2), (2, 0)]
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=cycle)
        )
        view.retract("E", _point(2, 0))
        assert view.fingerprint() == _scratch(
            TC_RULES, _theory, E=[(0, 1), (1, 2)]
        )
        view.close()


class TestNegationStratum:
    def test_insert_flips_negated_tuple(self):
        theory = _theory()
        view = MaterializedView(
            _program(NEGATION_RULES, theory),
            _db(theory, E=[(0, 1)], F=[(0, 2)]),
        )
        # Q(0, 2) holds (no path 0->2); adding E(1, 2) kills it
        assert len(view.relation("Q")) == 1
        stats = view.insert("E", _point(1, 2))
        assert stats.ivm_recomputed_strata >= 1
        assert view.fingerprint() == _scratch(
            NEGATION_RULES, _theory, E=[(0, 1), (1, 2)], F=[(0, 2)]
        )
        assert len(view.relation("Q")) == 0
        view.close()

    def test_retract_restores_negated_tuple(self):
        theory = _theory()
        view = MaterializedView(
            _program(NEGATION_RULES, theory),
            _db(theory, E=[(0, 1), (1, 2)], F=[(0, 2)]),
        )
        assert len(view.relation("Q")) == 0
        view.retract("E", _point(1, 2))
        assert len(view.relation("Q")) == 1
        assert view.fingerprint() == _scratch(
            NEGATION_RULES, _theory, E=[(0, 1)], F=[(0, 2)]
        )
        view.close()


class TestBatchSemantics:
    def test_noop_batch_is_free(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1)])
        )
        stats = view.apply(
            inserts=[("E", _point(0, 1))],  # already present
            retracts=[("E", _point(5, 5))],  # absent
        )
        assert stats.ivm_inserts == 0
        assert stats.ivm_retracts == 0
        assert stats.join_steps == 0
        assert stats.tuples_added == 0
        view.close()

    def test_retract_then_reinsert_in_one_batch_cancels(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1), (1, 2)])
        )
        stats = view.apply(
            inserts=[("E", _point(0, 1))], retracts=[("E", _point(0, 1))]
        )
        assert stats.ivm_inserts == 0 and stats.ivm_retracts == 0
        assert stats.join_steps == 0
        assert view.fingerprint() == _scratch(
            TC_RULES, _theory, E=[(0, 1), (1, 2)]
        )
        view.close()

    def test_batch_mixing_relations(self):
        theory = _theory()
        view = MaterializedView(
            _program(NEGATION_RULES, theory),
            _db(theory, E=[(0, 1)], F=[(0, 2)]),
        )
        view.apply(
            inserts=[("E", _point(1, 2)), ("F", _point(1, 2))],
            retracts=[("F", _point(0, 2))],
        )
        assert view.fingerprint() == _scratch(
            NEGATION_RULES, _theory, E=[(0, 1), (1, 2)], F=[(1, 2)]
        )
        view.close()

    def test_unsatisfiable_delta_is_a_noop(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1)])
        )
        contradictory = GeneralizedTuple(
            ("x", "y"),
            (
                theory.lt("x", theory.constant(Fraction(0))),
                theory.lt(theory.constant(Fraction(1)), "x"),
            ),
        )
        stats = view.apply(inserts=[("E", contradictory)])
        assert stats.ivm_inserts == 0 and stats.join_steps == 0
        view.close()


class TestStaleness:
    def _tight_view(self):
        theory = _theory()
        options = replace(
            EngineOptions.all_on(),
            budget=Budget(tuples=4, partial_results="fringe"),
        )
        program = DatalogProgram(
            parse_rules(TC_RULES, theory=theory), theory, options=options
        )
        db = _db(theory, E=[(0, 1), (1, 2)])
        return MaterializedView(program, db)

    def test_budget_trip_tags_stale_and_degrades(self):
        view = self._tight_view()
        assert not view.stale
        # closing the cycle derives the full 3x3 closure: way past budget
        stats = view.insert("E", _point(2, 0))
        assert stats.incomplete and stats.budget is not None
        assert view.stale and "budget" in (view.stale_reason or "")
        view.close()

    def test_stale_view_refuses_deltas_but_answers_reads(self):
        view = self._tight_view()
        view.insert("E", _point(2, 0))
        assert view.stale
        assert view.relation("T") is not None  # reads still answered
        with pytest.raises(StaleViewError):
            view.insert("E", _point(7, 8))
        view.close()

    def test_refresh_recovers_with_a_workable_budget(self):
        theory = _theory()
        options = replace(
            EngineOptions.all_on(),
            budget=Budget(tuples=4, partial_results="fringe"),
        )
        program = DatalogProgram(
            parse_rules(TC_RULES, theory=theory), theory, options=options
        )
        view = MaterializedView(program, _db(theory, E=[(0, 1), (1, 2)]))
        view.insert("E", _point(2, 0))  # closing the cycle trips the budget
        assert view.stale
        view.refresh()  # full 12-tuple rematerialization still exceeds 4
        assert view.stale
        # shrink the EDB below the budget and refresh again
        view.world.relation("E").discard(_point(2, 0))
        view.world.relation("E").discard(_point(1, 2))
        stats = view.refresh()
        assert not view.stale and not stats.incomplete
        assert view.fingerprint() == _scratch(TC_RULES, _theory, E=[(0, 1)])
        view.insert("E", _point(1, 2))  # deltas accepted again
        assert view.fingerprint() == _scratch(
            TC_RULES, _theory, E=[(0, 1), (1, 2)]
        )
        view.close()


class TestStats:
    def test_counters_accumulate_and_serialize(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1), (1, 2)])
        )
        view.insert("E", _point(2, 3))
        view.retract("E", _point(0, 1))
        total = view.total_stats
        assert total.ivm_steps == 2
        assert total.ivm_inserts == 1 and total.ivm_retracts == 1
        assert total.ivm_maintain_seconds > 0
        encoded = total.as_dict()
        for key in (
            "ivm_steps",
            "ivm_inserts",
            "ivm_retracts",
            "ivm_derived_added",
            "ivm_derived_removed",
            "ivm_overdeleted",
            "ivm_rederived",
            "ivm_rederivation_ratio",
            "ivm_recomputed_strata",
            "ivm_maintain_seconds",
        ):
            assert key in encoded
        view.close()

    def test_last_stats_is_per_apply(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1)])
        )
        view.insert("E", _point(1, 2))
        assert view.last_stats.ivm_steps == 1
        assert view.last_stats.ivm_inserts == 1
        view.close()

    def test_total_stats_keep_materialization_cache_traffic(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _chain_with_interval(theory, 8)
        )
        assert view.last_stats.theory_cache_hits > 0
        assert view.total_stats.theory_cache_hits == view.last_stats.theory_cache_hits
        assert (
            view.total_stats.theory_cache_misses
            == view.last_stats.theory_cache_misses
        )
        view.close()

    def test_apply_reports_its_cache_traffic(self):
        theory = _theory()
        view = MaterializedView(
            _program(TC_RULES, theory), _chain_with_interval(theory, 8)
        )
        before = theory.cache.stats.snapshot()
        stats = view.insert("E", _point(8, 9))
        hits, misses = theory.cache.stats.snapshot()
        assert hits + misses > before[0] + before[1]
        assert (stats.theory_cache_hits, stats.theory_cache_misses) == (
            hits - before[0],
            misses - before[1],
        )
        view.close()

    def test_recompute_counts_cache_traffic_once(self):
        # inflationary programs re-evaluate on every batch: the inner
        # evaluate's own stats are merged in, yet the call's cache traffic
        # must be reported exactly once
        theory = _theory()
        view = MaterializedView(
            _program(NEGATION_RULES, theory),
            _db(theory, E=[(0, 1), (1, 2)], F=[(0, 2), (2, 0)]),
            semantics="inflationary",
        )
        assert view.mode == "recompute"
        before = theory.cache.stats.snapshot()
        stats = view.insert("E", _point(2, 0))
        hits, misses = theory.cache.stats.snapshot()
        assert stats.ivm_recomputed_strata == 1
        assert (stats.theory_cache_hits, stats.theory_cache_misses) == (
            hits - before[0],
            misses - before[1],
        )
        view.close()


class TestContextManager:
    def test_context_manager_closes(self):
        theory = _theory()
        with MaterializedView(
            _program(TC_RULES, theory), _db(theory, E=[(0, 1)])
        ) as view:
            view.insert("E", _point(1, 2))
        # caches are torn down; reads still work on the final world
        assert len(view.relation("T")) == 3


class TestIdbNamedInputRelation:
    """A derived relation the input gives over its own variables keeps
    them: every tuple the rules derive into it is renamed on admission,
    and the maintained world stays the scratch fixpoint."""

    RULES = TC_RULES + "S(x, y) :- V(x), V(y), not T(x, y).\n"
    CHAIN = [(i, i + 1) for i in range(5)]

    @staticmethod
    def _interval_edge(theory):
        """``x = 5 and 6 <= y <= 7``"""
        return GeneralizedTuple(
            ("x", "y"),
            (
                theory.equality("x", theory.constant(5)),
                theory.le(6, "y"),
                theory.le("y", 7),
            ),
        )

    @staticmethod
    def _input(theory, edges):
        db = _db(theory, E=edges)
        nodes = db.create_relation("V", ("x",))
        for value in (0, 2, 4, 6):
            nodes.add_point([Fraction(value)])
        db.create_relation("T", ("a", "b"))
        return db

    def test_insert_and_retract_match_scratch(self):
        theory = _theory()
        with MaterializedView(
            _program(self.RULES, theory), self._input(theory, self.CHAIN)
        ) as view:
            assert view.relation("T").variables == ("a", "b")
            stats = view.insert("E", self._interval_edge(theory))
            assert stats.ivm_derived_added > 0
            assert view.retract("E", _point(2, 3)).ivm_derived_removed > 0
            assert view.relation("T").variables == ("a", "b")
            scratch_theory = _theory()
            scratch = self._input(
                scratch_theory, [e for e in self.CHAIN if e != (2, 3)]
            )
            scratch.relation("E").add(self._interval_edge(scratch_theory))
            world, _ = _program(self.RULES, scratch_theory).evaluate(scratch)
            assert view.fingerprint() == {
                n: frozenset(world.relation(n).keys()) for n in world.names()
            }
            # the 16 pairs of V less (0, 2) and (4, 6); T holds the second
            # in the interval tuple the inserted edge derives
            assert len(view.relation("S")) == 14
