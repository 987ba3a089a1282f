"""The rule compiler: PlanCache lifecycle, IR rendering, stats folding.

The equivalence matrix (engine vs. reference fixpoints across theories
and semantics) lives in ``test_compile_equivalence.py``; this module covers
the cache machinery itself -- the prepared-query pattern the server relies
on -- plus the lowered-IR pretty printer and ``EvaluationStats.merge``.
"""

import gc
import weakref
from dataclasses import fields

import pytest

from repro.conformance.generators import case_seed, generate_case
from repro.conformance.oracles import compare_relations
from repro.conformance.reference import reference_fixpoint
from repro.conformance.spec import build_case
from repro.conformance.strategies import strategies_for
from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt
from repro.constraints.equality import EqualityTheory
from repro.core.calculus import evaluate_calculus
from repro.core.compile import PLAN_CACHE, PlanCache, render_plan
from repro.core.datalog import DatalogProgram, EngineOptions, EvaluationStats
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


def _chain_db(theory, n):
    db = GeneralizedDatabase(theory)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(n):
        edge.add_point([i, i + 1])
    return db


def _program(theory, options=None, rules_text=TC_RULES):
    rules = parse_rules(rules_text, theory=theory)
    return DatalogProgram(rules, theory, options=options or EngineOptions.all_on())


class TestPlanCache:
    def test_cold_then_warm(self):
        theory = DenseOrderTheory()
        program = _program(theory)
        _, cold = program.evaluate(_chain_db(theory, 4))
        assert (cold.compile_hits, cold.compile_misses) == (0, 1)
        assert cold.compiled_rules > 0  # variants were lowered
        _, warm = program.evaluate(_chain_db(theory, 4))
        assert (warm.compile_hits, warm.compile_misses) == (1, 0)
        assert warm.compiled_rules == 0  # nothing re-lowered on a hit
        assert PLAN_CACHE.stats()["entries"] == 1

    def test_warm_across_program_objects(self):
        # the shell re-parses rules on every .run: a *different*
        # DatalogProgram with the same rule text, schema, options, and
        # theory instance must hit the same cache entry
        theory = DenseOrderTheory()
        _program(theory).evaluate(_chain_db(theory, 4))
        _, stats = _program(theory).evaluate(_chain_db(theory, 4))
        assert (stats.compile_hits, stats.compile_misses) == (1, 0)
        assert PLAN_CACHE.stats()["entries"] == 1

    def test_rule_edit_recompiles(self):
        theory = DenseOrderTheory()
        _program(theory).evaluate(_chain_db(theory, 4))
        edited = TC_RULES + "U(x) :- T(x, y).\n"
        _, stats = _program(theory, rules_text=edited).evaluate(
            _chain_db(theory, 4)
        )
        assert (stats.compile_hits, stats.compile_misses) == (0, 1)
        assert stats.compiled_rules > 0
        assert PLAN_CACHE.stats()["entries"] == 2  # both programs cached

    def test_theory_instance_keys_the_entry(self):
        # constraint theories carry mutable solver caches, so compiled
        # closures are only valid for the instance they closed over
        a, b = DenseOrderTheory(), DenseOrderTheory()
        _program(a).evaluate(_chain_db(a, 4))
        _, stats = _program(b).evaluate(_chain_db(b, 4))
        assert (stats.compile_hits, stats.compile_misses) == (0, 1)

    def test_options_share_one_entry(self):
        # no compiled closure reads an option, so the same rules and theory
        # under all_on() and then all_off() share one cache entry, and both
        # runs land on the reference fixpoint
        theory = DenseOrderTheory()
        rules = parse_rules(TC_RULES, theory=theory)
        expected = reference_fixpoint(rules, theory, _chain_db(theory, 5))
        for options, traffic in (
            (EngineOptions.all_on(), (0, 1)),
            (EngineOptions.all_off(), (1, 0)),
        ):
            program = DatalogProgram(rules, theory, options=options)
            world, stats = program.evaluate(_chain_db(theory, 5))
            assert (stats.compile_hits, stats.compile_misses) == traffic
            assert set(world.relation("T").keys()) == set(
                expected.relation("T").keys()
            )
        assert PLAN_CACHE.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_entry_keeps_no_reparsed_rules_alive(self):
        # the shell re-parses on every .run and program_batch parses every
        # request: an entry serving a re-parsed program must not hold on to
        # that program's rule objects
        theory = DenseOrderTheory()
        _program(theory).evaluate(_chain_db(theory, 3))
        reparsed = _program(theory)
        _, stats = reparsed.evaluate(_chain_db(theory, 3))
        assert stats.compile_hits == 1
        rule = weakref.ref(reparsed.rules[0])
        del reparsed
        gc.collect()
        assert rule() is None
        assert PLAN_CACHE.stats()["entries"] == 1

    def test_lru_bound(self):
        cache = PlanCache(maxsize=2)
        theory = DenseOrderTheory()
        programs = [
            _program(theory, rules_text=TC_RULES + f"U{i}(x) :- T(x, y).\n")
            for i in range(3)
        ]
        for program in programs:
            cache.fetch(program)
        assert len(cache) == 2
        # the oldest entry was evicted: fetching it again is a miss
        _, hit = cache.fetch(programs[0])
        assert not hit
        _, hit = cache.fetch(programs[2])
        assert hit


class TestCompiledFiringStats:
    def test_compiled_firings_and_fastpath_counted(self):
        theory = DenseOrderTheory()
        world, stats = _program(theory).evaluate(_chain_db(theory, 6))
        assert stats.compiled_firings > 0
        # a ground chain is all-points: every derived tuple takes the
        # pin-emit leaf, skipping quantifier elimination entirely
        assert stats.fastpath_leaves == stats.tuples_derived > 0
        assert len(world.relation("T")) == 6 * 7 // 2

    def test_equality_theory_also_fastpaths(self):
        theory = EqualityTheory()
        _, stats = _program(theory).evaluate(_chain_db(theory, 5))
        assert stats.fastpath_leaves > 0


class TestPinnedHeadLeaf:
    """A match that pins every head variable emits the pins, in any theory.

    The program gets its own theory instance, separate from the database's
    (whose index keying eliminates), so the counted ``eliminate`` calls
    are the leaf's alone.
    """

    FIG2 = "Ans(n1, n2) :- Rect(n1, x, y), Rect(n2, x, y), n1 != n2."
    #: (x1, y1, x2, y2); the last one is a point
    RECTANGLES = ((0, 0, 4, 4), (2, 1, 6, 5), (5, 4, 9, 8), (10, 10, 12, 12), (3, 3, 3, 3))
    OVERLAPS = {(0, 1), (0, 4), (1, 2), (1, 4)}

    @staticmethod
    def _counting(theory, monkeypatch):
        calls = []
        eliminate = theory.eliminate

        def counted(atoms, drop):
            calls.append(tuple(drop))
            return eliminate(atoms, drop)

        monkeypatch.setattr(theory, "eliminate", counted)
        return calls

    def _rectangles(self):
        db = GeneralizedDatabase(DenseOrderTheory())
        rect = db.create_relation("Rect", ("n", "x", "y"))
        for name, (x1, y1, x2, y2) in enumerate(self.RECTANGLES):
            rect.add_tuple(
                [eq("n", name), le(x1, "x"), le("x", x2), le(y1, "y"), le("y", y2)]
            )
        return db

    @staticmethod
    def _intervals(spans):
        db = GeneralizedDatabase(DenseOrderTheory())
        edge = db.create_relation("E", ("x", "y"))
        for a, b in spans:
            edge.add_tuple([le(a, "x"), lt("x", "y"), le("y", b)])
        return db

    @staticmethod
    def _assert_reference(rules, db, world, name):
        expected = reference_fixpoint(rules, DenseOrderTheory(), db)
        assert set(world.relation(name).keys()) == set(expected.relation(name).keys())
        assert (
            compare_relations(
                expected.relation(name), world.relation(name),
                "reference", "engine", "dense_order",
            )
            is None
        )

    def test_fig2_answers_every_leaf_by_its_pins(self, monkeypatch):
        theory = DenseOrderTheory()
        calls = self._counting(theory, monkeypatch)
        rules = parse_rules(self.FIG2, theory=theory)
        db = self._rectangles()
        world, stats = DatalogProgram(rules, theory).evaluate(db)
        assert stats.fastpath_leaves == stats.tuples_derived > 0
        assert calls == []
        answers = {
            tuple(int(atom.right.value) for atom in t.atoms)
            for t in world.relation("Ans")
        }
        assert answers == self.OVERLAPS | {(b, a) for a, b in self.OVERLAPS}
        self._assert_reference(rules, db, world, "Ans")

    def test_bounded_but_unpinned_heads_still_eliminate(self, monkeypatch):
        # Example 1.11's interval EDB: every E tuple bounds x and y
        # without pinning either, so each leaf projects by elimination
        theory = DenseOrderTheory()
        calls = self._counting(theory, monkeypatch)
        rules = parse_rules(TC_RULES, theory=theory)
        db = self._intervals([(0, 3), (2, 6), (5, 9)])
        world, stats = DatalogProgram(rules, theory).evaluate(db)
        assert stats.fastpath_leaves == 0
        assert len(calls) == stats.rule_firings > 0
        self._assert_reference(rules, db, world, "T")

    def test_a_head_pinned_in_part_still_eliminates(self, monkeypatch):
        # every rectangle pins n, and only the point rectangle pins x
        theory = DenseOrderTheory()
        calls = self._counting(theory, monkeypatch)
        rules = parse_rules("H(n, x) :- Rect(n, x, y).", theory=theory)
        db = self._rectangles()
        world, stats = DatalogProgram(rules, theory).evaluate(db)
        assert (stats.fastpath_leaves, len(calls)) == (1, len(self.RECTANGLES) - 1)
        self._assert_reference(rules, db, world, "H")

    def test_zero_arity_head(self, monkeypatch):
        theory = DenseOrderTheory()
        calls = self._counting(theory, monkeypatch)
        rules = parse_rules(
            "Q() :- E(x, y).\nP() :- E(x, y), 9 < x.", theory=theory
        )
        db = self._intervals([(0, 3), (2, 6), (5, 9)])
        world, stats = DatalogProgram(rules, theory).evaluate(db)
        assert [t.atoms for t in world.relation("Q")] == [()]
        assert len(world.relation("P")) == 0
        assert stats.fastpath_leaves == stats.tuples_derived == 3
        assert calls == []
        for name in ("Q", "P"):
            self._assert_reference(rules, db, world, name)

    def test_real_poly_join_stores_one_spelling_of_a_point(self):
        # S(x, y) or (S(x, y) and R(x)) with S = {(4, 3)} and two R
        # intervals holding 4: the join's two matches used to eliminate
        # into two further spellings of the point beside S's own
        spec = generate_case("real_poly", case_seed(0, "real_poly", 19))
        case = build_case(spec)
        result = evaluate_calculus(case.query, case.database, output=case.output)
        assert [tuple(map(str, t.atoms)) for t in result] == [("x - 4 = 0", "y - 3 = 0")]
        expected = strategies_for(spec)[0].run(spec)
        assert compare_relations(expected, result, "reference", "join", "real_poly") is None


class TestPinPrefilter:
    """The pin check runs before the solver in general-mode joins too."""

    # the ``x != y`` atom keeps the recursive rule off the point fast path
    CYCLE_RULES = """
    T(x, y) :- E(x, y).
    T(x, y) :- T(x, z), E(z, y), x != y.
    """

    def test_pins_prune_general_mode_candidates(self):
        theory = EqualityTheory()
        db = GeneralizedDatabase(theory)
        edge = db.create_relation("E", ("x", "y"))
        for i in range(24):
            edge.add_point([i, (i + 1) % 24])
        world, stats = _program(theory, rules_text=self.CYCLE_RULES).evaluate(db)
        assert stats.pin_prunes > 0
        # only candidates whose pins agree reach the closure (1,104 of
        # 13,824 join steps): everything else is a dictionary comparison
        assert stats.closure_extensions * 5 <= stats.join_steps
        expected = reference_fixpoint(
            parse_rules(self.CYCLE_RULES, theory=theory), theory, db
        )
        assert set(world.relation("T").keys()) == set(
            expected.relation("T").keys()
        )


class TestStatsMerge:
    def test_merge_folds_compiler_counters(self):
        a, b = EvaluationStats(), EvaluationStats()
        for stats, base in ((a, 1), (b, 10)):
            stats.compile_hits = base
            stats.compile_misses = base + 1
            stats.compiled_rules = base + 3
            stats.compiled_firings = base + 4
            stats.fastpath_leaves = base + 5
            stats.compile_seconds = base / 10
        a.merge(b)
        assert a.compile_hits == 11
        assert a.compile_misses == 13
        assert a.compiled_rules == 17
        assert a.compiled_firings == 19
        assert a.fastpath_leaves == 21
        assert a.compile_seconds == pytest.approx(1.1)

    @pytest.mark.parametrize(
        "name",
        [
            spec.name
            for spec in fields(EvaluationStats)
            if spec.name
            not in ("iterations", "tuples_added", "per_round_new", "incomplete", "budget")
            and not spec.name.startswith(("semantic_", "magic_"))
        ],
    )
    def test_merge_folds_every_additive_field(self, name):
        a, b = EvaluationStats(), EvaluationStats()
        setattr(a, name, getattr(a, name) + 2)
        setattr(b, name, getattr(b, name) + 3)
        a.merge(b)
        assert getattr(a, name) == 5

    def test_merge_leaves_round_and_plan_fields_alone(self):
        a, b = EvaluationStats(), EvaluationStats()
        b.iterations = b.tuples_added = b.semantic_rules_subsumed = 4
        b.magic_rules = 4
        b.per_round_new = [1]
        b.incomplete = True
        a.merge(b)
        assert (a.iterations, a.tuples_added) == (0, 0)
        assert (a.semantic_rules_subsumed, a.magic_rules) == (0, 0)
        assert (a.per_round_new, a.incomplete) == ([], False)

    def test_as_dict_exposes_compiler_counters(self):
        exposed = EvaluationStats().as_dict()
        for key in (
            "compile_hits",
            "compile_misses",
            "compiled_rules",
            "compiled_firings",
            "fastpath_leaves",
            "compile_seconds",
        ):
            assert key in exposed


class TestRenderPlan:
    def test_render_shows_order_steps_and_leaf(self):
        theory = DenseOrderTheory()
        program = _program(theory)
        world, _ = program.evaluate(_chain_db(theory, 4))
        text = render_plan(program, program.rules[1], world)
        assert "rule: T(x, y) :- T(x, z), E(z, y)" in text
        assert "order: [" in text
        assert "step 0:" in text and "step 1:" in text
        assert "leaf:" in text
        assert "sizes: T=10, E=4" in text

    def test_leaf_text_names_the_pin_emit_and_its_fallback(self):
        theory = DenseOrderTheory()
        program = _program(
            theory, rules_text=TC_RULES + "U(x, y) :- E(x, y), not T(y, x).\n"
        )
        positive = render_plan(program, program.rules[1], None)
        assert (
            "leaf: pin-emit ('x', 'y') when every head variable is pinned, "
            "else eliminate drop=('z',)"
        ) in positive
        negated = render_plan(program, program.rules[2], None)
        assert (
            "step 1: not T(y, x)  [difference, probe-or-scan; bound: x, y]"
        ) in negated
        assert (
            "leaf: pin-emit ('x', 'y') when every head variable is pinned, "
            "else eliminate drop=()"
        ) in negated

    def test_planner_reorders_on_live_sizes(self):
        # E is tiny, T huge after closure over a denser graph: the greedy
        # planner starts from the smaller relation
        theory = DenseOrderTheory()
        program = _program(theory)
        world, _ = program.evaluate(_chain_db(theory, 8))
        assert len(world.relation("T")) > len(world.relation("E"))
        text = render_plan(program, program.rules[1], world)
        assert "order: [1, 0]" in text  # E (position 1) scans first
