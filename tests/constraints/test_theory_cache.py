"""Tests for the TheoryCache memo layer on ConstraintTheory."""


from repro.constraints.base import TheoryCache, TheoryCacheStats
from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt
from repro.constraints.real_poly import RealPolynomialTheory, poly_lt
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules
from repro.poly.polynomial import poly_var


class TestCounters:
    def test_sat_hit_and_miss(self):
        theory = DenseOrderTheory()
        conj = (lt("x", "y"), lt("y", "x"))
        assert not theory.is_satisfiable(conj)
        assert theory.cache.stats.sat_misses == 1
        assert not theory.is_satisfiable(conj)
        assert theory.cache.stats.sat_hits == 1
        assert theory.cache.stats.sat_misses == 1

    def test_key_is_order_and_multiplicity_insensitive(self):
        theory = DenseOrderTheory()
        a, b = lt("x", "y"), lt("y", 3)
        assert theory.is_satisfiable((a, b))
        # permuted and duplicated conjunctions are the same frozenset key
        assert theory.is_satisfiable((b, a))
        assert theory.is_satisfiable((a, b, a))
        assert theory.cache.stats.sat_hits == 2
        assert theory.cache.stats.sat_misses == 1

    def test_canonicalize_counters(self):
        theory = DenseOrderTheory()
        conj = (le(0, "x"), lt("x", "y"))
        first = theory.canonicalize(conj)
        second = theory.canonicalize(conj)
        assert first == second
        assert theory.cache.stats.canon_misses == 1
        assert theory.cache.stats.canon_hits == 1


class TestCrossPopulation:
    def test_unsat_canonicalize_answers_sat(self):
        theory = DenseOrderTheory()
        conj = (lt("x", "y"), lt("y", "x"))
        assert theory.canonicalize(conj) is None
        # is_satisfiable must be answered from the cache, no sat miss
        assert not theory.is_satisfiable(conj)
        assert theory.cache.stats.sat_hits == 1
        assert theory.cache.stats.sat_misses == 0

    def test_sat_canonicalize_answers_sat_when_exact(self):
        theory = DenseOrderTheory()
        assert theory.canonical_decides_sat
        conj = (le(0, "x"), lt("x", "y"))
        assert theory.canonicalize(conj) is not None
        assert theory.is_satisfiable(conj)
        assert theory.cache.stats.sat_hits == 1
        assert theory.cache.stats.sat_misses == 0

    def test_polynomial_canonicalize_does_not_decide_sat(self):
        theory = RealPolynomialTheory()
        assert not theory.canonical_decides_sat
        x = poly_var("x")
        conj = (poly_lt(x, 1),)
        assert theory.canonicalize(conj) is not None
        # the canonical form is sound-but-incomplete: a satisfiable answer
        # must still come from the real solver
        theory.is_satisfiable(conj)
        assert theory.cache.stats.sat_misses == 1


class TestEnableAndEviction:
    def test_disabled_cache_bypasses(self):
        theory = DenseOrderTheory()
        theory.cache.enabled = False
        conj = (lt("x", "y"),)
        theory.is_satisfiable(conj)
        theory.is_satisfiable(conj)
        theory.canonicalize(conj)
        stats = theory.cache.stats
        assert (stats.hits, stats.misses) == (0, 0)

    def test_fifo_eviction_bounds_memory(self):
        cache = TheoryCache(maxsize=4)
        theory = DenseOrderTheory(cache=cache)
        for k in range(10):
            theory.is_satisfiable((lt("x", k),))
        assert len(cache._sat) <= 4
        # the earliest entries were evicted: re-asking misses again
        misses = cache.stats.sat_misses
        theory.is_satisfiable((lt("x", 0),))
        assert cache.stats.sat_misses == misses + 1

    def test_clear(self):
        theory = DenseOrderTheory()
        theory.is_satisfiable((lt("x", "y"),))
        theory.cache.clear()
        theory.is_satisfiable((lt("x", "y"),))
        assert theory.cache.stats.sat_misses == 2


class TestPointLane:
    def test_point_conjunction_bypasses_the_memo(self):
        # a conjunction of pins is canonical by inspection: neither stored
        # nor counted, on either entry point
        theory = DenseOrderTheory()
        conj = (eq("y", 2), eq("x", 1))
        assert theory.canonicalize(conj) == (eq("x", 1), eq("y", 2))
        assert theory.is_satisfiable(conj)
        assert theory.cache.stats.as_dict() == TheoryCacheStats().as_dict()
        assert not theory.cache._canon and not theory.cache._sat

    def test_memo_off_sends_points_through_the_solver(self, monkeypatch):
        # with the memo off (the reference evaluator's route) a point
        # conjunction is canonicalized by the closure, not by the lane
        theory = DenseOrderTheory()
        theory.cache.enabled = False
        calls = []
        solver = theory._canonicalize

        def counted(atoms):
            calls.append(tuple(atoms))
            return solver(atoms)

        monkeypatch.setattr(theory, "_canonicalize", counted)
        conj = (eq("x", 1), eq("y", 2))
        assert theory.canonicalize(conj) == conj
        assert calls == [conj]


def _chain_with_interval(theory, length):
    """A point chain 0 -> ... -> length plus one interval edge, whose
    derived tuples are not points and so go through the memo."""
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(length):
        edges.add_point([i, i + 1])
    edges.add_tuple((le(1, "x"), lt("x", "y"), le("y", 3)))
    return db


class TestEngineIntegration:
    def test_evaluate_restores_enabled_flag(self):
        # an evaluation leaves the cache's enabled state as it found it
        theory = DenseOrderTheory()
        db = GeneralizedDatabase(theory)
        edges = db.create_relation("E", ("x", "y"))
        edges.add_point([0, 1])
        rules = parse_rules("T(x, y) :- E(x, y).", theory=theory)
        program = DatalogProgram(rules, theory)
        for enabled in (True, False):
            theory.cache.enabled = enabled
            world, _ = program.evaluate(db)
            assert theory.cache.enabled is enabled
            assert len(world.relation("T")) == 1
        theory.cache.enabled = True

    def test_stats_report_nonzero_cache_hits(self):
        theory = DenseOrderTheory()
        db = _chain_with_interval(theory, 6)
        rules = parse_rules(
            "T(x, y) :- E(x, y).\nT(x, y) :- T(x, z), E(z, y).", theory=theory
        )
        _, stats = DatalogProgram(rules, theory).evaluate(db)
        assert stats.cache_hits > 0
        assert stats.theory_cache_hits > 0
