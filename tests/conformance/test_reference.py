"""The flag-free reference evaluator: independence, semantics, cache hygiene."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from repro.conformance import reference
from repro.conformance.reference import reference_fixpoint
from repro.constraints.dense_order import DenseOrderTheory
from repro.core.generalized import GeneralizedDatabase
from repro.errors import EvaluationError
from repro.logic.parser import parse_rules

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

#: not stratifiable: P and Q negate each other through recursion
MUTUAL_RULES = """
P(x) :- V(x), not Q(x).
Q(x) :- V(x), not P(x).
"""


def _db(theory, **relations):
    db = GeneralizedDatabase(theory)
    for name, points in relations.items():
        arity = len(points[0])
        relation = db.create_relation(name, tuple(f"a{i}" for i in range(arity)))
        for point in points:
            relation.add_point([Fraction(c) for c in point])
    return db


def _points(relation):
    return {
        tuple(point[v] for v in relation.variables)
        for point in relation.sample_points()
    }


class TestIndependence:
    """The oracle shares no join code with the engine it checks."""

    TREE = ast.parse(Path(reference.__file__).read_text())

    def test_imports_no_engine_join_module(self):
        modules = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, ast.ImportFrom):
                modules.add(node.module)
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        for module in modules:
            assert not module.startswith("repro.core.compile"), module
            assert not module.startswith("repro.indexing"), module

    def test_never_calls_the_engine(self):
        names = {
            node.id for node in ast.walk(self.TREE) if isinstance(node, ast.Name)
        } | {
            node.attr
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Attribute)
        }
        assert not names & {"evaluate", "_execute_round", "_EvalCaches"}


class TestSemantics:
    def test_transitive_closure(self):
        theory = DenseOrderTheory()
        db = _db(theory, E=[(0, 1), (1, 2), (2, 3)])
        world = reference_fixpoint(parse_rules(TC_RULES, theory=theory), theory, db)
        expected = {(a, b) for a in range(4) for b in range(a + 1, 4)}
        assert _points(world.relation("T")) == expected
        # the input database is not modified
        assert "T" not in db

    def test_stratified_negation(self):
        theory = DenseOrderTheory()
        rules = parse_rules(
            TC_RULES + "U(x, y) :- V(x), V(y), not T(x, y).\n", theory=theory
        )
        db = _db(theory, E=[(0, 1)], V=[(0,), (1,)])
        world = reference_fixpoint(rules, theory, db, semantics="stratified")
        assert _points(world.relation("U")) == {(0, 0), (1, 0), (1, 1)}

    def test_unstratifiable_program(self):
        theory = DenseOrderTheory()
        rules = parse_rules(MUTUAL_RULES, theory=theory)
        db = _db(theory, V=[(0,)])
        with pytest.raises(EvaluationError, match="not stratifiable"):
            reference_fixpoint(rules, theory, db, semantics="stratified")
        # auto falls back to the inflationary semantics: the first round
        # sees P and Q both empty, so both derive V's element
        for semantics in ("auto", "inflationary"):
            world = reference_fixpoint(rules, theory, db, semantics=semantics)
            assert _points(world.relation("P")) == {(0,)}
            assert _points(world.relation("Q")) == {(0,)}

    def test_unknown_semantics(self):
        theory = DenseOrderTheory()
        with pytest.raises(EvaluationError, match="unknown semantics"):
            reference_fixpoint([], theory, GeneralizedDatabase(theory), "wrong")


class TestTheoryCache:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_cache_off_for_the_run_and_restored(self, enabled):
        theory = DenseOrderTheory()
        theory.cache.enabled = enabled
        db = _db(theory, E=[(0, 1), (1, 2)])
        before = theory.cache.stats.snapshot()
        reference_fixpoint(parse_rules(TC_RULES, theory=theory), theory, db)
        assert theory.cache.stats.snapshot() == before
        assert theory.cache.enabled is enabled
