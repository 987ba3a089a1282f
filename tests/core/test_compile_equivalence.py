"""Property tests: the compiled join computes the reference fixpoint.

The engine's only rule join is the compiled closure chain
(:mod:`repro.core.compile`).  Its oracle is
:func:`repro.conformance.reference.reference_fixpoint`, a flag-free,
cache-free evaluator sharing no join code with it.  These tests compare
the two across all four theories and every semantics (naive and
semi-naive iteration under auto, stratified, and inflationary policies),
semantically through :func:`repro.conformance.oracles.compare_relations`.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.conformance.oracles import compare_relations
from repro.conformance.reference import reference_fixpoint
from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.constraints.real_poly import RealPolynomialTheory, poly_ge, poly_le
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules
from repro.poly.polynomial import poly_var

POSITIVE_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

NEGATION_RULES = POSITIVE_RULES + """
U(x, y) :- V(x), V(y), not T(x, y).
"""

#: a negated atom whose matches are not all points: ``E``'s interval tuple
#: (dense order) and ``x != y`` tuple (equality) leave ``x, y`` unpinned
INTERVAL_NEGATION_RULES = NEGATION_RULES + """
W(x, y) :- E(x, y), not T(y, x).
"""

SEMANTICS = ("auto", "stratified", "inflationary")


def _random_dense_db(theory, rng, size):
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    nodes = max(2, size)
    for _ in range(size + 1):
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a == b:
            continue
        edges.add_point([a, b])
    if rng.random() < 0.5:
        # a non-point tuple forces the general (context-building) path
        lo = rng.randrange(nodes)
        edges.add_tuple(
            [
                theory.le(Fraction(lo), "x"),
                theory.lt("x", "y"),
                theory.le("y", Fraction(lo + 1)),
            ]
        )
    vertices = db.create_relation("V", ("x",))
    for v in range(min(nodes, 4)):
        vertices.add_point([v])
    return db


def _random_equality_db(theory, rng, size):
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    nodes = max(2, size)
    for _ in range(size + 1):
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a == b:
            continue
        edges.add_point([a, b])
    if rng.random() < 0.5:
        edges.add_tuple([theory.eq("x", theory.const(0)), theory.ne("x", "y")])
    vertices = db.create_relation("V", ("x",))
    for v in range(min(nodes, 4)):
        vertices.add_point([v])
    return db


def _assert_matches_reference(make_theory, make_db, theory_name, seed, size):
    rng = random.Random(seed)
    for rules_text, names in (
        (POSITIVE_RULES, ("T",)),
        (NEGATION_RULES, ("T", "U")),
        (INTERVAL_NEGATION_RULES, ("T", "U", "W")),
    ):
        layout_seed = rng.randrange(1 << 30)
        for semantics in SEMANTICS:
            # fresh theory and database per run: neither evaluation sees
            # the other's caches or join indexes
            theory = make_theory()
            rules = parse_rules(rules_text, theory=theory)
            db = make_db(theory, random.Random(layout_seed), size)
            expected = reference_fixpoint(rules, theory, db, semantics=semantics)
            for semi_naive in (True, False):
                theory = make_theory()
                db = make_db(theory, random.Random(layout_seed), size)
                program = DatalogProgram(
                    parse_rules(rules_text, theory=theory),
                    theory,
                    options=EngineOptions.all_on(),
                )
                world, _stats = program.evaluate(
                    db, semi_naive=semi_naive, semantics=semantics
                )
                for name in names:
                    found = compare_relations(
                        expected.relation(name),
                        world.relation(name),
                        "reference",
                        "engine",
                        theory_name,
                    )
                    assert found is None, (
                        f"{name}: {found.describe()} (semantics={semantics}, "
                        f"semi_naive={semi_naive}, seed={seed})"
                    )


class TestCompiledEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_dense_order_programs(self, seed, size):
        _assert_matches_reference(
            DenseOrderTheory, _random_dense_db, "dense_order", seed, size
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_equality_programs(self, seed, size):
        _assert_matches_reference(
            EqualityTheory, _random_equality_db, "equality", seed, size
        )


def test_real_poly_interval_minus_interval():
    # [0, 4] minus [1, 2]: a match that pins nothing, so the difference
    # step conjoins it with the complement of the one tuple it meets
    theory = RealPolynomialTheory()
    x = poly_var("x")
    rules = parse_rules("U(x) :- I(x), not J(x).", theory=theory)
    db = GeneralizedDatabase(theory)
    db.create_relation("I", ("x",)).add_tuple([poly_ge(x, 0), poly_le(x, 4)])
    db.create_relation("J", ("x",)).add_tuple([poly_ge(x, 1), poly_le(x, 2)])
    expected = reference_fixpoint(rules, theory, db).relation("U")
    world, _stats = DatalogProgram(rules, theory).evaluate(db)
    found = compare_relations(
        expected, world.relation("U"), "reference", "engine", "real_poly"
    )
    assert found is None, found.describe()
    answer = world.relation("U")
    for value, inside in (
        (-1, False), (0, True), (Fraction(1, 2), True), (1, False),
        (Fraction(3, 2), False), (2, False), (Fraction(5, 2), True),
        (4, True), (5, False),
    ):
        assert answer.contains_values([Fraction(value)]) is inside, value


class TestFourTheoryMatrix:
    """Engine vs reference over conformance-generated cases.

    Covers all four theories (dense order, equality, boolean, real
    polynomial) under both fixpoint orders and the generated case's own
    semantics, including the theories the compiler forces onto the
    general (non-pointwise) path.
    """

    @staticmethod
    def _datalog_spec(theory_name, seed):
        from repro.conformance.generators import generate_case

        for probe in range(25):
            spec = generate_case(theory_name, seed + probe)
            if spec.kind == "datalog":
                return spec
        return None

    def _assert_matrix(self, theory_name, seed):
        from repro.conformance.spec import build_case

        spec = self._datalog_spec(theory_name, seed)
        if spec is None:
            return
        case = build_case(spec)
        expected = reference_fixpoint(
            case.rules, case.theory, case.database, semantics=spec.semantics
        ).relation(spec.target)
        for semi_naive in (True, False):
            case = build_case(spec)
            program = DatalogProgram(case.rules, case.theory)
            world, _stats = program.evaluate(
                case.database,
                semi_naive=semi_naive,
                semantics=spec.semantics,
            )
            found = compare_relations(
                expected,
                world.relation(spec.target),
                "reference",
                "engine",
                spec.theory,
                spec.m,
            )
            assert found is None, (
                f"{theory_name} (seed={seed}, semi_naive={semi_naive}): "
                f"{found.describe()}"
            )

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dense_order(self, seed):
        self._assert_matrix("dense_order", seed)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equality(self, seed):
        self._assert_matrix("equality", seed)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_boolean(self, seed):
        self._assert_matrix("boolean", seed)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_real_poly(self, seed):
        self._assert_matrix("real_poly", seed)
