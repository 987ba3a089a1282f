"""Property tests: the engine fast path never changes a fixpoint.

Every fast-path layer (TheoryCache, rename cache, incremental joins,
complement cache, pin filter, index probes) is a pure evaluation shortcut
and always on; the flags that remain (the join planner and the semantic
optimizer) must not change a fixpoint either.  These tests drive random
dense-order and equality programs through the engine with every flag on
and every flag off and compare canonical fixpoints, check generated cases
of all four theories against the reference evaluator, and check the
incremental dense-order closure against the from-scratch solver.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.conformance.oracles import compare_relations
from repro.conformance.reference import reference_fixpoint
from repro.constraints.dense_order import DenseOrderTheory, OrderAtom
from repro.constraints.equality import EqualityTheory
from repro.constraints.terms import Const, Var
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules

POSITIVE_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

NEGATION_RULES = POSITIVE_RULES + """
U(x, y) :- V(x), V(y), not T(x, y).
"""

SEMANTICS = ("auto", "stratified", "inflationary")


def _random_dense_db(theory, rng, size):
    """A small random graph: point edges plus the odd interval tuple."""
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
        lo = rng.randrange(nodes)
        dense = theory
        edges.add_tuple(
            [
                dense.le(Fraction(lo), "x"),
                dense.lt("x", "y"),
                dense.le("y", Fraction(lo + 1)),
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
        # a tuple with a free second column, constrained only by !=
        edges.add_tuple(
            [theory.eq("x", theory.const(0)), theory.ne("x", "y")]
        )
    vertices = db.create_relation("V", ("x",))
    for v in range(min(nodes, 4)):
        vertices.add_point([v])
    return db


def _fingerprint(world, names):
    return {
        name: frozenset(frozenset(t.atoms) for t in world.relation(name))
        for name in names
    }


def _assert_fastpath_equivalent(make_theory, make_db, seed, size):
    rng = random.Random(seed)
    for rules_text, names in (
        (POSITIVE_RULES, ("T",)),
        (NEGATION_RULES, ("T", "U")),
    ):
        # one database layout per (seed, rules) pair, rebuilt per engine so
        # neither evaluation sees the other's caches
        layout_seed = rng.randrange(1 << 30)
        for semantics in SEMANTICS:
            for semi_naive in (True, False):
                results = []
                for options in (EngineOptions.all_on(), EngineOptions.all_off()):
                    theory = make_theory()
                    db = make_db(theory, random.Random(layout_seed), size)
                    program = DatalogProgram(
                        parse_rules(rules_text, theory=theory),
                        theory,
                        options=options,
                    )
                    world, stats = program.evaluate(
                        db, semi_naive=semi_naive, semantics=semantics
                    )
                    results.append(_fingerprint(world, names))
                assert results[0] == results[1], (
                    f"fast path changed the {semantics} fixpoint "
                    f"(semi_naive={semi_naive}, seed={seed})"
                )


class TestFastPathEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_dense_order_programs(self, seed, size):
        _assert_fastpath_equivalent(
            DenseOrderTheory, _random_dense_db, seed, size
        )

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_equality_programs(self, seed, size):
        _assert_fastpath_equivalent(
            EqualityTheory, _random_equality_db, seed, size
        )


def _random_order_atoms(rng, variables, count, constants=4):
    atoms = []
    for _ in range(count):
        op = rng.choice(["<", "<=", "=", "!="])
        left = Var(rng.choice(variables))
        if rng.random() < 0.5:
            right = Var(rng.choice(variables))
            if right == left:
                continue
        else:
            right = Const(Fraction(rng.randrange(constants)))
        atoms.append(OrderAtom(op, left, right))
    return atoms


class TestIncrementalClosure:
    """begin/extend_conjunction must agree with the from-scratch solver."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_incremental_matches_scratch(self, seed):
        rng = random.Random(seed)
        theory = DenseOrderTheory()
        variables = [f"v{i}" for i in range(rng.randrange(2, 5))]
        chunks = [
            _random_order_atoms(rng, variables, rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 5))
        ]
        context = theory.begin_conjunction(tuple(chunks[0]))
        for chunk in chunks[1:]:
            context = theory.extend_conjunction(context, tuple(chunk))
        flat = tuple(a for chunk in chunks for a in chunk)
        assert context.atoms == flat
        scratch_sat = theory._is_satisfiable(flat)
        assert context.satisfiable == scratch_sat
        if scratch_sat:
            # the incremental insertion must derive exactly the entailed
            # order facts the from-scratch Warshall closure derives
            from repro.constraints.dense_order import _Closure

            state = context.state
            scratch = _Closure(flat)
            assert isinstance(state, _Closure)
            for a in scratch.terms:
                for b in scratch.terms:
                    assert state.weakly_less(a, b) == scratch.weakly_less(a, b)
                    assert state.strictly_less(a, b) == scratch.strictly_less(
                        a, b
                    )


class TestFourTheoryMatrix:
    """Planner + index probes + rule compiler across all four theories.

    Drives conformance-generated datalog cases (dense order, equality,
    boolean, real polynomial) through the engine under every interesting
    flag combination -- all on, all off, and the planner alone off --
    under both fixpoint orders and all semantics.
    The configurations must agree on canonical fixpoints, and those must
    equal :func:`repro.conformance.reference.reference_fixpoint`'s.
    """

    CONFIGS = (
        EngineOptions.all_on(),
        EngineOptions.all_off(),
        EngineOptions(join_planner=False),
    )

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
        fingerprints = set()
        for options in self.CONFIGS:
            for semi_naive in (True, False):
                case = build_case(spec)
                program = DatalogProgram(case.rules, case.theory, options=options)
                world, _stats = program.evaluate(
                    case.database,
                    semi_naive=semi_naive,
                    semantics=spec.semantics,
                )
                fingerprints.add(
                    frozenset(
                        frozenset(t.atoms)
                        for t in world.relation(spec.target)
                    )
                )
        assert len(fingerprints) == 1, (
            f"{theory_name} fixpoint depends on engine flags (seed={seed}, "
            f"{len(fingerprints)} distinct answers)"
        )
        case = build_case(spec)
        expected = reference_fixpoint(
            case.rules, case.theory, case.database, semantics=spec.semantics
        )
        found = compare_relations(
            expected.relation(spec.target),
            world.relation(spec.target),
            "reference",
            "engine",
            spec.theory,
            spec.m,
        )
        assert found is None, f"{theory_name} (seed={seed}): {found.describe()}"

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
