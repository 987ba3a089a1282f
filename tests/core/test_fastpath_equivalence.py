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


#: twelve constants, negative and non-integer ones among them, so that a
#: constant a closure gains often falls between two it already holds
ORDER_CONSTANTS = tuple(
    Fraction(n, d)
    for n, d in (
        (-7, 2), (-3, 1), (-1, 1), (-1, 3), (0, 1), (1, 4),
        (1, 2), (1, 1), (5, 3), (2, 1), (3, 1), (9, 2),
    )
)


def _random_order_atoms(rng, variables, count):
    atoms = []
    for _ in range(count):
        op = rng.choice(["<", "<=", "=", "!="])
        left = Var(rng.choice(variables))
        if rng.random() < 0.5:
            right = Var(rng.choice(variables))
            if right == left:
                continue
        else:
            right = Const(rng.choice(ORDER_CONSTANTS))
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


def _reference_rows(atoms, terms):
    """The order closure of ``atoms`` over ``terms``, by the textbook method.

    Every pair of constants gets its strict edge, then Warshall's triple
    loop and the disequality rule (``a <= b`` and ``a != b`` give ``a < b``)
    run until nothing changes.  Shares no code with ``_Closure``.  Returns
    the weak and strict rows as bitmasks over ``terms``' positions, the
    disequal position pairs, and satisfiability.
    """
    n = len(terms)
    at = {term: i for i, term in enumerate(terms)}
    weak = [[False] * n for _ in range(n)]
    strict = [[False] * n for _ in range(n)]
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            if isinstance(a, Const) and isinstance(b, Const) and a.value < b.value:
                weak[i][j] = strict[i][j] = True
    neq = set()
    for atom in atoms:
        i, j = at[atom.left], at[atom.right]
        if atom.op == "!=":
            neq.add((min(i, j), max(i, j)))
            continue
        weak[i][j] = True
        if atom.op == "<":
            strict[i][j] = True
        elif atom.op == "=":
            weak[j][i] = True
    changed = True
    while changed:
        changed = False
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if not (weak[i][k] and weak[k][j]):
                        continue
                    if not weak[i][j]:
                        weak[i][j] = changed = True
                    if (strict[i][k] or strict[k][j]) and not strict[i][j]:
                        strict[i][j] = changed = True
        for i, j in neq:
            for a, b in ((i, j), (j, i)):
                if weak[a][b] and not strict[a][b]:
                    strict[a][b] = changed = True
    satisfiable = not any(strict[i][i] for i in range(n)) and not any(
        weak[i][j] and weak[j][i] for i, j in neq
    )

    def rows(matrix):
        return [sum(1 << j for j in range(n) if row[j]) for row in matrix]

    return rows(weak), rows(strict), neq, satisfiable


_VARIABLES = ("v0", "v1", "v2", "v3")
_TERMS = st.one_of(
    st.sampled_from(_VARIABLES).map(Var), st.sampled_from(ORDER_CONSTANTS).map(Const)
)
_ORDER_ATOMS = st.builds(
    OrderAtom, st.sampled_from(["<", "<=", "=", "!="]), _TERMS, _TERMS
).filter(lambda atom: atom.left != atom.right)
_CHUNKS = st.lists(st.lists(_ORDER_ATOMS, min_size=1, max_size=4), min_size=1, max_size=5)


class TestClosureReference:
    """``_Closure`` and its ``extended`` chain against an all-pairs closure.

    The closure links only value-neighbouring constants, and ``extended``
    bisects each new constant into that order.  Both must derive what
    every constant pair as an edge derives.  An unsatisfiable closure is
    compared by its verdict alone: ``extended`` stops propagating once a
    conjunction is inconsistent, and nothing reads such a closure's rows.
    """

    @staticmethod
    def _assert_matches(closure, atoms):
        from repro.constraints.dense_order import _Closure

        assert isinstance(closure, _Closure)
        terms = {t for atom in atoms for t in (atom.left, atom.right)}
        if not closure.satisfiable:
            assert not _reference_rows(atoms, list(terms))[3]
            return
        assert set(closure.terms) == terms
        assert len(closure.terms) == len(terms)
        weak, strict, neq, satisfiable = _reference_rows(atoms, closure.terms)
        assert satisfiable
        assert closure._weak == weak
        assert closure._strict == strict
        assert closure._neq == neq
        assert closure._constants == sorted(
            (t.value, i) for i, t in enumerate(closure.terms) if isinstance(t, Const)
        )

    @settings(deadline=None)
    @given(_CHUNKS)
    def test_closure_and_extended_chain_match_all_pairs(self, chunks):
        from repro.constraints.dense_order import _Closure

        flat = [atom for chunk in chunks for atom in chunk]
        self._assert_matches(_Closure(flat), flat)
        closure = _Closure(chunks[0])
        seen = list(chunks[0])
        self._assert_matches(closure, seen)
        for chunk in chunks[1:]:
            closure = closure.extended(chunk)
            seen.extend(chunk)
            self._assert_matches(closure, seen)

    def test_a_constant_between_two_others_is_linked_to_both(self):
        # 1 < x < 3 holds 1 and 3; extending by x = 2 must place 2 between
        # them, and x = 5/2 then conflicts with the pin through the chain
        from repro.constraints.dense_order import _Closure

        one, two, three = (Const(Fraction(v)) for v in (1, 2, 3))
        x = Var("x")
        base = [OrderAtom("<", one, x), OrderAtom("<", x, three)]
        closure = _Closure(base).extended([OrderAtom("=", x, two)])
        assert closure.satisfiable
        assert closure.strictly_less(one, two) and closure.strictly_less(two, three)
        assert closure.strictly_less(one, three)
        self._assert_matches(closure, base + [OrderAtom("=", x, two)])
        pinned_apart = closure.extended(
            [OrderAtom("=", Var("y"), Const(Fraction(5, 2))), OrderAtom("<=", Var("y"), x)]
        )
        assert not pinned_apart.satisfiable


class TestFourTheoryMatrix:
    """Planner + index probes + rule compiler across all four theories.

    Drives conformance-generated datalog cases (dense order, equality,
    boolean, real polynomial) through the engine under both flag settings
    -- all on and all off -- under both fixpoint orders and all semantics.
    The configurations must agree on canonical fixpoints, and those must
    equal :func:`repro.conformance.reference.reference_fixpoint`'s.
    """

    CONFIGS = (EngineOptions.all_on(), EngineOptions.all_off())

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
