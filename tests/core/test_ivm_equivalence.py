"""Property tests: a maintained view always equals from-scratch evaluation.

The maintenance contract is *stepwise*: after every insert/retract delta the
:class:`~repro.core.ivm.MaterializedView` world must equal (as canonical key
sets) a fresh fixpoint of the same program over the current EDB state -- not
just at the end of a sequence.  These tests drive random insert/retract
interleavings (including retract-then-reinsert churn and no-op deltas) over
hand-built transitive-closure/negation programs on the two pointwise
theories, and over conformance-generated cases on all four theories under
their generated semantics, against both fixpoint orders.

A second family checks the *cost* half of the contract: maintenance work is
proportional to the delta, so a no-op batch ticks no joins at all and a
single-tuple insert into a large closure ticks strictly fewer joins than
recomputing that closure from scratch.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core import MaterializedView
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase, GeneralizedTuple
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget, metered

POSITIVE_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

NEGATION_RULES = POSITIVE_RULES + """
U(x, y) :- V(x), V(y), not T(x, y).
"""

SEMANTICS = ("auto", "stratified", "inflationary")


def _point(theory, variables, values):
    return GeneralizedTuple(
        tuple(variables),
        tuple(
            theory.equality(v, theory.constant(Fraction(c)))
            for v, c in zip(variables, values)
        ),
    )


def _empty_db(theory, schema):
    db = GeneralizedDatabase(theory)
    for name, variables in schema:
        db.create_relation(name, variables)
    return db


def _scratch_fingerprint(rules_text, make_theory, schema, edb_keys,
                         key_to_values, semantics):
    """Evaluate from scratch over the shadow EDB and fingerprint everything."""
    theory = make_theory()
    db = _empty_db(theory, schema)
    for name, _variables in schema:
        relation = db.relation(name)
        for key in sorted(edb_keys[name]):
            relation.add_point([Fraction(v) for v in key_to_values[key]])
    program = DatalogProgram(
        parse_rules(rules_text, theory=theory),
        theory,
        options=EngineOptions.all_on(),
    )
    world, _stats = program.evaluate(db, semantics=semantics)
    return {name: frozenset(world.relation(name).keys())
            for name in world.names()}


def _random_steps(rng, pool, count):
    """Random insert/retract interleaving over a tuple pool.

    Retracts are drawn from the whole pool, so absent-tuple retracts (and
    double inserts) occur naturally; a shadow set tracks the true EDB.
    """
    steps = []
    present = set()
    for _ in range(count):
        key = rng.choice(pool)
        if key in present and rng.random() < 0.45:
            steps.append(("retract", key))
            present.discard(key)
        else:
            steps.append(("insert", key))
            present.add(key)
        if rng.random() < 0.15:
            # deliberate no-op: retract something never inserted
            steps.append(("retract", ("E", 98, 99)))
    return steps


def _assert_maintained_equals_scratch(make_theory, rules_text, schema,
                                      seed, semantics):
    rng = random.Random(seed)
    nodes = rng.randrange(3, 6)
    pool = [("E", a, b) for a in range(nodes) for b in range(nodes) if a != b]
    rng.shuffle(pool)
    pool = pool[: rng.randrange(4, 9)]
    if any(name == "V" for name, _ in schema):
        pool += [("V", v) for v in range(min(nodes, 3))]
    key_to_values = {key: key[1:] for key in pool}
    key_to_values[("E", 98, 99)] = (98, 99)

    theory = make_theory()
    program = DatalogProgram(
        parse_rules(rules_text, theory=theory),
        theory,
        options=EngineOptions.all_on(),
    )
    view = MaterializedView(program, _empty_db(theory, schema), semantics=semantics)
    try:
        edb_keys = {name: set() for name, _ in schema}
        arity = dict(schema)
        for step_index, (op, key) in enumerate(
            _random_steps(rng, pool, rng.randrange(6, 14))
        ):
            name = key[0]
            item = _point(theory, arity[name], key_to_values[key])
            if op == "insert":
                view.insert(name, item)
                edb_keys[name].add(key)
            else:
                view.retract(name, item)
                edb_keys[name].discard(key)
            expected = _scratch_fingerprint(
                rules_text, make_theory, schema, edb_keys,
                key_to_values, semantics,
            )
            assert view.fingerprint() == expected, (
                f"maintained != scratch after step {step_index} "
                f"({op} {key}, semantics={semantics}, seed={seed})"
            )
    finally:
        view.close()


class TestHandBuiltPrograms:
    """Dense-order and equality TC (+ stratified negation) interleavings."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(SEMANTICS))
    def test_dense_order_positive(self, seed, semantics):
        _assert_maintained_equals_scratch(
            DenseOrderTheory, POSITIVE_RULES, [("E", ("x", "y"))],
            seed, semantics,
        )

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(("auto", "stratified")))
    def test_dense_order_negation(self, seed, semantics):
        _assert_maintained_equals_scratch(
            DenseOrderTheory, NEGATION_RULES,
            [("E", ("x", "y")), ("V", ("x",))],
            seed, semantics,
        )

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(SEMANTICS))
    def test_equality_positive(self, seed, semantics):
        _assert_maintained_equals_scratch(
            EqualityTheory, POSITIVE_RULES, [("E", ("x", "y"))],
            seed, semantics,
        )

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equality_negation_inflationary_fallback(self, seed):
        # negation + inflationary resolves to the recompute mode, one
        # stratum of every rule; the stepwise contract must hold there too
        _assert_maintained_equals_scratch(
            EqualityTheory, NEGATION_RULES,
            [("E", ("x", "y")), ("V", ("x",))],
            seed, "inflationary",
        )


class TestFourTheoryMatrix:
    """Conformance-generated datalog cases replayed as update streams."""

    @staticmethod
    def _datalog_spec(theory_name, seed):
        from repro.conformance.generators import generate_case

        for probe in range(25):
            spec = generate_case(theory_name, seed + probe)
            if spec.kind == "datalog":
                return spec
        return None

    def _assert_replay(self, theory_name, seed, semi_naive):
        from repro.conformance.spec import build_case, decode_atom
        from repro.conformance.updates import update_sequence

        spec = self._datalog_spec(theory_name, seed)
        if spec is None:
            return
        case = build_case(spec)
        program = DatalogProgram(
            case.rules, case.theory, options=EngineOptions.all_on()
        )
        db = GeneralizedDatabase(case.theory)
        variables = {}
        for name, relation_variables, _tuples in spec.relations:
            db.create_relation(name, tuple(relation_variables))
            variables[name] = tuple(relation_variables)
        tuple_atoms = {
            (name, index): tuple(
                decode_atom(atom, case.theory) for atom in encoded
            )
            for name, _relation_variables, tuples in spec.relations
            for index, encoded in enumerate(tuples)
        }
        view = MaterializedView(program, db, semantics=spec.semantics)
        try:
            for op, name, index in update_sequence(spec, churn=2):
                item = GeneralizedTuple(
                    variables[name], tuple_atoms[(name, index)]
                )
                if op == "insert":
                    view.insert(name, item)
                else:
                    view.retract(name, item)
            # net effect of the churned stream is exactly the spec's EDB
            scratch_case = build_case(spec)
            scratch = DatalogProgram(
                scratch_case.rules,
                scratch_case.theory,
                options=EngineOptions.all_on(),
            )
            world, _stats = scratch.evaluate(
                scratch_case.database,
                semi_naive=semi_naive,
                semantics=spec.semantics,
            )
            maintained = view.fingerprint()
            for name in world.names():
                assert maintained[name] == frozenset(
                    world.relation(name).keys()
                ), (
                    f"{theory_name} replay diverged on {name!r} "
                    f"(seed={seed}, semi_naive={semi_naive})"
                )
        finally:
            view.close()

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_dense_order(self, seed, semi_naive):
        self._assert_replay("dense_order", seed, semi_naive)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_equality(self, seed, semi_naive):
        self._assert_replay("equality", seed, semi_naive)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_boolean(self, seed, semi_naive):
        self._assert_replay("boolean", seed, semi_naive)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_real_polynomial(self, seed, semi_naive):
        self._assert_replay("real_poly", seed, semi_naive)


def _chain_view(length):
    theory = DenseOrderTheory()
    program = DatalogProgram(
        parse_rules(POSITIVE_RULES, theory=theory),
        theory,
        options=EngineOptions.all_on(),
    )
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(length):
        edges.add_point([i, i + 1])
    return theory, program, MaterializedView(program, db)


def _ticks(view, **deltas):
    """Run one apply under an ambient meter and return its tick counts."""
    meter = Budget(joins=10**9, tuples=10**9, rounds=10**9).start()
    with metered(meter):
        view.apply(**deltas)
    return dict(meter.counts)


class TestDeltaProportionalWork:
    def test_noop_batch_ticks_no_joins(self):
        theory, _program, view = _chain_view(12)
        with view:
            present = _point(theory, ("x", "y"), (0, 1))
            absent = _point(theory, ("x", "y"), (50, 51))
            counts = _ticks(
                view, inserts=[("E", present)], retracts=[("E", absent)]
            )
            assert counts.get("join", 0) == 0
            assert counts.get("tuple", 0) == 0

    def test_single_insert_beats_scratch(self):
        length = 16
        theory, _program, view = _chain_view(length)
        with view:
            counts = _ticks(
                view,
                inserts=[("E", _point(theory, ("x", "y"), (length, length + 1)))],
            )
            maintained_joins = counts.get("join", 0)
            assert maintained_joins > 0

            # from-scratch cost over the *same* final EDB
            scratch_theory = DenseOrderTheory()
            db = GeneralizedDatabase(scratch_theory)
            edges = db.create_relation("E", ("x", "y"))
            for i in range(length + 1):
                edges.add_point([i, i + 1])
            program = DatalogProgram(
                parse_rules(POSITIVE_RULES, theory=scratch_theory),
                scratch_theory,
                options=EngineOptions.all_on(),
            )
            _world, stats = program.evaluate(db)
            assert maintained_joins < stats.join_steps, (
                f"maintenance ({maintained_joins} joins) not cheaper than "
                f"scratch ({stats.join_steps} joins)"
            )

    def test_retract_work_tracks_the_cut_suffix(self):
        # cutting the last edge of a chain touches only the tuples whose
        # derivations used it: far fewer joins than the full fixpoint
        length = 16
        theory, _program, view = _chain_view(length)
        with view:
            counts = _ticks(
                view,
                retracts=[("E", _point(theory, ("x", "y"), (length - 1, length)))],
            )
            scratch_theory = DenseOrderTheory()
            db = GeneralizedDatabase(scratch_theory)
            edges = db.create_relation("E", ("x", "y"))
            for i in range(length - 1):
                edges.add_point([i, i + 1])
            program = DatalogProgram(
                parse_rules(POSITIVE_RULES, theory=scratch_theory),
                scratch_theory,
                options=EngineOptions.all_on(),
            )
            _world, stats = program.evaluate(db)
            assert counts.get("join", 0) < stats.join_steps
