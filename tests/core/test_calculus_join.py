"""The calculus evaluator's conjunctive blocks run through the rule join.

A positive existential conjunctive block is evaluated as one nonrecursive
Datalog rule (the engine's compiled join); everything else keeps the DNF
route.  These tests check that the two routes agree on the conformance
generators' calculus cases, that Figure 2 takes the join (and probes the
interval index instead of distributing every pair), that a join outside
the quantifier-elimination fragment falls back to the DNF route, and that
a budget trip inside the join raises instead of returning a fringe.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from repro.conformance.generators import THEORY_NAMES, case_seed, generate_case
from repro.conformance.oracles import compare_relations
from repro.conformance.spec import build_case
from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.constraints.real_poly import RealPolynomialTheory, poly_eq, poly_le
from repro.core import calculus
from repro.core.calculus import evaluate_boolean_query, evaluate_calculus
from repro.core.datalog import DatalogProgram, Rule
from repro.core.generalized import GeneralizedDatabase, GeneralizedRelation
from repro.errors import BudgetExceededError, UnsupportedEliminationError
from repro.geometry.rectangles import intersecting_pairs_sweepline
from repro.logic.parser import parse_query
from repro.logic.syntax import And, Exists, RelationAtom
from repro.logic.transform import to_nnf
from repro.poly.polynomial import Polynomial
from repro.runtime.budget import Budget, supervised
from repro.workloads.spatial import random_rectangles, rectangles_to_generalized

FIG2 = "exists x, y . Rect(n1, x, y) and Rect(n2, x, y) and n1 != n2"


def _dnf_route(query, database, output):
    """``evaluate_calculus`` with every block on the DNF route."""
    theory = database.theory
    result = GeneralizedRelation("dnf", tuple(output), theory)
    nnf = to_nnf(query, theory.negate_atom)
    for conjunction in calculus._eval(nnf, database, theory, join=False):
        result.add_tuple(conjunction)
    return result


def _run(spec, join):
    case = build_case(spec)  # a fresh theory per route: no shared caches
    if join:
        return evaluate_calculus(case.query, case.database, output=case.output)
    return _dnf_route(case.query, case.database, case.output)


@pytest.fixture
def joins_taken(monkeypatch):
    """Blocks the join answered, as a list of their DNF sizes."""
    taken: list[int] = []
    original = calculus._join

    def spy(*args):
        answered = original(*args)
        if answered is not None:
            taken.append(len(answered))
        return answered

    monkeypatch.setattr(calculus, "_join", spy)
    return taken


@pytest.fixture
def conjoin_calls(monkeypatch):
    calls: list[int] = []
    original = calculus.conjoin_dnf

    def counting(left, right, theory):
        calls.append(len(left) * len(right))
        return original(left, right, theory)

    monkeypatch.setattr(calculus, "conjoin_dnf", counting)
    return calls


# ------------------------------------------------------------ route equality
@pytest.mark.parametrize("theory", THEORY_NAMES)
@given(seed=st.integers(0, 2**31 - 1))
def test_join_route_equals_dnf_route(theory, seed):
    spec = generate_case(theory, seed)
    assume(spec.kind == "calculus")
    joined = _run(spec, join=True)
    distributed = _run(spec, join=False)
    discrepancy = compare_relations(
        joined, distributed, "join", "dnf", spec.theory, spec.m
    )
    assert discrepancy is None, (seed, discrepancy)


@pytest.mark.parametrize("theory", THEORY_NAMES)
def test_generated_cases_take_the_join(theory, joins_taken):
    """The property above compares something: the generators' calculus
    cases do reach the join in every theory."""
    for index in range(40):
        spec = generate_case(theory, case_seed(0, theory, index))
        if spec.kind == "calculus":
            _run(spec, join=True)
    assert joins_taken


# ------------------------------------------------------------- route choice
def _fig2(count, seed=3):
    rects = random_rectangles(count, seed=seed, universe=120, max_side=30)
    db = rectangles_to_generalized(rects)
    return rects, db, parse_query(FIG2, theory=db.theory)


def _pairs(relation):
    pairs = set()
    for item in relation:
        pins = relation.theory.pinned_constants(item.atoms)
        pairs.add((pins["n1"], pins["n2"]))
    return pairs


def test_fig2_is_one_rule_that_probes_the_interval_index(
    monkeypatch, conjoin_calls, joins_taken, index_builds
):
    evaluations = []
    original = DatalogProgram.evaluate

    def recording(self, database, *args, **kwargs):
        world, stats = original(self, database, *args, **kwargs)
        evaluations.append((self.rules, stats))
        return world, stats

    monkeypatch.setattr(DatalogProgram, "evaluate", recording)
    rects, db, query = _fig2(24)
    result = evaluate_calculus(query, db, output=("n1", "n2"))
    assert _pairs(result) == intersecting_pairs_sweepline(rects)
    assert not conjoin_calls
    assert joins_taken == [len(result)]
    ((rules, stats),) = evaluations
    assert [str(rule) for rule in rules] == [
        "_calculus_answer(n1, n2) :- Rect(n1, x, y), Rect(n2, x, y), n1 != n2"
    ]
    # the second atom probes Rect's interval index on x: far fewer join
    # steps than the 24 * 24 pairs the DNF route canonicalizes
    assert ("Rect", "x") in index_builds
    assert stats.index_probes > 0
    assert stats.join_steps < 24 * 24 // 2


def test_disjunctive_query_keeps_conjoin_dnf(conjoin_calls, joins_taken):
    db = GeneralizedDatabase(DenseOrderTheory())
    db.create_relation("R", ("x",)).add_tuple([le(0, "x"), le("x", 10)])
    db.create_relation("S", ("x",)).add_tuple([le(4, "x"), le("x", 6)])
    query = parse_query("R(x) and (S(x) or x < 2)", theory=db.theory)
    result = evaluate_calculus(query, db)
    assert conjoin_calls
    assert not joins_taken
    assert result.contains_values([Fraction(1)])
    assert result.contains_values([Fraction(5)])
    assert not result.contains_values([Fraction(3)])


def test_lone_atoms_and_constraint_blocks_stay_on_the_dnf_route(joins_taken):
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation("S", ("x", "y")).add_tuple([lt("x", "y"), lt("y", 5)])
    evaluate_calculus(parse_query("exists y . S(x, y)", theory=theory), db)
    evaluate_calculus(parse_query("exists y . x < y and y < 3", theory=theory), db)
    assert not joins_taken


def test_inner_conjunctive_block_takes_the_join(joins_taken):
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation("R", ("x",)).add_tuple([le(0, "x"), le("x", 10)])
    db.create_relation("S", ("x", "y")).add_tuple([lt("x", "y"), lt("y", 5)])
    query = parse_query(
        "(exists y . R(x) and S(x, y)) or x < -3", theory=theory
    )
    result = evaluate_calculus(query, db)
    assert joins_taken == [1]
    assert result.contains_values([Fraction(2)])
    assert result.contains_values([Fraction(-4)])
    assert not result.contains_values([Fraction(6)])


# ------------------------------------------------------- renaming bound vars
@pytest.mark.parametrize(
    "text",
    [
        # a bound variable named like a free one
        "R(x) and (exists x . S(y, x))",
        # a bound variable rebound inside its own scope
        "exists z . (S(x, z) and (exists z . S(z, y)))",
        # two sibling blocks binding the same name
        "(exists z . S(x, z)) and (exists z . S(z, y)) and x < y",
    ],
)
def test_bound_variables_are_renamed_apart(text, joins_taken):
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation("R", ("x",)).add_tuple([le(0, "x"), le("x", 4)])
    s = db.create_relation("S", ("x", "y"))
    s.add_tuple([le(1, "x"), lt("x", "y"), le("y", 3)])
    s.add_point([5, 8])
    query = parse_query(text, theory=theory)
    output = tuple(sorted({"x", "y"}))
    joined = evaluate_calculus(query, db, output=output)
    assert joins_taken
    assert compare_relations(
        joined, _dnf_route(query, db, output), "join", "dnf", "dense_order"
    ) is None


def test_closed_query_through_the_join(joins_taken):
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation("R", ("x",)).add_tuple([le(0, "x"), le("x", 4)])
    assert evaluate_boolean_query(
        parse_query("exists x . R(x) and x < 1", theory=theory), db
    )
    assert not evaluate_boolean_query(
        parse_query("exists x . R(x) and 5 < x", theory=theory), db
    )
    assert len(joins_taken) == 2


# ----------------------------------------------------------------- fallback
def test_unsupported_elimination_falls_back_to_the_dnf_route(joins_taken):
    """The join decides each partial conjunction's satisfiability, which
    for ``xyz - 1 = 0 and x^3 + y = 0 and x <= 2`` needs elimination past
    the ladder; ``canonicalize`` on the DNF route tolerates it, so the
    block answers as it always did."""
    x, y, z = (Polynomial.variable(v) for v in "xyz")
    theory = RealPolynomialTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation("R", ("x", "y", "z")).add_tuple(
        [poly_eq(x * y * z - 1), poly_eq(x**3 + y)]
    )
    db.create_relation("S", ("x",)).add_tuple([poly_le(x, 2)])
    body = (RelationAtom("R", ("x", "y", "z")), RelationAtom("S", ("x",)))
    with pytest.raises(UnsupportedEliminationError):
        DatalogProgram([Rule(RelationAtom("A", ("x", "y")), body)], theory).evaluate(db)
    query = Exists(("z",), And(body))
    result = evaluate_calculus(query, db, output=("x", "y"))
    assert not joins_taken
    assert [sorted(str(atom) for atom in item.atoms) for item in result] == [
        ["x - 2 <= 0", "x*y != 0", "x^3 + y = 0"]
    ]


# ------------------------------------------------------------------ budgets
@pytest.mark.parametrize("mode", ["fringe", "raise"])
def test_fig2_under_a_join_budget_is_complete_or_raises(mode):
    """A trip inside the join never returns the fringe: a query answer
    carries no ``incomplete`` tag, so it must be whole or an error."""
    rects, db, query = _fig2(16)
    full = _pairs(evaluate_calculus(query, db, output=("n1", "n2")))
    assert full == intersecting_pairs_sweepline(rects)
    outcomes = set()
    for joins in (1, 8, 16, 32, 64, 128, 10_000):
        budget = Budget(joins=joins, partial_results=mode)
        try:
            with supervised(budget):
                result = evaluate_calculus(query, db, output=("n1", "n2"))
        except BudgetExceededError as error:
            assert error.report.budget_kind == "joins"
            outcomes.add("raised")
            continue
        assert _pairs(result) == full
        outcomes.add("complete")
    assert outcomes == {"raised", "complete"}
