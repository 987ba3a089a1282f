"""The semantic optimizer: containment rewrites never change fixpoints.

The property half runs conformance-generated datalog cases through the
``datalog[all_on]`` and ``datalog[all_off]`` strategies (the optimizer is
the one flag ``all_off`` switches off) and demands semantically equal
answers; the directed half pins each pass (subsumption,
literal elimination, constraint tightening, unsat pruning, view
answerability), the Theorem 2.8 refusal (containment that holds semantically
but has no homomorphism witness must NOT be rewritten), the real_poly
no-op, and graceful degradation under budgets and injected faults.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis.semantic import (
    CONTAINMENT_THEORIES,
    SemanticResult,
    optimize_program,
    rule_contained_in,
)
from repro.conformance.generators import THEORY_NAMES, generate_case
from repro.conformance.oracles import compare_relations
from repro.conformance.spec import build_case
from repro.conformance.strategies import strategies_for
from repro.constraints.dense_order import DenseOrderTheory, gt, lt
from repro.constraints.equality import EqualityTheory
from repro.constraints.real_poly import RealPolynomialTheory, poly_eq
from repro.core.datalog import DatalogProgram, EngineOptions, Rule
from repro.core.ivm import MaterializedView, ViewRegistry
from repro.logic.parser import parse_rules
from repro.logic.syntax import RelationAtom
from repro.runtime.budget import Budget, supervised

TC = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

SEMANTIC_OFF = replace(EngineOptions.all_on(), optimize_semantic=False)


def _chain_db(theory, n=5):
    from repro.core.generalized import GeneralizedDatabase

    db = GeneralizedDatabase(theory)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(n):
        edge.add_point([i, i + 1])
    return db


def _fingerprint(world, target):
    return frozenset(t.atoms for t in world.relation(target).tuples())


def _both_fixpoints(rules_text, theory_factory, semantics="auto", n=5):
    """(optimized world+stats, unoptimized world) over the same chain EDB."""
    theory = theory_factory()
    rules = parse_rules(rules_text, theory=theory)
    program = DatalogProgram(rules, theory, options=EngineOptions.all_on())
    world, stats = program.evaluate(_chain_db(theory, n), semantics=semantics)
    plain_theory = theory_factory()
    plain_rules = parse_rules(rules_text, theory=plain_theory)
    plain = DatalogProgram(plain_rules, plain_theory, options=SEMANTIC_OFF)
    plain_world, _stats = plain.evaluate(
        _chain_db(plain_theory, n), semantics=semantics
    )
    return world, stats, plain_world


# ------------------------------------------------------------------ property
@given(
    theory=st.sampled_from(sorted(THEORY_NAMES)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_optimized_fixpoint_equals_original(theory, seed):
    """The conformance pair: all_on (optimizer live) vs. all_off (unrewritten)."""
    spec = generate_case(theory, seed)
    assume(spec.kind == "datalog")
    routes = {s.name: s for s in strategies_for(spec)}
    left = routes["datalog[all_on]"].run(spec)
    right = routes["datalog[all_off]"].run(spec)
    found = compare_relations(left, right, "all_on", "all_off", spec.theory, spec.m)
    assert found is None, found.describe()


@given(
    theory=st.sampled_from(sorted(CONTAINMENT_THEORIES)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_optimizer_is_idempotent(theory, seed):
    """Optimizing an already-optimized rule list changes nothing."""
    spec = generate_case(theory, seed)
    assume(spec.kind == "datalog")
    case = build_case(spec)
    first = optimize_program(case.rules, case.theory)
    second = optimize_program(first.rules, case.theory)
    assert not second.changed
    assert [str(r) for r in second.rules] == [str(r) for r in first.rules]


# ---------------------------------------------------------- directed: passes
@pytest.mark.parametrize("factory", [DenseOrderTheory, EqualityTheory])
def test_subsumption_removes_narrowed_duplicate(factory):
    theory = factory()
    narrowing = (
        "x < 3" if isinstance(theory, DenseOrderTheory) else "x = 1"
    )
    text = TC + f"T(x, y) :- E(x, y), {narrowing}.\n"
    world, stats, plain_world = _both_fixpoints(text, factory)
    assert stats.semantic_rules_subsumed == 1
    assert _fingerprint(world, "T") == _fingerprint(plain_world, "T")


def test_subsumption_keeps_the_shorter_equivalent_rule():
    theory = DenseOrderTheory()
    rules = parse_rules(
        "T(x, y) :- E(x, y), E(x, z).\nT(x, y) :- E(x, y).\n", theory=theory
    )
    result = optimize_program(rules, theory)
    # the two rules are equivalent; the longer one must be the one removed
    assert len(result.rules) == 1
    assert len(result.rules[0].body) == 1


def test_self_join_literal_eliminated():
    world, stats, plain_world = _both_fixpoints(
        "T(x, y) :- E(x, y), E(x, z).\n", DenseOrderTheory
    )
    assert stats.semantic_literals_eliminated == 1
    assert _fingerprint(world, "T") == _fingerprint(plain_world, "T")


def test_constraint_tightening_canonicalizes_redundant_bounds():
    theory = DenseOrderTheory()
    rules = parse_rules("T(x, y) :- E(x, y), x < 5, x < 3.\n", theory=theory)
    result = optimize_program(rules, theory)
    assert result.stats.constraints_tightened == 1
    (rule,) = result.rules
    constraints = [a for a in rule.body if not isinstance(a, RelationAtom)]
    assert len(constraints) == 1  # x < 3 subsumes x < 5


def test_unsat_rule_pruned_but_last_rule_kept():
    theory = DenseOrderTheory()
    rules = parse_rules(
        TC + "T(x, y) :- E(x, y), x < 1, x > 2.\n", theory=theory
    )
    result = optimize_program(rules, theory)
    assert result.stats.unsat_rules_removed == 1
    assert len(result.rules) == 2
    # a predicate whose only rule is unsatisfiable keeps that rule: the
    # relation must still exist (empty) in the fixpoint
    lone = parse_rules("T(x, y) :- E(x, y), x < 1, x > 2.\n", theory=theory)
    kept = optimize_program(lone, theory)
    assert kept.stats.unsat_rules_removed == 0
    assert len(kept.rules) == 1


def test_negation_containers_are_refused():
    theory = DenseOrderTheory()
    rules = parse_rules(
        "T(x, y) :- E(x, y), not F(x).\nT(x, y) :- E(x, y), not F(x), x < 3.\n",
        theory=theory,
    )
    # the container rule carries negation: containment is not checked and
    # both rules survive, even though the narrowed rule is redundant
    result = optimize_program(rules, theory)
    assert len(result.rules) == 2
    assert result.stats.rules_subsumed == 0


def test_stratified_and_inflationary_semantics_preserved():
    # the negated redundant rule is contained in the plain copy rule: its
    # negation only shrinks it further, so ignoring it stays sound and the
    # rule is removable under both negation semantics
    text = TC + (
        "S(x, y) :- E(x, y).\n"
        "S(x, y) :- E(x, y), not T(x, y), x < 3.\n"
    )
    for semantics in ("stratified", "inflationary"):
        world, stats, plain_world = _both_fixpoints(
            text, DenseOrderTheory, semantics=semantics
        )
        assert stats.semantic_rules_subsumed == 1
        for target in ("T", "S"):
            assert _fingerprint(world, target) == _fingerprint(
                plain_world, target
            )


# ------------------------------------------------------- directed: refusals
def test_semiinterval_containment_is_refused():
    """Theorem 2.8: phi1 is contained in phi2 semantically, but no symbol
    mapping witnesses it -- the optimizer must keep both rules rather than
    guess."""
    from repro.tableaux.containment import semiinterval_counterexample

    phi1, phi2, _w1, _w2 = semiinterval_counterexample()
    theory = DenseOrderTheory()
    assert rule_contained_in(phi1, phi2, theory) is None
    result = optimize_program([phi1, phi2], theory)
    assert len(result.rules) == 2
    assert result.stats.rules_subsumed == 0


def test_real_poly_is_a_complete_noop():
    theory = RealPolynomialTheory()
    rules = [
        Rule(
            RelationAtom("T", ("x", "y")),
            (RelationAtom("E", ("x", "y")),),
        ),
        Rule(
            RelationAtom("T", ("x", "y")),
            (RelationAtom("E", ("x", "y")), poly_eq("x", "x")),
        ),
    ]
    result = optimize_program(rules, theory)
    assert not result.changed
    assert result.stats.containment_checks == 0


# ------------------------------------------------------------ directed: views
def test_view_answerability_reads_the_materialized_fixpoint():
    theory = DenseOrderTheory()
    rules = parse_rules(TC, theory=theory)
    program = DatalogProgram(rules, theory, options=EngineOptions.all_on())
    view = MaterializedView(program, _chain_db(theory))
    registry = ViewRegistry()
    registry.register("TC", view)
    try:
        db = _chain_db(theory)
        definitions = registry.export_to(db)
        assert sorted(definitions) == ["TC"]
        consumer = parse_rules(
            "P(a, b) :- E(a, b).\nP(a, b) :- P(a, c), E(c, b).\n",
            theory=theory,
        )
        rewritten = DatalogProgram(
            consumer, theory, options=EngineOptions.all_on(), views=definitions
        )
        world, stats = rewritten.evaluate(db)
        assert stats.semantic_view_rewrites == 1
        plain = DatalogProgram(consumer, theory, options=SEMANTIC_OFF)
        plain_world, _stats = plain.evaluate(_chain_db(theory))
        assert _fingerprint(world, "P") == _fingerprint(plain_world, "P")
    finally:
        view.close()


def test_stale_views_are_not_answerable():
    theory = DenseOrderTheory()
    rules = parse_rules(TC, theory=theory)
    program = DatalogProgram(rules, theory, options=EngineOptions.all_on())
    view = MaterializedView(program, _chain_db(theory))
    registry = ViewRegistry()
    registry.register("TC", view)
    try:
        view._mark_stale("test-forced staleness")
        assert registry.definitions() == {}
        db = _chain_db(theory)
        assert registry.export_to(db) == {}
        assert "TC" not in db
    finally:
        view.close()


# ------------------------------------------------------ degradation behavior
def test_budget_exhaustion_degrades_to_fewer_passes():
    theory = DenseOrderTheory()
    rules = parse_rules(TC + "T(x, y) :- E(x, y), x < 3.\n", theory=theory)
    with supervised(Budget(joins=1)):
        result = optimize_program(rules, theory)
    assert result.stats.budget_tripped
    assert len(result.rules) == 3  # nothing removed, nothing broken
    # and the ambient-budget-free run still minimizes
    assert len(optimize_program(rules, theory).rules) == 2


def test_malformed_programs_are_left_for_evaluation_to_reject():
    theory = DenseOrderTheory()
    wrong = EqualityTheory()
    rules = [
        Rule(
            RelationAtom("T", ("x",)),
            (RelationAtom("E", ("x",)), wrong.equality("x", "y")),
        )
    ]
    result = optimize_program(rules, theory)
    assert isinstance(result, SemanticResult)
    assert not result.changed


@pytest.mark.chaos
def test_optimizer_under_chaos_stays_sound():
    """Injected theory faults may abort the analysis, never corrupt it:
    whatever rule set comes back must have the original fixpoint."""
    from repro.runtime.chaos import ChaosPolicy, ChaosTheory, chaos_scope

    text = TC + "T(x, y) :- E(x, y), x < 3.\n"
    for seed in range(8):
        theory = DenseOrderTheory()
        rules = parse_rules(text, theory=theory)
        with chaos_scope(ChaosPolicy(seed=seed, p=0.2)):
            result = optimize_program(rules, ChaosTheory(theory))
        assert len(result.rules) in (2, 3)
        program = DatalogProgram(
            list(result.rules), theory, options=SEMANTIC_OFF
        )
        world, _stats = program.evaluate(_chain_db(theory))
        plain = DatalogProgram(rules, theory, options=SEMANTIC_OFF)
        plain_world, _stats = plain.evaluate(_chain_db(theory))
        assert _fingerprint(world, "T") == _fingerprint(plain_world, "T")


# ----------------------------------------------------------- report plumbing
def test_diagnostics_carry_cql040_codes_and_witnesses():
    theory = DenseOrderTheory()
    rules = parse_rules(TC + "T(x, y) :- E(x, y), x < 3.\n", theory=theory)
    result = optimize_program(rules, theory)
    codes = {d.code for d in result.diagnostics}
    assert "CQL040" in codes
    assert result.witnesses  # index -> ContainmentWitness
    witness = next(iter(result.witnesses.values()))
    assert "->" in witness.describe()


def test_evaluation_stats_expose_semantic_counters():
    theory = DenseOrderTheory()
    rules = parse_rules(TC + "T(x, y) :- E(x, y), x < 3.\n", theory=theory)
    program = DatalogProgram(rules, theory, options=EngineOptions.all_on())
    _world, stats = program.evaluate(_chain_db(theory))
    assert stats.semantic_rules_subsumed == 1
    assert stats.semantic_containment_checks > 0
    payload = stats.as_dict()
    assert payload["semantic_rules_subsumed"] == 1
