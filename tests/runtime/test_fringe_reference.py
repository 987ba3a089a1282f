"""Budget fringes are sound and monotone, under negation too.

``DatalogProgram.evaluate`` promises that a ``partial_results="fringe"``
run cut by its budget returns a sound under-approximation of the full
answer under every semantics.  These properties check that promise on
conformance-generated dense-order and equality Datalog cases, each under
its generated semantics (auto, stratified or inflationary), for a spread
of join budgets ``k`` up to the run's join count:

* the fringe's target relation is contained in the fixpoint the flag-free
  reference evaluator computes (``full`` union ``fringe`` equals ``full``);
* the fringe grows with the budget: ``fringe(k)`` is contained in
  ``fringe(k')`` for ``k < k'``.

Containment is decided semantically, through ``compare_relations``.
"""

from hypothesis import given, settings, strategies as st

from repro.conformance.generators import generate_case
from repro.conformance.oracles import compare_relations
from repro.conformance.reference import reference_fixpoint
from repro.conformance.spec import build_case
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedRelation
from repro.runtime.budget import Budget

#: join budgets per case: 1 up to the unbudgeted run's join count
SPREAD = 6


def _datalog_spec(theory_name, seed):
    for probe in range(25):
        spec = generate_case(theory_name, seed + probe)
        if spec.kind == "datalog":
            return spec
    return None


def _union(left, right):
    union = GeneralizedRelation("union", left.variables, left.theory)
    for item in list(left) + list(right):
        union.add(item)
    return union


def _assert_contained(inner, outer, spec, label):
    found = compare_relations(
        _union(outer, inner), outer, "outer", label, spec.theory, spec.m
    )
    assert found is None, f"{label} (case seed={spec.seed}): {found.describe()}"


def _assert_fringes_sound_and_monotone(theory_name, seed):
    spec = _datalog_spec(theory_name, seed)
    if spec is None:
        return
    case = build_case(spec)
    full = reference_fixpoint(
        case.rules, case.theory, case.database, semantics=spec.semantics
    ).relation(spec.target)
    _world, stats = DatalogProgram(case.rules, case.theory).evaluate(
        case.database, semantics=spec.semantics
    )
    joins = stats.join_steps
    budgets = sorted({max(1, joins * i // SPREAD) for i in range(1, SPREAD + 1)})
    previous = None
    for k in budgets:
        options = EngineOptions(budget=Budget(joins=k, partial_results="fringe"))
        world, fringe_stats = DatalogProgram(
            case.rules, case.theory, options=options
        ).evaluate(case.database, semantics=spec.semantics)
        fringe = world.relation(spec.target)
        _assert_contained(fringe, full, spec, f"fringe(k={k})")
        if previous is not None:
            _assert_contained(previous[1], fringe, spec, f"fringe(k={previous[0]})")
        previous = (k, fringe)
    # the largest budget covers the whole run: no fringe, the full answer
    assert not fringe_stats.incomplete


class TestFringeAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dense_order(self, seed):
        _assert_fringes_sound_and_monotone("dense_order", seed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equality(self, seed):
        _assert_fringes_sound_and_monotone("equality", seed)
