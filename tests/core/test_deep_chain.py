"""Deep rule chains: every dependency-graph walk is iterative.

The chain ``Q0000(x) :- Q0001(x).`` ... ``Q1199(x) :- Q1200(x).`` is deeper
than the interpreter's default recursion limit (1,000 frames), so a
recursive depth-first walk over its dependency graph raises
``RecursionError`` whenever it enters the chain near the top.  The view's
strata, the fringe module's mutually recursive groups and
``DatalogProgram.is_recursive`` all walk the graph through the iterative
:func:`repro.analysis.graph.strongly_connected_components` (whose own
deep-chain test is in ``tests/analysis/test_graph.py``).

The chain is also the worst case for semi-naive rounds that fire every
rule with an IDB body atom: 1,201 rounds of 1,200 firings each.  Rounds
fire only the body atoms whose delta is non-empty.
"""

from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.fringe import mutually_recursive_groups
from repro.logic.parser import parse_rules

DEPTH = 1200
TOP, BOTTOM = "Q0000", f"Q{DEPTH:04d}"


def _chain_text():
    return "\n".join(f"Q{i:04d}(x) :- Q{i + 1:04d}(x)." for i in range(DEPTH))


def _rules(theory, text):
    return parse_rules(text, theory=theory)


def test_is_recursive_on_a_deep_chain():
    theory = DenseOrderTheory()
    assert not DatalogProgram(_rules(theory, _chain_text()), theory).is_recursive()
    # closing the chain into one 1,201-predicate cycle makes it recursive
    closed = _chain_text() + f"\n{BOTTOM}(x) :- {TOP}(x)."
    assert DatalogProgram(_rules(theory, closed), theory).is_recursive()


def test_mutually_recursive_groups_on_a_deep_chain():
    theory = DenseOrderTheory()
    groups = mutually_recursive_groups(_rules(theory, _chain_text()))
    assert len(groups) == DEPTH
    assert all(len(group) == 1 for group in groups)
    closed = _chain_text() + f"\n{BOTTOM}(x) :- {TOP}(x)."
    (cycle,) = mutually_recursive_groups(_rules(theory, closed))
    assert len(cycle) == DEPTH + 1


def test_view_maintains_a_deep_chain():
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation(BOTTOM, ("x",))
    program = DatalogProgram(_rules(theory, _chain_text()), theory)
    view = MaterializedView(program, db)
    assert len(view.relation(TOP)) == 0
    view.insert(BOTTOM, [theory.equality("x", theory.constant(Fraction(7)))])
    assert view.relation(TOP).contains_values([Fraction(7)])
    assert len(view.relation(TOP)) == 1


def test_semi_naive_fires_only_non_empty_deltas():
    # one Q1200 tuple climbs the chain one predicate per round: the first
    # round fires all 1,200 rules, and every later round only the one rule
    # whose body predicate admitted the tuple in the round before; the
    # round that admits it to Q0000, which no rule reads, is the last
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    db.create_relation(BOTTOM, ("x",)).add_point([Fraction(7)])
    program = DatalogProgram(_rules(theory, _chain_text()), theory)
    world, stats = program.evaluate(db)
    assert world.relation(TOP).contains_values([Fraction(7)])
    assert stats.iterations == DEPTH
    assert stats.compiled_firings <= 2 * DEPTH
