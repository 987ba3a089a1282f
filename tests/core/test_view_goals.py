"""Goals on a fresh view are selections from its maintained relation.

An engine from :meth:`Engine.from_view` answers a goal on a fresh view's
derived predicate without evaluating anything: it probes the maintained
relation's interval index where the goal bounds a position, skips the
candidates whose pins conflict with the goal's, and selects with
:func:`select_answers`.  A stale view, another ``semantics`` or an explicit
``database=`` takes the magic route over the view's EDB instead.

The property checks, after every apply of random streams (dense-order
points, intervals and rays, equality points, mixed batches, left- and
right-recursive TC), that every goal shape the view answers equals the
selection over a from-scratch evaluation and the magic route over the
view's EDB.  The unit tests pin the fallbacks, the probe and the cache.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.conformance.oracles import compare_relations
from repro.constraints.dense_order import DenseOrderTheory, eq, le
from repro.constraints.equality import EqualityTheory
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.datalog import EngineOptions
from repro.core.generalized import GeneralizedTuple
from repro.core.magic import Binding, MagicQuery, parse_goal, select_answers
from repro.core.query import Engine
from repro.errors import EvaluationError
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget, metered

LEFT = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""
RIGHT = """
T(x, y) :- E(x, y).
T(x, y) :- E(x, z), T(z, y).
"""
PROGRAMS = {"left": LEFT, "right": RIGHT}


def _point(a, b):
    return (eq("x", Fraction(a)), eq("y", Fraction(b)))


def _database(edges, theory):
    db = GeneralizedDatabase(theory)
    relation = db.create_relation("E", ("x", "y"))
    for atoms in edges:
        relation.add_tuple(atoms)
    return db


def _view(rules, edges, theory=None, options=None):
    theory = theory or DenseOrderTheory()
    program = DatalogProgram(parse_rules(rules, theory=theory), theory, options=options)
    return MaterializedView(program, _database(edges, theory))


def _keys(relation):
    return frozenset(relation.keys())


def _scratch_answers(view, goal):
    """The goal's selection over a from-scratch evaluation of the view's EDB."""
    program = DatalogProgram(view.program.rules, view.theory)
    scratch, _stats = program.evaluate(view.edb_database())
    return select_answers(scratch.relation(goal.predicate), goal, view.theory)


def _goals(a, b, dense):
    """First, second or both positions bound, a repeated variable, all
    free, and (dense order only) an interval binding."""
    goals = [
        MagicQuery("T", 2, {0: a}),
        MagicQuery("T", 2, {1: b}),
        MagicQuery("T", 2, {0: a, 1: b}),
        MagicQuery("T", 2, {}, equalities=((0, 1),)),
        MagicQuery("T", 2, {}),
    ]
    if dense:
        goals.append(MagicQuery("T", 2, {0: Binding.interval(a, a + 2)}))
    return goals


# -------------------------------------------------------------- the property
_values = st.integers(min_value=0, max_value=4)


@st.composite
def _dense_side(draw, var):
    """A point, interval or ray on one variable (points most often)."""
    low = draw(_values)
    high = low + draw(st.integers(min_value=0, max_value=2))
    shape = draw(st.sampled_from(["point", "point", "interval", "up", "down"]))
    if shape == "point":
        return (eq(var, Fraction(low)),)
    if shape == "interval":
        return (le(Fraction(low), var), le(var, Fraction(high)))
    if shape == "up":
        return (le(Fraction(low), var),)
    return (le(var, Fraction(high)),)


_dense_edge = st.tuples(_dense_side("x"), _dense_side("y")).map(
    lambda sides: sides[0] + sides[1]
)
_equality_edge = st.tuples(_values, _values)
#: (inserted pool indexes, retracted pool indexes, goal constants a and b)
_batch = st.tuples(
    st.lists(st.integers(min_value=0, max_value=7), max_size=2),
    st.lists(st.integers(min_value=0, max_value=7), max_size=2),
    _values,
    _values,
)


@st.composite
def _stream(draw):
    theory = draw(st.sampled_from(["dense_order", "equality"]))
    edge = _dense_edge if theory == "dense_order" else _equality_edge
    pool = draw(st.lists(edge, min_size=2, max_size=8))
    initial = draw(st.sets(st.integers(min_value=0, max_value=7)))
    batches = draw(st.lists(_batch, min_size=1, max_size=6))
    return theory, pool, initial, batches


def _assert_goals_match(view, engine, theory_name, a, b):
    edb = view.edb_database()
    for goal in _goals(a, b, theory_name == "dense_order"):
        served = engine.query(goal)
        assert served.from_view and served.magic_rules == 0
        expected = _scratch_answers(view, goal)
        assert _keys(served.relation) == _keys(expected), goal
        magic = engine.query(goal, database=edb)
        assert not magic.from_view
        found = compare_relations(
            served.relation, magic.relation, "view", "magic", theory_name
        )
        assert found is None, (goal, found)


@given(st.sampled_from(sorted(PROGRAMS)), _stream())
def test_view_goals_equal_scratch_and_magic_after_every_apply(program_name, stream):
    theory_name, pool, initial, batches = stream
    if theory_name == "dense_order":
        theory = DenseOrderTheory()
        edges = [GeneralizedTuple(("x", "y"), atoms) for atoms in pool]
    else:
        theory = EqualityTheory()
        edges = [
            GeneralizedTuple(
                ("x", "y"),
                (
                    theory.equality("x", theory.constant(a)),
                    theory.equality("y", theory.constant(b)),
                ),
            )
            for a, b in pool
        ]
    start = [edges[i].atoms for i in sorted(initial) if i < len(edges)]
    view = _view(PROGRAMS[program_name], start, theory)
    engine = Engine.from_view(view)
    _assert_goals_match(view, engine, theory_name, 0, 1)
    for inserts, retracts, a, b in batches:
        view.apply(
            inserts=[("E", edges[i % len(edges)]) for i in inserts],
            retracts=[("E", edges[i % len(edges)]) for i in retracts],
        )
        _assert_goals_match(view, engine, theory_name, a, b)


# ------------------------------------------------------------------ fallbacks
def test_a_stale_view_answers_through_the_magic_route():
    theory = DenseOrderTheory()
    tight = replace(
        EngineOptions.all_on(), budget=Budget(tuples=4, partial_results="fringe")
    )
    view = _view(LEFT, [_point(0, 1), _point(1, 2)], theory, tight)
    engine = Engine.from_view(view, options=EngineOptions.all_on())
    # closing the cycle derives the 3x3 closure: past the budget
    view.insert("E", _point(2, 0))
    assert view.stale
    result = engine.query("T(1, y)")
    assert not result.from_view and result.magic_rules > 0
    expected = _scratch_answers(view, result.query)
    assert _keys(result.relation) == _keys(expected)
    assert len(expected) == 3
    # the stale relation, between two fixpoints, lacks T(1, 1)
    partial = select_answers(view.relation("T"), result.query, theory)
    assert _keys(partial) != _keys(expected)
    view.close()


def test_goals_after_refresh_read_the_new_relation():
    view = _view(LEFT, [_point(0, 1), _point(1, 2)])
    engine = Engine.from_view(view)
    before = view.relation("T")
    assert len(engine.query("T(0, y)")) == 2
    # an EDB write behind the view's back, then a rebuild
    view.world.relation("E").add_tuple(_point(2, 3))
    view.refresh()
    assert view.relation("T") is not before
    result = engine.query("T(0, y)")
    assert result.from_view
    assert len(result) == 3
    assert result.relation.contains_values([Fraction(0), Fraction(3)])
    view.close()


def test_another_semantics_or_an_explicit_database_takes_the_magic_route():
    view = _view(LEFT, [_point(i, i + 1) for i in range(4)])
    engine = Engine.from_view(view)
    served = engine.query("T(1, y)")
    assert served.from_view
    other = engine.query("T(1, y)", semantics="stratified")
    explicit = engine.query("T(1, y)", database=view.edb_database())
    for result in (other, explicit):
        assert not result.from_view and result.magic_rules > 0
        assert _keys(result.relation) == _keys(served.relation)
    view.close()


def test_a_goal_on_an_edb_predicate_is_not_served_by_the_view():
    view = _view(LEFT, [_point(0, 1)])
    engine = Engine.from_view(view)
    with pytest.raises(EvaluationError, match="not an IDB predicate"):
        engine.query("E(0, y)")
    view.close()


# ------------------------------------------------------- the probe and cache
def test_a_pinned_goal_probes_the_index():
    view = _view(LEFT, [_point(i, i + 1) for i in range(8)])
    engine = Engine.from_view(view)
    result = engine.query("T(2, y)")
    assert result.from_view
    # the 6 tuples T(2, 3..8) of the chain's 36
    assert result.cone_tuples == len(result) == 6 < len(view.relation("T"))
    assert result.as_dict()["from_view"] is True
    # both positions bound: the probe on x, then the pin on y
    assert engine.query("T(2, 5)").cone_tuples == 1
    view.close()


def test_a_pin_conflict_skips_the_candidate_on_a_scan():
    theory = EqualityTheory()
    edges = [
        (theory.equality("x", theory.constant(a)), theory.equality("y", theory.constant(b)))
        for a, b in [(0, 1), (1, 2), (2, 3)]
    ]
    view = _view(LEFT, edges, theory)
    engine = Engine.from_view(view)
    result = engine.query(MagicQuery("T", 2, {0: 1}))
    assert result.from_view
    assert result.cone_tuples == len(result) == 2 < len(view.relation("T"))
    view.close()


def test_a_view_served_goal_leaves_the_cache_alone():
    view = _view(LEFT, [_point(i, i + 1) for i in range(4)])
    engine = Engine.from_view(view)
    engine.query("T(0, y)", database=view.edb_database())
    before = engine.cache.stats()
    assert before["entries"] == 1
    for text in ("T(0, y)", "T(1, y)", "T(x, y), 1 < x"):
        assert engine.query(text).from_view
    assert engine.cache.stats() == before
    view.close()


def test_the_route_ticks_one_tuple_per_answer():
    view = _view(LEFT, [_point(i, i + 1) for i in range(4)])
    engine = Engine.from_view(view)
    meter = Budget().start()
    with metered(meter):
        result = engine.query("T(1, y)")
    assert result.from_view
    assert meter.counts["tuple"] == len(result) == 3
    assert meter.counts["join"] == meter.counts["round"] == 0
    view.close()


def test_an_unsatisfiable_selection_answers_nothing():
    view = _view(LEFT, [_point(i, i + 1) for i in range(4)])
    engine = Engine.from_view(view)
    goal = parse_goal("T(x, y), x < 1, 2 < x", view.theory)
    result = engine.query(goal)
    assert result.from_view and len(result) == 0 and result.cone_tuples == 0
    view.close()
