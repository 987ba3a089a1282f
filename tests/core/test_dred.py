"""A DRed retract costs what it deletes.

A recursive stratum of a :class:`MaterializedView` is maintained by DRed:
over-delete every tuple with a derivation through a deleted one, discard
the marks, re-derive the marked tuples that still have a derivation, and
continue semi-naive.  Both halves are restricted to the deletion:

* over-deletion is semi-naive -- each round's own-predicate delta is what
  the round before marked, not every mark so far;
* the re-derivation round fires a rule at most once: only if its head has
  a marked tuple or it reads a predicate the batch inserted into, with one
  body atom cut down to the stored tuples whose pin on a head-variable
  argument agrees with the marked tuples' pins (or that do not pin it at
  all, or were inserted).  A rule whose marked tuples pin no head
  variable, or that reads two inserted atoms, fires unrestricted.

These tests bound the work of one retract, check that the restriction
keeps what re-derivation needs (alternative derivations, unpinned body
tuples, derivations through a batch's insertions), and check, after every
apply of random streams, maintained == from-scratch and the same rounds,
admissions and ``ivm_*`` counters as a round firing every rule over
everything.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constraints.dense_order import DenseOrderTheory, eq, le
from repro.constraints.equality import EqualityTheory
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.generalized import GeneralizedTuple
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
#: two predicates in one recursive stratum; B has no base rule
MUTUAL = """
A(x, y) :- E(x, y).
B(x, y) :- A(x, z), E(z, y).
A(x, y) :- B(x, z), E(z, y).
"""
#: paths of two or more edges; the first rule reads E twice
TWO_STEP = """
T(x, y) :- E(x, z), E(z, y).
T(x, y) :- T(x, z), E(z, y).
"""
PROGRAMS = {"left": LEFT, "right": RIGHT, "mutual": MUTUAL, "two_step": TWO_STEP}

EDGES = 16


def _point(a, b):
    return (eq("x", Fraction(a)), eq("y", Fraction(b)))


class _FullRound(MaterializedView):
    """A view whose re-derivation round fires every rule over everything."""

    def _rederivation_tasks(self, stratum, marked, inserted, stats):
        return [(rule, None, None) for rule in stratum.rules]


def _database(edges, theory):
    db = GeneralizedDatabase(theory)
    relation = db.create_relation("E", ("x", "y"))
    for atoms in edges:
        relation.add_tuple(atoms)
    return db


def _view(rules, edges, theory=None):
    theory = theory or DenseOrderTheory()
    program = DatalogProgram(parse_rules(rules, theory=theory), theory)
    return program, MaterializedView(program, _database(edges, theory))


def _full_round_twin(program, edges, theory=None):
    return _FullRound(program, _database(edges, theory or DenseOrderTheory()))


#: what a restricted round must share with the full one, apply by apply
_SAME = (
    "iterations",
    "tuples_added",
    "ivm_overdeleted",
    "ivm_rederived",
    "ivm_derived_added",
    "ivm_derived_removed",
)


def _assert_same_as_full_round(stats, full):
    for name in _SAME:
        assert getattr(stats, name) == getattr(full, name), name
    assert stats.tuples_derived <= full.tuples_derived


def _pins(view, name, item):
    """The (x, y) pins of a tuple of ``name`` (``None`` where unpinned)."""
    pins = view.theory.pinned_constants(item.atoms)
    return tuple(pins.get(v) for v in view.relation(name).variables)


def _points(view, name):
    """The (x, y) pins of each stored tuple."""
    return {_pins(view, name, item) for item in view.relation(name)}


def _assert_equals_scratch(program, view):
    scratch, _stats = program.evaluate(view.edb_database())
    for name in sorted(program.idb_predicates()):
        assert frozenset(view.relation(name).keys()) == frozenset(
            scratch.relation(name).keys()
        ), name


@pytest.fixture
def rederivation_tasks(monkeypatch):
    """The task list of every re-derivation round, in call order."""
    rounds = []
    original = MaterializedView._rederivation_tasks

    def recording(self, *args):
        tasks = original(self, *args)
        rounds.append(tasks)
        return tasks

    monkeypatch.setattr(MaterializedView, "_rederivation_tasks", recording)
    return rounds


# ------------------------------------------------------------ the counted chain
@pytest.mark.parametrize("rules", [LEFT, RIGHT], ids=["left", "right"])
def test_a_chain_retract_does_work_linear_in_what_it_deletes(rules):
    program, view = _view(rules, [_point(i, i + 1) for i in range(EDGES)])
    meter = Budget().start()
    with metered(meter):
        stats = view.retract("E", _point(EDGES - 1, EDGES))
    # the 16 paths into the last node go, and nothing comes back
    assert stats.ivm_overdeleted == EDGES
    assert stats.ivm_rederived == 0
    # each path has one derivation, found once by over-deletion; the
    # re-derivation round keeps no edge into the last node and fires
    # nothing (re-firing every mark each round, and every rule over the
    # whole view, took 185/152 and 455/272 ticks/tuples)
    assert stats.tuples_derived == EDGES
    assert meter.counts["join"] < 3 * EDGES
    _assert_equals_scratch(program, view)


# --------------------------------------------------- alternative derivations
@pytest.mark.parametrize("rules", [LEFT, RIGHT], ids=["left", "right"])
def test_tuples_with_a_detour_are_rederived(rules):
    # a laced DAG: i -> i+1 and i -> i+2, so the retracted 4 -> 5 has the
    # detour 3 -> 5 for every path from below 4, and 4 -> 6 past 5
    edges = [_point(i, i + 1) for i in range(9)]
    edges += [_point(i, i + 2) for i in range(8)]
    program, view = _view(rules, edges)
    stats = view.retract("E", _point(4, 5))
    assert stats.ivm_rederived > 0
    assert stats.ivm_overdeleted > stats.ivm_rederived
    _assert_equals_scratch(program, view)


# ------------------------------------------------------------------ fallbacks
def test_marked_tuples_that_pin_no_head_variable_fire_unrestricted(
    rederivation_tasks,
):
    order = DenseOrderTheory()
    # interval and ray edges: every derived tuple is a box or a ray, so no
    # marked tuple pins x or y
    edges = [
        (le(Fraction(0), "x"), le("x", Fraction(1)), le(Fraction(1), "y"), le("y", Fraction(2))),
        (le(Fraction(1), "x"), le("x", Fraction(2)), le(Fraction(2), "y"), le("y", Fraction(3))),
        (le(Fraction(2), "x"), le("x", Fraction(3)), le(Fraction(3), "y")),
        (le(Fraction(0), "x"), le("x", Fraction(3)), le(Fraction(2), "y"), le("y", Fraction(3))),
    ]
    program, view = _view(LEFT, edges, order)
    stats = view.retract("E", edges[1])
    assert stats.ivm_overdeleted > 0
    ((tasks),) = rederivation_tasks
    assert tasks and all(delta is None for _rule, delta, _position in tasks)
    _assert_equals_scratch(program, view)


def test_a_body_tuple_that_leaves_the_argument_unpinned_is_kept(
    rederivation_tasks,
):
    # E holds the triangle y <= x <= 1, so A does too.  B(1, 2) has two
    # derivations: A(1, 5), E(5, 2), and the triangle joined with E(1, 2),
    # where z = 1 squeezes x to 1 though the triangle pins no x.
    # Retracting E(5, 2) marks B(1, 2); only the triangle brings it back
    triangle = (le("y", "x"), le("x", Fraction(1)))
    edges = [triangle, _point(1, 2), _point(1, 5), _point(5, 2), _point(4, 2)]
    program, view = _view(MUTUAL, edges)
    assert (1, 2) in _points(view, "B")
    stats = view.retract("E", _point(5, 2))
    assert stats.ivm_rederived >= 2  # A(1, 2) and B(1, 2)
    assert (1, 2) in _points(view, "B")
    _assert_equals_scratch(program, view)
    # B's rule drew its A atom from A(1, 5) and the triangle
    ((tasks),) = rederivation_tasks
    (kept,) = [
        delta["A"] for rule, delta, _position in tasks
        if rule.head.name == "B" and delta is not None
    ]
    first = view.relation("A").variables[0]
    assert [
        item for item in kept if first not in view.theory.pinned_constants(item.atoms)
    ], "the unpinned triangle was dropped"


# -------------------------------------------------------------- mixed batches
@pytest.mark.parametrize("rules", [LEFT, RIGHT], ids=["left", "right"])
def test_an_insert_in_the_same_batch_rederives_an_overdeleted_tuple(rules):
    edges = [_point(i, i + 1) for i in range(5)]
    program, view = _view(rules, edges)
    twin = _full_round_twin(program, edges)
    # retracting 1 -> 2 over-deletes 0 -> 2; inserting 0 -> 2 derives it
    # again, through a tuple the batch added
    batch = {"inserts": [("E", _point(0, 2))], "retracts": [("E", _point(1, 2))]}
    stats = view.apply(**batch)
    assert stats.ivm_rederived > 0
    assert (0, 2) in _points(view, "T")
    _assert_equals_scratch(program, view)
    # the round finds what the insertion derives, as a full round does
    _assert_same_as_full_round(stats, twin.apply(**batch))


def test_a_mixed_batch_fires_each_rule_once(rederivation_tasks):
    edges = [_point(i, i + 1) for i in range(6)]
    program, view = _view(TWO_STEP, edges)
    twin = _full_round_twin(program, edges)
    # retracting 2 -> 3 marks the paths through it, all ending at 3..6;
    # inserting 6 -> 7 derives paths ending at 7, which no mark pins
    batch = {"inserts": [("E", _point(6, 7))], "retracts": [("E", _point(2, 3))]}
    stats = view.apply(**batch)
    _assert_equals_scratch(program, view)
    _assert_same_as_full_round(stats, twin.apply(**batch))
    ((tasks),) = rederivation_tasks
    assert len({id(rule) for rule, _delta, _position in tasks}) == len(tasks) == 2
    by_first = {rule.positive_atoms[0].name: delta for rule, delta, _position in tasks}
    # E(x, z), E(z, y) reads the insertion twice: unrestricted
    assert by_first["E"] is None
    # T(x, z), E(z, y) draws E from the edges into 3..6 and the inserted one
    kept = {_pins(view, "E", item) for item in by_first["T"]["E"]}
    assert kept == {(3, 4), (4, 5), (5, 6), (6, 7)}


def test_a_rule_whose_head_lost_nothing_fires_on_the_insertions(
    rederivation_tasks,
):
    # retracting the lone edge 5 -> 6 marks A(5, 6) alone; B lost nothing,
    # so its rule fires only as a semi-naive task on the inserted edge
    edges = [_point(0, 1), _point(1, 2), _point(5, 6)]
    program, view = _view(MUTUAL, edges)
    twin = _full_round_twin(program, edges)
    batch = {"inserts": [("E", _point(1, 5))], "retracts": [("E", _point(5, 6))]}
    stats = view.apply(**batch)
    assert stats.ivm_overdeleted == 1
    assert (0, 5) in _points(view, "B")
    _assert_equals_scratch(program, view)
    _assert_same_as_full_round(stats, twin.apply(**batch))
    ((tasks),) = rederivation_tasks
    ((_rule, delta, position),) = [task for task in tasks if task[0].head.name == "B"]
    assert position == 1
    assert [_pins(view, "E", item) for item in delta["E"]] == [(1, 5)]


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
_batch = st.tuples(
    st.lists(st.integers(min_value=0, max_value=7), max_size=2),
    st.lists(st.integers(min_value=0, max_value=7), max_size=2),
)


@st.composite
def _stream(draw):
    theory = draw(st.sampled_from(["dense", "equality"]))
    edge = _dense_edge if theory == "dense" else _equality_edge
    pool = draw(st.lists(edge, min_size=2, max_size=8))
    initial = draw(st.sets(st.integers(min_value=0, max_value=7)))
    batches = draw(st.lists(_batch, min_size=1, max_size=6))
    return theory, pool, initial, batches


@given(st.sampled_from(sorted(PROGRAMS)), _stream())
def test_maintained_equals_scratch_after_every_apply(program_name, stream):
    theory_name, pool, initial, batches = stream
    if theory_name == "dense":
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
    program, view = _view(PROGRAMS[program_name], start, theory)
    twin = _full_round_twin(program, start, theory)
    for inserts, retracts in batches:
        batch = {
            "inserts": [("E", edges[i % len(edges)]) for i in inserts],
            "retracts": [("E", edges[i % len(edges)]) for i in retracts],
        }
        stats = view.apply(**batch)
        _assert_equals_scratch(program, view)
        _assert_same_as_full_round(stats, twin.apply(**batch))
