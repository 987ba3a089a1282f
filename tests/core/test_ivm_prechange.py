"""A view reads each relation's pre-change state in place, not from a copy.

The delta-expansion rules of a :class:`MaterializedView` read every
non-delta position from ``X__ivm_m``: the live relation ``X`` minus what
the current batch has added to it.  That state is a read-only view of the
live relation (:class:`repro.core.ivm._PreChange`), so scans walk the live
relation and probes ask the live relation's own index.  So:

* a retract keys (projects onto an index attribute) only the tuples that
  changed, not the whole relation again -- refilling per-step copies of
  ``T`` and ``E`` re-keyed all 152 of their tuples on every retract of the
  chain below -- and no index is built on an ``X__ivm_m`` name;
* ``refresh()`` replaces the derived relations, and the views must read
  the new ones;
* the view lists exactly what a copy filled in live order would list, in
  the same order: iteration, ``len`` and every index probe.  Join
  enumeration order follows these lists, so fixpoints, insertion order and
  budget ticks do not depend on which one a view reads.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constraints.dense_order import DenseOrderTheory, eq, le
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.core.ivm import _PreChange
from repro.indexing import generalized_index
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget, supervised

RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""
#: the same closure, recursing on the right: over-deletion marks the 16
#: paths into the last node one round at a time
RIGHT_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- E(x, z), T(z, y).
"""

#: a 16-edge chain, whose closure T holds 16 * 17 / 2 = 136 tuples
EDGES = 16


def _edge(theory, a, b):
    return GeneralizedTuple(
        ("x", "y"),
        (
            theory.equality("x", theory.constant(Fraction(a))),
            theory.equality("y", theory.constant(Fraction(b))),
        ),
    )


def _chain_view(rules=RULES):
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(EDGES):
        edges.add_point([Fraction(i), Fraction(i + 1)])
    program = DatalogProgram(parse_rules(rules, theory=theory), theory)
    return theory, MaterializedView(program, db)


@pytest.fixture
def keyed(monkeypatch):
    """Every tuple projected onto an index attribute, in call order."""
    calls = []
    original = generalized_index.tuple_key

    def counting(item, attribute, theory):
        calls.append(item)
        return original(item, attribute, theory)

    monkeypatch.setattr(generalized_index, "tuple_key", counting)
    return calls


def test_a_retract_keys_only_what_changed(keyed):
    for rules in (RULES, RIGHT_RULES):
        theory, view = _chain_view(rules)
        closure = len(view.relation("T"))
        assert closure == EDGES * (EDGES + 1) // 2
        last = _edge(theory, EDGES - 1, EDGES)
        # retract the last edge, put it back, retract it again: each retract
        # over-deletes the 16 paths into the last node
        for step, expected in (("retract", closure - EDGES), ("insert", closure),
                               ("retract", closure - EDGES)):
            keyed.clear()
            getattr(view, step)("E", last)
            assert len(view.relation("T")) == expected
            assert len(keyed) < closure // 2, (rules, step, len(keyed))


def test_registration_ticks_only_the_evaluation_joins():
    # registration builds the indexes the first retract probes (the test
    # above) without firing a rule, so it joins exactly what the
    # materializing evaluation joins
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(EDGES):
        edges.add_point([Fraction(i), Fraction(i + 1)])
    program = DatalogProgram(parse_rules(RULES, theory=theory), theory)
    with supervised(Budget(joins=10**9)) as evaluation:
        program.evaluate(db)
    with supervised(Budget(joins=10**9)) as registration:
        MaterializedView(program, db)
    assert registration.counts["join"] == evaluation.counts["join"] > 0


def test_refresh_binds_the_views_to_the_new_world():
    # R is a non-recursive stratum over T: its expansion reads T__ivm_m, and
    # refresh() replaces the derived relation T with a new object
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(6):
        edges.add_point([Fraction(i), Fraction(i + 1)])
    program = DatalogProgram(
        parse_rules(RULES + "R(x, z) :- T(x, y), E(y, z).\n", theory=theory),
        theory,
    )
    view = MaterializedView(program, db)
    view.refresh()
    view.retract("E", _edge(theory, 4, 5))
    # a view still bound to the T of before refresh() would find the
    # retracted paths into 5 there and derive R(x, 7) from them
    view.apply(
        inserts=[("E", _edge(theory, 5, 7))], retracts=[("E", _edge(theory, 1, 2))]
    )
    scratch, _stats = program.evaluate(view.edb_database())
    for name in ("T", "R"):
        assert frozenset(view.relation(name).keys()) == frozenset(
            scratch.relation(name).keys()
        ), name


def test_one_index_per_relation_and_attribute(index_builds):
    theory, view = _chain_view()
    last = _edge(theory, EDGES - 1, EDGES)
    view.retract("E", last)
    view.insert("E", last)
    view.apply(inserts=[("E", _edge(theory, 0, 2))], retracts=[("E", last)])
    assert index_builds
    assert not [name for name, _ in index_builds if name.endswith("__ivm_m")]
    assert len(set(index_builds)) == len(index_builds)


# ------------------------------------------------------------ view vs copy
order = DenseOrderTheory()
_values = st.integers(min_value=0, max_value=6).map(Fraction)
_bounds = st.one_of(st.none(), _values, _values.map(lambda v: v + Fraction(1, 2)))


@st.composite
def _side(draw, var):
    """A point, interval or ray on one variable."""
    low, high = sorted((draw(_values), draw(_values)))
    shape = draw(st.sampled_from(["point", "interval", "ray_up", "ray_down"]))
    if shape == "point":
        return (eq(var, low),)
    if shape == "interval":
        return (le(low, var), le(var, high))
    if shape == "ray_up":
        return (le(low, var),)
    return (le(var, high),)


@st.composite
def _probe(draw):
    low, high = draw(_bounds), draw(_bounds)
    if low is not None and high is not None and low > high:
        low, high = high, low
    return (low, high)


_tuples = st.tuples(_side("x"), _side("y")).map(lambda sides: sides[0] + sides[1])
_ops = st.one_of(
    st.tuples(st.just("add"), _tuples),
    st.tuples(st.just("discard"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("reappend"), st.integers(min_value=0, max_value=40)),
)


def _ids(items):
    return [id(item) for item in items]


@given(
    st.lists(_tuples, min_size=1, max_size=20),
    st.lists(_ops, max_size=20),
    st.sets(st.integers(min_value=0, max_value=40)),
    st.lists(_probe(), min_size=1, max_size=6),
)
def test_view_lists_what_a_copy_lists(initial, ops, hide, probes):
    live = GeneralizedRelation("R", ("x", "y"), order)
    for atoms in initial:
        live.add_tuple(atoms)
    # the live indexes exist before the writes, so they are maintained
    # through them rather than built over the final content
    for attribute in live.variables:
        live.index(attribute)
    for kind, arg in ops:
        if kind == "add":
            live.add_tuple(arg)
        elif len(live):
            key, item = live.entries()[arg % len(live)]
            live.discard_key(key)
            if kind == "reappend":
                live.adopt_canonical(item)
    entries = live.entries()
    hidden = [item for position, (_, item) in enumerate(entries) if position in hide]

    view = _PreChange("R__ivm_m", live)
    version = view.version
    view.hide(hidden)
    assert view.version != version
    # a copy filled in live order, minus the hidden keys
    hidden_keys = {frozenset(item.atoms) for item in hidden}
    copy = GeneralizedRelation("R__copy", live.variables, order)
    for key, item in entries:
        if key not in hidden_keys:
            copy.adopt_canonical(item)

    assert len(view) == len(copy)
    assert _ids(view) == _ids(copy)
    for attribute in live.variables:
        for low, high in probes:
            assert _ids(view.index(attribute).candidates(low, high)) == _ids(
                copy.index(attribute).candidates(low, high)
            ), (attribute, low, high)
