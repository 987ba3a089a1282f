"""Relation-owned join indexes follow their relation's deltas exactly.

A :class:`GeneralizedIndex1D` returned by :meth:`GeneralizedRelation.index`
outlives any one evaluation, so every later fixpoint over the relation
trusts it.  Two properties keep that trust earned:

* after any add/discard/clear sequence the maintained index answers every
  probe with the *same ordered list* as an index built fresh over the
  relation -- candidate order decides join enumeration order, hence
  fixpoint insertion order and budget tick counts;
* a theory call that raises in the middle of an update or a probe leaves
  relation and index in agreement, with no stale and no missing tuple;
* probes racing from several threads key every queued append exactly once.
"""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt, ne
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.errors import TheoryError
from repro.indexing.generalized_index import (
    GeneralizedIndex1D,
    NaiveGeneralizedSearch,
)

order = DenseOrderTheory()

_values = st.integers(min_value=0, max_value=6).map(Fraction)
_bounds = st.one_of(st.none(), _values, _values.map(lambda v: v + Fraction(1, 2)))


@st.composite
def _probe(draw):
    low, high = draw(_bounds), draw(_bounds)
    if low is not None and high is not None and low > high:
        low, high = high, low
    return (low, high)


@st.composite
def _constraint(draw):
    """A point, closed or open interval, ray, or punctured interval on x."""
    low, high = sorted((draw(_values), draw(_values)))
    # few y values, so queued tuples often share a y key (bucket order)
    y = eq("y", Fraction(draw(st.integers(min_value=0, max_value=2))))
    shape = draw(st.sampled_from(["point", "closed", "open", "ray", "punctured"]))
    if shape == "point":
        return (eq("x", low), y)
    if shape == "closed":
        return (le(low, "x"), le("x", high), y)
    if shape == "open" and low < high:
        return (lt(low, "x"), lt("x", high), y)
    if shape == "punctured" and low < high:
        return (le(low, "x"), le("x", high + 1), ne("x", high), y)
    return (le(low, "x"), y)


_ops = st.one_of(
    st.tuples(st.just("add"), _constraint()),
    st.tuples(st.just("adopt"), _constraint()),
    st.tuples(st.just("discard"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("discard_key"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("probe_y"), _probe()),
)

_PROBES = [
    (Fraction(0), Fraction(0)),
    (Fraction(2), Fraction(2)),
    (Fraction(5, 2), Fraction(5, 2)),
    (Fraction(1), Fraction(4)),
    (None, Fraction(3)),
    (Fraction(4), None),
    (None, None),
]


def _same_order(maintained, fresh):
    assert [id(item) for item in maintained] == [id(item) for item in fresh]


_A = (eq("x", Fraction(0)), eq("y", Fraction(0)))
_B = (eq("x", Fraction(1)), eq("y", Fraction(0)))


@given(st.lists(_ops, min_size=4, max_size=30))
@example([("add", _A), ("add", _B), ("probe_y", (None, None)), ("discard", 0),
          ("add", _B), ("add", _A), ("probe_y", (None, None))])
def test_maintained_index_equals_fresh_index_in_order(ops):
    relation = GeneralizedRelation("R", ("x", "y"), order)
    # x is probed after every step; y only on probe_y steps, so its queue
    # builds up and removals also land on queued, never-keyed tuples
    by_x = relation.index("x")
    by_y = relation.index("y")
    for kind, arg in ops:
        if kind == "add":
            relation.add_tuple(arg)
        elif kind == "adopt":
            canonical = order.canonicalize(arg)
            if canonical is not None:
                relation.adopt_canonical(GeneralizedTuple(("x", "y"), canonical))
        elif kind in ("discard", "discard_key") and len(relation):
            key, item = relation.entries()[arg % len(relation)]
            if kind == "discard":
                assert relation.discard(item)
            else:
                assert relation.discard_key(key) is item
        elif kind == "clear":
            relation.clear()
        elif kind == "probe_y":
            low, high = arg
            _same_order(
                by_y.candidates(low, high),
                GeneralizedIndex1D(relation, "y").candidates(low, high),
            )
        assert relation.index("x") is by_x and relation.index("y") is by_y
        assert len(by_x) == len(by_y) == len(relation)
        fresh = GeneralizedIndex1D(relation, "x")
        for low, high in _PROBES:
            _same_order(by_x.candidates(low, high), fresh.candidates(low, high))
    fresh_y = GeneralizedIndex1D(relation, "y")
    for low, high in _PROBES:
        _same_order(by_y.candidates(low, high), fresh_y.candidates(low, high))


class _FaultyOrder(DenseOrderTheory):
    """Dense order whose named theory call raises TheoryError once, when armed."""

    def __init__(self):
        super().__init__()
        self._armed: dict[str, int] = {}

    def arm(self, method, skip=0):
        """Fail the ``skip + 1``-th next call of ``method``."""
        self._armed[method] = skip

    def _fire(self, method):
        skip = self._armed.get(method)
        if skip is None:
            return
        if skip:
            self._armed[method] = skip - 1
            return
        del self._armed[method]
        raise TheoryError(f"injected {method} fault")

    def canonicalize(self, atoms):
        self._fire("canonicalize")
        return super().canonicalize(atoms)

    def is_satisfiable(self, atoms):
        self._fire("is_satisfiable")
        return super().is_satisfiable(atoms)

    def eliminate(self, atoms, drop):
        self._fire("eliminate")
        return super().eliminate(atoms, drop)


def _assert_in_agreement(relation, index):
    """Every probe returns exactly the matching tuples, in fresh-index order."""
    assert len(index) == len(relation)
    naive = NaiveGeneralizedSearch(relation, "x")
    fresh = GeneralizedIndex1D(relation, "x")
    for low, high in _PROBES:
        hits = index.candidates(low, high)
        _same_order(hits, fresh.candidates(low, high))
        assert {id(t) for t in hits} == {id(t) for t in naive.candidates(low, high)}


class TestKeyFaults:
    def _relation(self, theory):
        relation = GeneralizedRelation("R", ("x", "y"), theory)
        for i in range(5):
            relation.add_tuple((eq("x", Fraction(i)), eq("y", Fraction(i + 1))))
        relation.add_tuple((le(Fraction(1), "x"), le("x", Fraction(3)), eq("y", 0)))
        return relation

    def test_add_discard_and_probe_faults_leave_index_in_agreement(self):
        theory = _FaultyOrder()
        relation = self._relation(theory)
        index = relation.index("x")
        _assert_in_agreement(relation, index)
        # an add that faults admits nothing and queues nothing
        theory.arm("canonicalize")
        with pytest.raises(TheoryError):
            relation.add_tuple((eq("x", Fraction(6)), eq("y", Fraction(6))))
        _assert_in_agreement(relation, index)
        # a discard that faults removes nothing
        victim = relation.tuples()[2]
        theory.arm("canonicalize")
        with pytest.raises(TheoryError):
            relation.discard(victim)
        _assert_in_agreement(relation, index)
        assert relation.discard(victim)
        _assert_in_agreement(relation, index)
        # a probe whose key computation faults part-way through the queue
        # keys nothing: the first queued tuple's key is computed, the
        # second one raises, and both stay queued for the next probe (the
        # first, a point, is keyed by its pin, so the fault is armed on
        # the satisfiability check every key starts with)
        relation.add_tuple((eq("x", Fraction(4)), eq("y", Fraction(9))))
        relation.add_tuple((lt(Fraction(2), "x"), eq("y", Fraction(8))))
        relation.discard(relation.tuples()[0])
        theory.arm("is_satisfiable", skip=1)
        with pytest.raises(TheoryError):
            index.candidates(Fraction(4), Fraction(4))
        _assert_in_agreement(relation, index)

    def test_build_fault_registers_no_index(self):
        theory = _FaultyOrder()
        relation = self._relation(theory)
        theory.arm("is_satisfiable", skip=3)
        with pytest.raises(TheoryError):
            relation.index("x")
        # the failed build left nothing behind; the next probe builds it
        index = relation.index("x")
        _assert_in_agreement(relation, index)
        relation.add_tuple((eq("x", Fraction(6)), eq("y", Fraction(6))))
        assert relation.index("x") is index
        _assert_in_agreement(relation, index)


def test_concurrent_probes_key_each_append_once():
    """More probing threads than cores race to drain one queue: the index
    lock makes each drain plus query atomic, so no append is keyed twice
    (a duplicate candidate) or lost."""
    relation = GeneralizedRelation("R", ("x", "y"), order)
    index = relation.index("x")
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for wave in range(20):
            for i in range(40):
                relation.add_tuple((eq("x", Fraction(i % 7)), eq("y", Fraction(wave * 40 + i))))
            barrier = threading.Barrier(4)
            results = []

            def probe():
                barrier.wait(timeout=10)
                results.append(index.candidates(Fraction(2), Fraction(4)))

            threads = [threading.Thread(target=probe) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            expected = GeneralizedIndex1D(relation, "x").candidates(Fraction(2), Fraction(4))
            assert len(results) == 4
            for hits in results:
                _same_order(hits, expected)
    finally:
        sys.setswitchinterval(saved)
    assert len(index) == len(relation) == 800
