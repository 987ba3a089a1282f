"""Regression: retraction must reach the relation-owned join indexes.

An index that missed a ``discard`` would keep the removed tuple (a stale
candidate that is satisfiable with the probe bound but no longer in the
relation), and one that lost track of its queue could miss later appends.
Incremental view maintenance retracts all the time, so both failure modes
get locked down here, together with the way a removal is applied: one key
out of the same index object, never a rebuild.  A probing join step reads
``relation.index(attr).candidates(lo, hi)``, which is what these tests call.
"""

from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core.generalized import GeneralizedDatabase

theory = DenseOrderTheory()


def _relation(points, name="E"):
    db = GeneralizedDatabase(theory)
    relation = db.create_relation(name, ("x", "y"))
    for a, b in points:
        relation.add_point([Fraction(a), Fraction(b)])
    return relation


def _point(relation, a, b):
    """The stored tuple for the ground point (a, b)."""
    for item in relation:
        if item.holds({"x": Fraction(a), "y": Fraction(b)}):
            return item
    raise AssertionError(f"({a}, {b}) not in {relation.name}")


def _candidates(relation, low, high):
    return relation.index("x").candidates(low, high)


class TestRetractInvalidation:
    def test_retract_drops_stale_candidates(self):
        relation = _relation([(i, i + 1) for i in range(6)])
        hits = _candidates(relation, Fraction(3), Fraction(3))
        assert len(hits) == 1
        index = relation.index("x")
        assert relation.discard(_point(relation, 3, 4))
        # one key deleted from the same index object: no rebuild
        assert relation.index("x") is index
        assert len(index) == len(relation) == 5
        hits = _candidates(relation, Fraction(3), Fraction(3))
        assert hits == []  # the stale entry is gone

    def test_append_after_retract_is_indexed(self):
        # the relation shrank before growing again: an index that tracked
        # appends by position would skip the new tuple
        relation = _relation([(0, 1), (1, 2), (2, 3)])
        assert len(_candidates(relation, Fraction(2), Fraction(2))) == 1
        assert relation.discard(_point(relation, 2, 3))
        relation.add_point([Fraction(9), Fraction(10)])
        hits = _candidates(relation, Fraction(9), Fraction(9))
        assert len(hits) == 1
        assert _candidates(relation, Fraction(2), Fraction(2)) == []

    def test_retract_then_reinsert_round_trips(self):
        relation = _relation([(i, i + 1) for i in range(4)])
        _candidates(relation, Fraction(1), Fraction(1))
        item = _point(relation, 1, 2)
        assert relation.discard(item)
        assert _candidates(relation, Fraction(1), Fraction(1)) == []
        relation.add_point([Fraction(1), Fraction(2)])
        hits = _candidates(relation, Fraction(1), Fraction(1))
        assert len(hits) == 1

    def test_insert_only_path_never_rebuilds(self, index_builds):
        relation = _relation([(0, 1)])
        for i in range(1, 8):
            _candidates(relation, Fraction(i - 1), Fraction(i - 1))
            relation.add_point([Fraction(i), Fraction(i + 1)])
        assert index_builds == [("E", "x")]
        assert len(relation.index("x")) == len(relation) == 8

    def test_clear_invalidates(self):
        relation = _relation([(i, i + 1) for i in range(5)])
        assert len(_candidates(relation, Fraction(0), Fraction(4))) == 5
        relation.clear()
        assert _candidates(relation, Fraction(0), Fraction(4)) == []
        relation.add_point([Fraction(2), Fraction(2)])
        assert len(_candidates(relation, Fraction(0), Fraction(4))) == 1


class TestHandleRetractInvalidation:
    def test_handle_sees_retraction(self):
        relation = _relation([(i, i + 1) for i in range(6)])
        handle = relation.index("x")
        assert len(handle.candidates(Fraction(4), Fraction(4))) == 1
        assert relation.discard(_point(relation, 4, 5))
        assert len(handle) == len(relation) == 5
        assert handle.candidates(Fraction(4), Fraction(4)) == []

    def test_handle_and_direct_probe_share_rebuild(self, index_builds):
        relation = _relation([(i, i + 1) for i in range(4)])
        handle = relation.index("x")
        handle.candidates(Fraction(0), Fraction(3))
        assert relation.discard(_point(relation, 0, 1))
        # a held handle and a fresh lookup see the one shared index ...
        assert _candidates(relation, Fraction(0), Fraction(0)) == []
        assert handle.candidates(Fraction(0), Fraction(0)) == []
        assert relation.index("x") is handle
        # ... which lost one key and was never rebuilt
        assert len(handle) == len(relation) == 3
        assert index_builds == [("E", "x")]
