"""Tests for intervals, the interval tree, the PST, and the generalized index."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.indexing.generalized_index import (
    GeneralizedIndex1D,
    NaiveGeneralizedSearch,
    tuple_projection_interval,
)
from repro.indexing.interval import Interval
from repro.indexing.interval_tree import IntervalTree, _high_key
from repro.indexing.priority_search_tree import Point, PrioritySearchTree

order = DenseOrderTheory()


class TestInterval:
    def test_contains(self):
        interval = Interval(Fraction(0), Fraction(1), low_open=True)
        assert interval.contains(Fraction(1, 2))
        assert interval.contains(Fraction(1))
        assert not interval.contains(Fraction(0))

    def test_unbounded(self):
        interval = Interval(None, Fraction(3))
        assert interval.contains(Fraction(-1000))
        assert not interval.contains(Fraction(4))

    def test_overlap(self):
        a = Interval.closed(0, 2)
        b = Interval.closed(2, 4)
        c = Interval.closed(3, 5)
        assert a.overlaps(b)  # share the point 2
        assert not a.overlaps(c)
        open_b = Interval(Fraction(2), Fraction(4), low_open=True)
        assert not a.overlaps(open_b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(1), low_open=True)


class TestIntervalTree:
    def test_stab(self):
        tree = IntervalTree()
        for i in range(10):
            tree.insert(Interval.closed(i, i + 2, payload=i))
        hits = sorted(h.payload for h in tree.stab(5))
        assert hits == [3, 4, 5]

    def test_overlapping(self):
        tree = IntervalTree()
        for i in range(0, 20, 2):
            tree.insert(Interval.closed(i, i + 1, payload=i))
        hits = sorted(h.payload for h in tree.overlapping(Interval.closed(3, 7)))
        assert hits == [2, 4, 6]

    def test_remove(self):
        tree = IntervalTree()
        a = Interval.closed(0, 5, payload="a")
        b = Interval.closed(0, 5, payload="b")
        tree.insert(a)
        tree.insert(b)
        assert tree.remove(a)
        assert len(tree) == 1
        assert [h.payload for h in tree.stab(3)] == ["b"]
        assert tree.remove(b)
        assert not tree.remove(b)
        assert len(tree) == 0

    def test_balance_height(self):
        tree = IntervalTree()
        n = 256
        for i in range(n):  # sorted insertion: the adversarial case
            tree.insert(Interval.closed(i, i))
        assert tree.height() <= 2 * n.bit_length()

    def test_unbounded_intervals(self):
        tree = IntervalTree()
        tree.insert(Interval(None, Fraction(0), payload="low"))
        tree.insert(Interval(Fraction(0), None, payload="high"))
        assert {h.payload for h in tree.stab(0)} == {"low", "high"}
        assert {h.payload for h in tree.stab(-5)} == {"low"}
        assert {h.payload for h in tree.stab(5)} == {"high"}

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 10)),
            min_size=0,
            max_size=40,
        ),
        st.integers(-25, 25),
    )
    def test_stab_matches_linear_scan(self, spans, query):
        intervals = [
            Interval.closed(lo, lo + width, payload=k)
            for k, (lo, width) in enumerate(spans)
        ]
        tree = IntervalTree(intervals)
        expected = sorted(i.payload for i in intervals if i.contains(Fraction(query)))
        actual = sorted(h.payload for h in tree.stab(query))
        assert actual == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 10)),
            min_size=1,
            max_size=30,
        ),
        st.data(),
    )
    def test_removal_keeps_queries_correct(self, spans, data):
        intervals = [
            Interval.closed(lo, lo + width, payload=k)
            for k, (lo, width) in enumerate(spans)
        ]
        tree = IntervalTree(intervals)
        to_remove = data.draw(
            st.lists(st.sampled_from(intervals), max_size=len(intervals), unique_by=id)
        )
        remaining = list(intervals)
        for interval in to_remove:
            assert tree.remove(interval)
            # remove one with the same endpoints (payload may differ; the
            # tree guarantees multiset semantics on endpoints)
            for candidate in remaining:
                if candidate == interval:
                    remaining.remove(candidate)
                    break
        for query in (-25, -3, 0, 7, 25):
            expected = sorted(
                 (i.low, i.high) for i in remaining if i.contains(Fraction(query))
            )
            actual = sorted((h.low, h.high) for h in tree.stab(query))
            assert actual == expected


def _assert_caches_fresh(tree):
    """Every node's cached key, bucket high and subtree max-high equal the
    values recomputed from its intervals."""

    def check(node):
        if node is None:
            return None
        keys = {interval.sort_key() for interval in node.bucket}
        assert keys == {node.key}
        bucket_high = max(map(_high_key, node.bucket))
        assert node.bucket_high == bucket_high
        highs = [bucket_high] + [
            high for high in (check(node.left), check(node.right)) if high
        ]
        assert node.max_high == max(highs)
        return node.max_high

    check(tree._root)


#: few low ends and payloads, so inserts share buckets and removals meet
#: equal intervals of other payloads
_tree_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 3),
            st.one_of(st.none(), st.integers(0, 4)),
            st.integers(0, 2),
        ),
        st.tuples(st.just("remove"), st.integers(0, 60), st.none(), st.none()),
    ),
    max_size=40,
)


class TestIntervalTreeCaches:
    @given(_tree_ops)
    def test_cached_values_follow_same_key_inserts_and_removals(self, ops):
        tree = IntervalTree()
        stored = []
        for kind, number, width, payload in ops:
            if kind == "insert":
                high = None if width is None else Fraction(number + width)
                interval = Interval(Fraction(number), high, payload=payload)
                tree.insert(interval)
                stored.append(interval)
            elif stored:
                victim = stored.pop(number % len(stored))
                assert tree.remove(victim)
                # the very object left the tree; equal ones stayed
                kept = {id(interval) for interval in tree.items()}
                assert id(victim) not in kept
                assert kept == {id(interval) for interval in stored}
            _assert_caches_fresh(tree)
            assert len(tree) == len(stored) == len(tree.items())

    def test_remove_takes_the_given_object_out(self):
        tree = IntervalTree()
        first = Interval.closed(1, 1, payload="same")
        second = Interval.closed(1, 1, payload="same")
        third = Interval.closed(1, 1, payload="other")
        for interval in (first, second, third):
            tree.insert(interval)
        assert tree.remove(second)
        assert [id(i) for i in tree.items()] == [id(first), id(third)]
        assert tree.remove(third)
        assert [id(i) for i in tree.items()] == [id(first)]


class TestPrioritySearchTree:
    def test_basic_query(self):
        points = [Point(Fraction(x), Fraction(y), (x, y)) for x, y in
                  [(1, 5), (2, 1), (3, 4), (5, 2), (8, 0)]]
        pst = PrioritySearchTree(points)
        hits = {p.payload for p in pst.query(Fraction(2), Fraction(6), Fraction(3))}
        assert hits == {(2, 1), (5, 2)}

    def test_stabbing_view(self):
        intervals = [Interval.closed(i, i + 3, payload=i) for i in range(10)]
        pst = PrioritySearchTree.for_intervals(intervals)
        hits = sorted(i.payload for i in pst.stab_intervals(5))
        assert hits == [2, 3, 4, 5]

    def test_insert_and_query(self):
        pst = PrioritySearchTree()
        for i in range(50):
            pst.insert(Point(Fraction(i), Fraction(i % 7), i))
        hits = {p.payload for p in pst.query(Fraction(10), Fraction(20), Fraction(0))}
        expected = {i for i in range(10, 21) if i % 7 == 0}
        assert hits == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
            max_size=30,
        ),
        st.integers(-15, 15),
        st.integers(-15, 15),
        st.integers(-15, 15),
    )
    def test_matches_linear_scan(self, raw_points, x1, x2, y0):
        if x1 > x2:
            x1, x2 = x2, x1
        points = [
            Point(Fraction(x), Fraction(y), k) for k, (x, y) in enumerate(raw_points)
        ]
        pst = PrioritySearchTree(points)
        expected = sorted(
            p.payload for p in points if x1 <= p.x <= x2 and p.y <= y0
        )
        actual = sorted(
            p.payload
            for p in pst.query(Fraction(x1), Fraction(x2), Fraction(y0))
        )
        assert actual == expected


class _CountingOrder(DenseOrderTheory):
    """Dense order that counts its variable eliminations."""

    def __init__(self):
        super().__init__()
        self.eliminations = 0

    def eliminate(self, atoms, drop):
        self.eliminations += 1
        return super().eliminate(atoms, drop)


class TestProjection:
    def test_bounded_interval(self):
        item = GeneralizedTuple(("n", "x"), (eq("n", 1), le(0, "x"), lt("x", 5)))
        interval = tuple_projection_interval(item, "x", order)
        assert interval.low == 0 and not interval.low_open
        assert interval.high == 5 and interval.high_open

    def test_derived_bounds(self):
        # x < y and y < 3 projects x onto (-inf, 3)
        item = GeneralizedTuple(("x", "y"), (lt("x", "y"), lt("y", 3)))
        interval = tuple_projection_interval(item, "x", order)
        assert interval.low is None
        assert interval.high == 3 and interval.high_open

    def test_point_projection(self):
        item = GeneralizedTuple(("x",), (eq("x", 7),))
        interval = tuple_projection_interval(item, "x", order)
        assert interval.low == interval.high == 7

    def test_unsat_tuple(self):
        item = GeneralizedTuple(("x",), (lt("x", 0), lt(1, "x")))
        assert tuple_projection_interval(item, "x", order) is None

    def test_a_pinned_attribute_keys_by_its_pin(self):
        theory = _CountingOrder()
        item = GeneralizedTuple(("x", "y"), (eq("x", 3), le(0, "y"), le("y", 5)))
        interval = tuple_projection_interval(item, "x", theory)
        assert (interval.low, interval.high) == (3, 3)
        assert not (interval.low_open or interval.high_open)
        assert interval.payload is item
        assert theory.eliminations == 0

    def test_a_pinned_but_unsatisfiable_tuple_has_no_key(self):
        theory = _CountingOrder()
        item = GeneralizedTuple(("x",), (eq("x", 1), lt("x", 0)))
        assert tuple_projection_interval(item, "x", theory) is None
        assert theory.eliminations == 0

    def test_a_pin_on_another_attribute_still_eliminates(self):
        theory = _CountingOrder()
        item = GeneralizedTuple(("x", "y"), (eq("y", 2), le(0, "x"), lt("x", 5)))
        interval = tuple_projection_interval(item, "x", theory)
        assert (interval.low, interval.high) == (0, 5) and interval.high_open
        assert theory.eliminations == 1


class TestGeneralizedIndex:
    def _relation(self, n=30):
        relation = GeneralizedRelation("R", ("n", "x"), order)
        for i in range(n):
            relation.add_tuple([eq("n", i), le(2 * i, "x"), le("x", 2 * i + 3)])
        return relation

    def test_search_equals_naive(self):
        relation = self._relation()
        index = GeneralizedIndex1D(relation, "x")
        naive = NaiveGeneralizedSearch(relation, "x")
        fast = index.search(10, 20)
        slow = naive.search(10, 20)
        for i in range(30):
            for x in range(8, 24):
                point = {"n": Fraction(i), "x": Fraction(x)}
                assert fast.contains_point(point) == slow.contains_point(point)

    def test_candidates_pruned(self):
        relation = self._relation(50)
        index = GeneralizedIndex1D(relation, "x")
        candidates = index.candidates(10, 14)
        # only tuples with [2i, 2i+3] intersecting [10,14]: i in 4..7
        assert 3 <= len(candidates) <= 5

    def test_insert_delete(self):
        relation = self._relation(5)
        index = GeneralizedIndex1D(relation, "x")
        new_tuple = GeneralizedTuple(
            ("n", "x"), (eq("n", 99), le(100, "x"), le("x", 101))
        )
        index.insert(new_tuple)
        assert index.candidates(100, 101)
        assert index.delete(new_tuple)
        assert not index.candidates(100, 101)

    def test_open_ended_search(self):
        relation = self._relation(10)
        index = GeneralizedIndex1D(relation, "x")
        result = index.search(None, 3)
        assert result.contains_point({"n": Fraction(0), "x": Fraction(1)})
        assert not result.contains_point({"n": Fraction(5), "x": Fraction(10)})
