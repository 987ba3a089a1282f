"""A dynamic interval tree: AVL-balanced BST augmented with subtree max-high.

The classical structure for "on-line intersections in a dynamic set of
intervals" the paper reduces generalized 1-dimensional searching to:
O(log N) insert and delete, O(log N + K) stabbing and interval-overlap
queries, linear space.  Intervals are keyed by their lower endpoint; every
node maintains the maximum upper endpoint of its subtree, which prunes the
search ("the left subtree cannot contain an interval reaching the query").

Endpoints are exact rationals; None encodes the infinities, and open
endpoints are handled exactly (an interval (a, b) does not contain a).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from repro.indexing.interval import Interval

#: key used for max-high comparisons: None (=+inf) beats everything
_HighKey = tuple[int, Fraction]


def _high_key(interval: Interval) -> _HighKey:
    if interval.high is None:
        return (1, Fraction(0))
    return (0, interval.high)


def _max_high(a: _HighKey, b: _HighKey) -> _HighKey:
    return a if a >= b else b


class _Node:
    """One key's bucket of intervals, with the key and the bucket's highest
    upper end cached: both are read at every node an update passes."""

    __slots__ = (
        "interval", "key", "left", "right", "height", "max_high", "bucket",
        "bucket_high",
    )

    def __init__(self, interval: Interval) -> None:
        self.interval = interval
        self.key = interval.sort_key()
        self.bucket: list[Interval] = [interval]  # same-key intervals
        self.bucket_high = _high_key(interval)
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1
        self.max_high = self.bucket_high


def _height(node: _Node | None) -> int:
    return node.height if node else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))
    best = node.bucket_high
    if node.left:
        best = _max_high(best, node.left.max_high)
    if node.right:
        best = _max_high(best, node.right.max_high)
    node.max_high = best


def _position(bucket: list[Interval], interval: Interval) -> int | None:
    """Where ``interval`` sits in a bucket: the object itself, else one with
    equal endpoints and payload, else one with equal endpoints.

    A position, not ``list.remove``: that compares with ``==``, which ignores
    payloads and could evict a same-endpoint interval of another payload.
    """
    for matches in (
        lambda existing: existing is interval,
        lambda existing: existing == interval and existing.payload == interval.payload,
        lambda existing: existing == interval,
    ):
        for position, existing in enumerate(bucket):
            if matches(existing):
                return position
    return None


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _balance(node: _Node) -> _Node:
    _update(node)
    delta = _height(node.left) - _height(node.right)
    if delta > 1:
        assert node.left is not None
        if _height(node.left.left) < _height(node.left.right):
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if delta < -1:
        assert node.right is not None
        if _height(node.right.right) < _height(node.right.left):
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class IntervalTree:
    """A dynamic set of intervals with logarithmic-time search and update."""

    def __init__(self, intervals: Iterator[Interval] | list[Interval] = ()) -> None:
        self._root: _Node | None = None
        self._size = 0
        for interval in intervals:
            self.insert(interval)

    def __len__(self) -> int:
        return self._size

    # ---------------------------------------------------------------- update
    def insert(self, interval: Interval) -> None:
        self._root = self._insert(self._root, interval, interval.sort_key())
        self._size += 1

    def _insert(self, node: _Node | None, interval: Interval, key: tuple) -> _Node:
        if node is None:
            return _Node(interval)
        if key == node.key:
            node.bucket.append(interval)
            node.bucket_high = _max_high(node.bucket_high, _high_key(interval))
            _update(node)
            return node
        if key < node.key:
            node.left = self._insert(node.left, interval, key)
        else:
            node.right = self._insert(node.right, interval, key)
        return _balance(node)

    def remove(self, interval: Interval) -> bool:
        """Remove ``interval`` itself if stored, else one equal interval.

        An equal interval is one with an equal payload if there is one, else
        any with equal endpoints (``Interval`` equality ignores payloads).
        Returns success.
        """
        removed, self._root = self._remove(self._root, interval, interval.sort_key())
        if removed:
            self._size -= 1
        return removed

    def _remove(
        self, node: _Node | None, interval: Interval, key: tuple
    ) -> tuple[bool, _Node | None]:
        if node is None:
            return False, None
        if key < node.key:
            removed, node.left = self._remove(node.left, interval, key)
        elif key > node.key:
            removed, node.right = self._remove(node.right, interval, key)
        else:
            bucket = node.bucket
            position = _position(bucket, interval)
            if position is None:
                return False, node
            del bucket[position]
            if not bucket:
                return True, self._drop_node(node)
            node.interval = bucket[0]
            node.bucket_high = max(map(_high_key, bucket))
            removed = True
        if removed:
            return True, _balance(node)
        return False, node

    def _drop_node(self, node: _Node) -> _Node | None:
        if node.left is None:
            return node.right
        if node.right is None:
            return node.left
        # splice out the successor (leftmost of the right subtree) and put it
        # in this node's place, rebalancing along the extraction path
        successor, new_right = self._remove_min(node.right)
        successor.left = node.left
        successor.right = new_right
        return _balance(successor)

    def _remove_min(self, node: _Node) -> tuple[_Node, _Node | None]:
        if node.left is None:
            return node, node.right
        minimum, node.left = self._remove_min(node.left)
        return minimum, _balance(node)

    # ---------------------------------------------------------------- queries
    def stab(self, value: Fraction | int) -> list[Interval]:
        """All intervals containing ``value``."""
        value = Fraction(value)
        result: list[Interval] = []
        self._stab(self._root, value, result)
        return result

    def _stab(self, node: _Node | None, value: Fraction, out: list[Interval]) -> None:
        if node is None:
            return
        # prune: nothing in this subtree reaches up to `value`
        high_kind, high_value = node.max_high
        if high_kind == 0 and high_value < value:
            return
        self._stab(node.left, value, out)
        for interval in node.bucket:
            if interval.contains(value):
                out.append(interval)
        # intervals in the right subtree start at keys >= node's; they can
        # contain `value` only if their low <= value
        low = node.interval.low
        if low is None or low <= value:
            self._stab(node.right, value, out)

    def overlapping(self, query: Interval) -> list[Interval]:
        """All intervals overlapping the query interval."""
        result: list[Interval] = []
        self._overlap(self._root, query, result)
        return result

    def _overlap(self, node: _Node | None, query: Interval, out: list[Interval]) -> None:
        if node is None:
            return
        if query.low is not None:
            high_kind, high_value = node.max_high
            if high_kind == 0 and high_value < query.low:
                return
        self._overlap(node.left, query, out)
        for interval in node.bucket:
            if interval.overlaps(query):
                out.append(interval)
        low = node.interval.low
        if query.high is None or low is None or low <= query.high:
            self._overlap(node.right, query, out)

    def items(self) -> list[Interval]:
        result: list[Interval] = []

        def walk(node: _Node | None) -> None:
            if node is None:
                return
            walk(node.left)
            result.extend(node.bucket)
            walk(node.right)

        walk(self._root)
        return result

    def height(self) -> int:
        return _height(self._root)
