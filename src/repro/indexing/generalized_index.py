"""The generalized 1-dimensional index of Section 1.1(3).

"A generalized 1-dimensional index is a set of intervals, where each
interval is associated with a generalized tuple.  Each interval in the index
is the projection on x of its associated generalized tuple."  Searching for
``a1 <= x <= a2`` conjoins the range constraint to *only those generalized
tuples whose generalized keys intersect it*; insertion and deletion maintain
the interval set.

The projection of a dense-order generalized tuple on an attribute is always
one interval (the conjunction describes an order-convex set), computed here
by the theory's quantifier elimination, or read off a pin ``x = c`` when the
tuple has one.  Such a *point key* is the degenerate interval ``[c, c]`` of
the relational special case (Example 1.5), and the index keeps point keys
in a point table -- a dict from ``c`` to its tuples, beside a sorted list of
the distinct values -- and only the other keys in an interval tree.  A
naive baseline (:class:`NaiveGeneralizedSearch`) performs the paper's
"trivial, but inefficient, solution": add the constraint to every tuple and
scan.

A :class:`GeneralizedRelation` owns the indexes the Datalog join probes
(:meth:`GeneralizedRelation.index`) and keeps them current through its own
deltas: :meth:`GeneralizedIndex1D.append` queues an admitted tuple, which is
keyed at the next query; :meth:`GeneralizedIndex1D.remove` deletes one key.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory, OrderAtom, ge, le
from repro.constraints.terms import Const, Var
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.errors import EvaluationError
from repro.indexing.interval import Interval
from repro.indexing.interval_tree import IntervalTree


def tuple_key(
    item: GeneralizedTuple, attribute: str, theory: DenseOrderTheory
) -> Fraction | Interval | None:
    """A generalized tuple's key on one attribute: the constant ``c`` when
    the tuple pins the attribute to it (a point key, the interval
    ``[c, c]``), else its projection interval; None for an unsatisfiable
    tuple.

    A satisfiable tuple that pins the attribute to ``c`` projects to
    ``{c}``, so its key is read off the pin without an elimination.
    """
    if not theory.is_satisfiable(item.atoms):
        return None
    pinned = theory.pinned_constants(item.atoms).get(attribute)
    if pinned is not None:
        return pinned
    # drop disequalities up front: a punctured interval's *key* is its hull
    # (keys may over-cover -- the search conjoins the true constraints, so
    # false positives are filtered, never false negatives)
    relaxed = tuple(
        atom for atom in item.atoms if getattr(atom, "op", None) != "!="
    )
    drop = [v for v in item.variables if v != attribute]
    projected = theory.eliminate(relaxed, drop)
    if not projected:
        return None
    (conjunction,) = projected
    low: Fraction | None = None
    low_open = False
    high: Fraction | None = None
    high_open = False
    for atom in conjunction:
        assert isinstance(atom, OrderAtom)
        if atom.op == "!=":
            continue  # a single puncture does not change the key interval
        if isinstance(atom.left, Var) and isinstance(atom.right, Const):
            bound = atom.right.value
            if atom.op == "=":
                return bound
            if high is None or bound < high or (bound == high and atom.op == "<"):
                high, high_open = bound, atom.op == "<"
        elif isinstance(atom.left, Const) and isinstance(atom.right, Var):
            bound = atom.left.value
            if atom.op == "=":
                return bound
            if low is None or bound > low or (bound == low and atom.op == "<"):
                low, low_open = bound, atom.op == "<"
    return Interval(low, high, low_open, high_open, payload=item)


def tuple_projection_interval(
    item: GeneralizedTuple, attribute: str, theory: DenseOrderTheory
) -> Interval | None:
    """The projection of a generalized tuple onto one attribute, as an interval.

    Returns None for an unsatisfiable tuple.  For the dense-order theory the
    projection is exactly one (possibly unbounded, possibly degenerate)
    interval: :func:`tuple_key`, with a point key ``c`` as ``[c, c]``.
    """
    key = tuple_key(item, attribute, theory)
    if key is None or isinstance(key, Interval):
        return key
    return Interval(key, key, payload=item)


class GeneralizedIndex1D:
    """A generalized 1-d index over one attribute of a generalized relation.

    The index is built over the relation's current content and holds no
    reference back to the relation, so an index the relation owns never
    keeps a discarded world alive past reference counting.  Tuples are
    tracked by their canonical key (the relation's ``frozenset`` of atoms):
    queued tuples wait in insertion order and are keyed at the next query
    (:func:`tuple_key`).  The key's shape picks where a tuple goes:

    * a point key ``c`` goes into the *point table*: a dict from ``c`` to
      its bucket (canonical key -> tuple, insertion order), beside a
      sorted list of the distinct values for bounded probes.  Removing a
      point key is a dict delete, and a probe ``[c, c]`` one dict lookup;
    * any other key is an :class:`Interval` in an :class:`IntervalTree`,
      which every keyed tuple remembers, so a removal is one tree deletion
      with no theory call.  The tree is queried only when it holds
      something.

    Candidates come by key and, within a key, in insertion order, as the
    tree lists them: a point key ``[c, c]`` sorts with the intervals
    closed at ``c`` and ahead of those open at ``c``.  Every keyed tuple
    gets the index's next sequence number, so where a point key and an
    interval closed at the same value both meet a probe, they go by it.
    Removing a tuple and appending it again moves it to the end of its
    key, exactly as the relation's dict moves it to the end of its order,
    so a maintained index answers every query with the same ordered list
    as one built fresh over the relation.

    One lock covers draining the queue plus the query (and removals),
    so the index may be probed from several threads; relation writes stay
    single-writer.
    """

    def __init__(self, relation: GeneralizedRelation, attribute: str) -> None:
        if attribute not in relation.variables:
            raise EvaluationError(
                f"{attribute!r} is not an attribute of {relation.name}"
            )
        from repro.runtime.chaos import unwrap_theory

        if not isinstance(unwrap_theory(relation.theory), DenseOrderTheory):
            raise EvaluationError(
                "generalized 1-d indexing requires interval projections; "
                "only the dense-order theory guarantees them here"
            )
        self.attribute = attribute
        self.variables = relation.variables
        self.theory = relation.theory
        self._lock = threading.Lock()
        #: the point table: value -> bucket (canonical key -> tuple)
        self._points: dict[Fraction, dict[frozenset, GeneralizedTuple]] = {}
        #: the distinct point values, ascending, and their buckets alike
        self._values: list[Fraction] = []
        self._buckets: list[dict[frozenset, GeneralizedTuple]] = []
        #: canonical key -> (value, sequence number) of a point key
        self._point_keys: dict[frozenset, tuple[Fraction, int]] = {}
        #: the other keys: canonical key -> its interval in the tree
        self._tree = IntervalTree()
        self._intervals: dict[frozenset, Interval] = {}
        #: id of an interval in the tree -> its sequence number
        self._interval_seqs: dict[int, int] = {}
        self._seq = 0
        #: canonical key -> tuple appended but not keyed yet (insertion order)
        self._pending: dict[frozenset, GeneralizedTuple] = dict(relation.entries())
        self._drain()

    def __len__(self) -> int:
        """Tuples indexed or queued for indexing."""
        return len(self._point_keys) + len(self._intervals) + len(self._pending)

    # ----------------------------------------------------------------- update
    def append(self, key: frozenset, item: GeneralizedTuple) -> None:
        """Queue a tuple stored under canonical ``key``; keyed at the next query."""
        self._pending[key] = item

    def remove(self, key: frozenset) -> bool:
        """Drop the tuple stored under ``key``, with no rebuild and no theory
        call: a dict delete for a point key (its value leaves the sorted
        list only when its bucket empties), else one tree deletion.

        The tree is handed the very interval it stored, which it finds in
        its bucket by identity.
        """
        with self._lock:
            if self._pending.pop(key, None) is not None:
                return True
            point = self._point_keys.pop(key, None)
            if point is not None:
                value = point[0]
                bucket = self._points[value]
                del bucket[key]
                if not bucket:
                    del self._points[value]
                    position = bisect_left(self._values, value)
                    del self._values[position]
                    del self._buckets[position]
                return True
            interval = self._intervals.pop(key, None)
            if interval is None:
                return False
            del self._interval_seqs[id(interval)]
            return self._tree.remove(interval)

    def clear(self) -> None:
        with self._lock:
            self._points.clear()
            self._values.clear()
            self._buckets.clear()
            self._point_keys.clear()
            self._tree = IntervalTree()
            self._intervals.clear()
            self._interval_seqs.clear()
            self._pending.clear()

    def insert(self, item: GeneralizedTuple) -> None:
        """Insert a generalized tuple (keyed by its atom set)."""
        self.append(frozenset(item.atoms), item)

    def delete(self, item: GeneralizedTuple) -> bool:
        return self.remove(frozenset(item.atoms))

    def _drain(self) -> None:
        """Key the queued tuples and index them, in insertion order.

        Every key is computed before the queue, the point table or the tree
        changes: a theory call that raises leaves the index as it was,
        still in agreement with its relation, and the next query retries.
        Callers hold the lock (the constructor holds the only reference
        instead).
        """
        if not self._pending:
            return
        keyed = [
            (key, item, tuple_key(item, self.attribute, self.theory))
            for key, item in self._pending.items()
        ]
        self._pending.clear()
        points = self._points
        seq = self._seq
        for key, item, found in keyed:
            if found is None:
                continue
            seq += 1
            if isinstance(found, Interval):
                self._tree.insert(found)
                self._intervals[key] = found
                self._interval_seqs[id(found)] = seq
                continue
            bucket = points.get(found)
            if bucket is None:
                bucket = points[found] = {}
                position = bisect_left(self._values, found)
                self._values.insert(position, found)
                self._buckets.insert(position, bucket)
            bucket[key] = item
            self._point_keys[key] = (found, seq)
        self._seq = seq

    # ----------------------------------------------------------------- search
    def search(
        self,
        low: Fraction | int | None,
        high: Fraction | int | None,
        name: str = "search_result",
    ) -> GeneralizedRelation:
        """The generalized database representing tuples with x in [low, high].

        Only the tuples whose key intervals intersect the query range are
        touched; the range constraint is conjoined to each.
        """
        result = GeneralizedRelation(name, self.variables, self.theory)
        range_atoms = []
        if low is not None:
            range_atoms.append(ge(self.attribute, Fraction(low)))
        if high is not None:
            range_atoms.append(le(self.attribute, Fraction(high)))
        for item in self.candidates(low, high):
            result.add_tuple(tuple(item.atoms) + tuple(range_atoms))
        return result

    def candidates(self, low, high) -> list[GeneralizedTuple]:
        """The tuples whose keys meet [low, high] (no constraint rewrite),
        by key and then insertion order."""
        if low is not None and not isinstance(low, Fraction):
            low = Fraction(low)
        if high is not None and not isinstance(high, Fraction):
            high = Fraction(high)
        with self._lock:
            self._drain()
            if low is not None and (low is high or low == high):
                bucket = self._points.get(low)
                values, buckets = ([low], [bucket]) if bucket else ([], [])
            else:
                start = 0 if low is None else bisect_left(self._values, low)
                stop = (
                    len(self._values)
                    if high is None
                    else bisect_right(self._values, high, start)
                )
                values = self._values[start:stop]
                buckets = self._buckets[start:stop]
            hits = self._tree.overlapping(Interval(low, high)) if self._intervals else []
            if not hits:
                return [item for bucket in buckets for item in bucket.values()]
            if not buckets:
                return [hit.payload for hit in hits]
            return self._merge(hits, values, buckets)

    def _merge(
        self,
        hits: list[Interval],
        values: list[Fraction],
        buckets: list[dict[frozenset, GeneralizedTuple]],
    ) -> list[GeneralizedTuple]:
        """Tree hits and point buckets in one list, by key and then
        insertion order.  A point key ``c`` has the sort key of ``[c, c]``
        (:meth:`Interval.sort_key`); sequence numbers are unique, so the
        sort never compares two tuples."""
        point_keys = self._point_keys
        entries = [
            (((1, value), False), point_keys[key][1], item)
            for value, bucket in zip(values, buckets)
            for key, item in bucket.items()
        ]
        seqs = self._interval_seqs
        entries.extend((hit.sort_key(), seqs[id(hit)], hit.payload) for hit in hits)
        entries.sort()
        return [item for _, _, item in entries]


class NaiveGeneralizedSearch:
    """The paper's strawman: conjoin the range constraint to *every* tuple."""

    def __init__(self, relation: GeneralizedRelation, attribute: str) -> None:
        self.relation = relation
        self.attribute = attribute
        self.theory = relation.theory

    def search(
        self,
        low: Fraction | int | None,
        high: Fraction | int | None,
        name: str = "naive_result",
    ) -> GeneralizedRelation:
        result = GeneralizedRelation(name, self.relation.variables, self.theory)
        range_atoms = []
        if low is not None:
            range_atoms.append(ge(self.attribute, Fraction(low)))
        if high is not None:
            range_atoms.append(le(self.attribute, Fraction(high)))
        for item in self.relation:
            result.add_tuple(tuple(item.atoms) + tuple(range_atoms))
        return result

    def candidates(self, low, high) -> list[GeneralizedTuple]:
        """Linear scan with per-tuple satisfiability checks."""
        range_atoms = []
        if low is not None:
            range_atoms.append(ge(self.attribute, Fraction(low)))
        if high is not None:
            range_atoms.append(le(self.attribute, Fraction(high)))
        return [
            item
            for item in self.relation
            if self.theory.is_satisfiable(tuple(item.atoms) + tuple(range_atoms))
        ]
