"""The generalized 1-dimensional index of Section 1.1(3).

"A generalized 1-dimensional index is a set of intervals, where each
interval is associated with a generalized tuple.  Each interval in the index
is the projection on x of its associated generalized tuple."  Searching for
``a1 <= x <= a2`` conjoins the range constraint to *only those generalized
tuples whose generalized keys intersect it*; insertion and deletion maintain
the interval set.

The projection of a dense-order generalized tuple on an attribute is always
one interval (the conjunction describes an order-convex set), computed here
by the theory's quantifier elimination, or read off a pin ``x = c`` as
``[c, c]`` when the tuple has one.  A naive baseline
(:class:`NaiveGeneralizedSearch`) performs the paper's "trivial, but
inefficient, solution": add the constraint to every tuple and scan.

A :class:`GeneralizedRelation` owns the indexes the Datalog join probes
(:meth:`GeneralizedRelation.index`) and keeps them current through its own
deltas: :meth:`GeneralizedIndex1D.append` queues an admitted tuple, which is
keyed at the next query; :meth:`GeneralizedIndex1D.remove` deletes one key.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory, OrderAtom, ge, le
from repro.constraints.terms import Const, Var
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.errors import EvaluationError
from repro.indexing.interval import Interval
from repro.indexing.interval_tree import IntervalTree


def tuple_projection_interval(
    item: GeneralizedTuple, attribute: str, theory: DenseOrderTheory
) -> Interval | None:
    """The projection of a generalized tuple onto one attribute, as an interval.

    Returns None for an unsatisfiable tuple.  For the dense-order theory the
    projection is exactly one (possibly unbounded, possibly degenerate)
    interval.  A satisfiable tuple that pins the attribute to ``c`` projects
    to ``{c}``, so its key is read off the pin without an elimination.
    """
    if not theory.is_satisfiable(item.atoms):
        return None
    pinned = theory.pinned_constants(item.atoms).get(attribute)
    if pinned is not None:
        return Interval(pinned, pinned, payload=item)
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
        terms = (atom.left, atom.right)
        if atom.op == "!=":
            continue  # a single puncture does not change the key interval
        if isinstance(atom.left, Var) and isinstance(atom.right, Const):
            bound = atom.right.value
            if atom.op == "=":
                low = high = bound
                low_open = high_open = False
                break
            if high is None or bound < high or (bound == high and atom.op == "<"):
                high, high_open = bound, atom.op == "<"
        elif isinstance(atom.left, Const) and isinstance(atom.right, Var):
            bound = atom.left.value
            if atom.op == "=":
                low = high = bound
                low_open = high_open = False
                break
            if low is None or bound > low or (bound == low and atom.op == "<"):
                low, low_open = bound, atom.op == "<"
    return Interval(low, high, low_open, high_open, payload=item)


class GeneralizedIndex1D:
    """An interval-tree-backed index over one attribute of a generalized relation.

    The index is built over the relation's current content and holds no
    reference back to the relation, so an index the relation owns never
    keeps a discarded world alive past reference counting.  Tuples are
    tracked by their canonical key (the relation's ``frozenset`` of atoms):
    queued tuples wait in insertion order and are keyed at the next query,
    and every keyed tuple remembers its interval, so a removal is one tree
    deletion with no theory call.

    The tree lists candidates by key and, within a key, in insertion order.
    Removing a tuple and appending it again moves it to the end of its
    bucket, exactly as the relation's dict moves it to the end of its order,
    so a maintained index answers every query with the same ordered list as
    one built fresh over the relation.

    One lock covers draining the queue plus the tree query (and removals),
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
        self._tree = IntervalTree()
        #: canonical key -> the keyed tuple's interval in the tree
        self._keys: dict[frozenset, Interval] = {}
        #: canonical key -> tuple appended but not keyed yet (insertion order)
        self._pending: dict[frozenset, GeneralizedTuple] = dict(relation.entries())
        self._drain()

    def __len__(self) -> int:
        """Tuples indexed or queued for indexing."""
        return len(self._keys) + len(self._pending)

    # ----------------------------------------------------------------- update
    def append(self, key: frozenset, item: GeneralizedTuple) -> None:
        """Queue a tuple stored under canonical ``key``; keyed at the next query."""
        self._pending[key] = item

    def remove(self, key: frozenset) -> bool:
        """Drop the tuple stored under ``key``: one tree deletion, no rebuild.

        The tree is handed the very interval it stored, which it finds in
        its bucket by identity.
        """
        with self._lock:
            if self._pending.pop(key, None) is not None:
                return True
            interval = self._keys.pop(key, None)
            if interval is None:
                return False
            return self._tree.remove(interval)

    def clear(self) -> None:
        with self._lock:
            self._tree = IntervalTree()
            self._keys.clear()
            self._pending.clear()

    def insert(self, item: GeneralizedTuple) -> None:
        """Insert a generalized tuple (keyed by its atom set)."""
        self.append(frozenset(item.atoms), item)

    def delete(self, item: GeneralizedTuple) -> bool:
        return self.remove(frozenset(item.atoms))

    def _drain(self) -> None:
        """Key the queued tuples and index them, in insertion order.

        Every key is computed before the queue or the tree changes: a theory
        call that raises leaves the index as it was, still in agreement with
        its relation, and the next query retries.  Callers hold the lock
        (the constructor holds the only reference instead).
        """
        if not self._pending:
            return
        keyed = [
            (key, tuple_projection_interval(item, self.attribute, self.theory))
            for key, item in self._pending.items()
        ]
        self._pending.clear()
        for key, interval in keyed:
            if interval is not None:
                self._tree.insert(interval)
                self._keys[key] = interval

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
        query = Interval(
            Fraction(low) if low is not None else None,
            Fraction(high) if high is not None else None,
        )
        with self._lock:
            self._drain()
            return [hit.payload for hit in self._tree.overlapping(query)]


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
