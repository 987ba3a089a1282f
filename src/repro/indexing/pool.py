"""Incrementally-maintained join indexes for the Datalog engine.

The paper's Section 1.1(3) generalized 1-d index answers "which generalized
tuples can intersect ``a1 <= x <= a2``" in output-sensitive time.  The
Datalog join is exactly that query in disguise: once the partial conjunction
pins (or interval-bounds) a join variable, only the tuples whose projection
interval meets the bound can extend the join, so scanning the full renamed
choice list wastes work proportional to the relation size.

:class:`JoinIndexPool` owns one :class:`~repro.indexing.generalized_index.
GeneralizedIndex1D` per (relation, attribute) pair, created lazily on the
first probe of that pair and maintained *incrementally* across fixpoint
rounds: generalized relations only ever grow during an evaluation (the
engine merges each round's derivations by ``add``, never ``discard``), and
they iterate in insertion order, so catching an index up is indexing the
suffix of ``relation.tuples()`` past a per-index cursor.  Building from
scratch each round would cost O(total tuples) per round -- the incremental
cursor pays O(new tuples) instead.

**Retraction.**  Incremental view maintenance breaks the append-only
assumption: a retract shrinks the relation, so the suffix cursor would
both miss later appends (the cursor can exceed the new length) and leave
*stale* index entries whose tuples are no longer in the relation --
candidates that are satisfiable with the probe bound but must not join.
Every pool entry therefore remembers the relation's monotone ``removals``
counter; when it moves, the entry's index is rebuilt from current content
(a versioned rebuild, counted in ``rebuilds``).  Rebuilds cost O(relation)
but only fire on retraction, so the append-only fast path is unchanged and
a long run of insert-only maintenance steps never rebuilds.

Thread safety: a single lock serializes catch-up and query, so a pool may
be probed from more than one thread; probes are read-mostly after warm-up,
and the tree query itself is cheap relative to the join work it saves.

Soundness: index keys are the *hull* of each tuple's projection
(disequalities relaxed -- see :func:`tuple_projection_interval`), so the
candidate set over-covers and the join's satisfiability check filters false
positives; a tuple compatible with the partial conjunction always has a key
intersecting the probe interval, so there are never false negatives.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.indexing.generalized_index import GeneralizedIndex1D


class JoinIndexPool:
    """Per-evaluation pool of generalized 1-d indexes over the world's relations.

    ``supported`` is decided once from the theory (only the dense-order
    theory guarantees single-interval projections); an unsupported pool
    answers every probe with ``None`` so the engine falls back to the scan
    path at zero cost.
    """

    def __init__(self, theory: object) -> None:
        from repro.runtime.chaos import unwrap_theory

        self.supported = isinstance(unwrap_theory(theory), DenseOrderTheory)  # type: ignore[arg-type]
        self._lock = threading.Lock()
        #: (relation name, attribute) ->
        #: [index, cursor into relation.tuples(), relation.removals snapshot]
        self._indexes: dict[tuple[str, str], list] = {}
        #: probes answered / candidate tuples returned / scan entries avoided
        self.probes = 0
        self.candidates = 0
        self.scan_avoided = 0
        #: versioned rebuilds forced by retraction (see module docstring)
        self.rebuilds = 0

    def _catch_up(
        self, entry: list, relation: GeneralizedRelation, attribute: str
    ) -> GeneralizedIndex1D:
        """Bring an entry's index up to the relation's current content.

        Append-only growth indexes the suffix past the cursor; a removal
        event (``relation.removals`` moved) invalidates the suffix scheme
        and rebuilds the index in place.  Callers hold the pool lock.  The
        entry *list* is mutated, never replaced: probe handles share it.
        """
        index, cursor, removals = entry
        if removals != relation.removals:
            index = GeneralizedIndex1D(relation, attribute)
            entry[0] = index
            entry[1] = len(relation)
            entry[2] = relation.removals
            self.rebuilds += 1
        elif cursor < len(relation):
            for item in relation.tuples()[cursor:]:
                index.insert(item)
            entry[1] = len(relation)
        return index

    def probe(
        self,
        relation: GeneralizedRelation,
        attribute: str,
        low: Fraction | None,
        high: Fraction | None,
    ) -> list[GeneralizedTuple] | None:
        """Tuples of ``relation`` whose ``attribute`` projection can meet [low, high].

        Returns ``None`` when indexing does not apply (non-dense theory,
        unknown attribute, or no usable bound) -- the caller scans instead.
        """
        if not self.supported or (low is None and high is None):
            return None
        if attribute not in relation.variables:
            return None
        with self._lock:
            entry = self._indexes.get((relation.name, attribute))
            if entry is None:
                index = GeneralizedIndex1D(relation, attribute)
                entry = [index, len(relation), relation.removals]
                self._indexes[(relation.name, attribute)] = entry
            else:
                index = self._catch_up(entry, relation, attribute)
            hits = index.candidates(low, high)
            self.probes += 1
            self.candidates += len(hits)
            self.scan_avoided += len(relation) - len(hits)
            return hits

    def handle(
        self, relation: GeneralizedRelation, attribute: str
    ) -> IndexProbeHandle | None:
        """A pre-resolved probe for one (relation, attribute) pair.

        Compiled rule closures probe the same pair for every candidate
        entry of a join step; a handle performs the pool's dict lookup
        (and lazy index creation) once, so the per-probe path is just
        catch-up + tree query.  Returns ``None`` exactly when
        :meth:`probe` would (non-dense theory or unknown attribute), and
        answers through the same shared index entry and counters, so
        handle probes and direct probes are interchangeable.
        """
        if not self.supported or attribute not in relation.variables:
            return None
        with self._lock:
            entry = self._indexes.get((relation.name, attribute))
            if entry is None:
                entry = [
                    GeneralizedIndex1D(relation, attribute),
                    len(relation),
                    relation.removals,
                ]
                self._indexes[(relation.name, attribute)] = entry
        return IndexProbeHandle(self, relation, attribute, entry)

    def index_count(self) -> int:
        with self._lock:
            return len(self._indexes)


class IndexProbeHandle:
    """A bound (relation, attribute) probe sharing its pool's index entry."""

    __slots__ = ("_pool", "_relation", "_attribute", "_entry")

    def __init__(
        self,
        pool: JoinIndexPool,
        relation: GeneralizedRelation,
        attribute: str,
        entry: list,
    ) -> None:
        self._pool = pool
        self._relation = relation
        self._attribute = attribute
        self._entry = entry

    def probe(
        self, low: Fraction | None, high: Fraction | None
    ) -> list[GeneralizedTuple] | None:
        """Candidates for [low, high]; ``None`` when there is no usable bound."""
        if low is None and high is None:
            return None
        pool = self._pool
        relation = self._relation
        with pool._lock:
            index = pool._catch_up(self._entry, relation, self._attribute)
            hits = index.candidates(low, high)
            pool.probes += 1
            pool.candidates += len(hits)
            pool.scan_avoided += len(relation) - len(hits)
            return hits
