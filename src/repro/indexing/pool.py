"""The Datalog join's gate to the relations' generalized 1-d indexes.

The paper's Section 1.1(3) generalized 1-d index answers "which generalized
tuples can intersect ``a1 <= x <= a2``" in output-sensitive time.  The
Datalog join is exactly that query in disguise: once the partial conjunction
pins (or interval-bounds) a join variable, only the tuples whose projection
interval meets the bound can extend the join, so scanning the full renamed
choice list wastes work proportional to the relation size.

The indexes belong to the relations: :meth:`repro.core.generalized.
GeneralizedRelation.index` creates one :class:`~repro.indexing.
generalized_index.GeneralizedIndex1D` per probed attribute at the first
probe, and it lives as long as the relation object.  Evaluation never writes
the relations a program only reads, and puts them into its world by
reference, so consecutive evaluations over one database probe the index the
first one built.  The relation keeps the index current through its deltas:
admitted tuples are queued and keyed at the next probe, in insertion order;
a discard deletes one key; ``clear`` empties it.  Nothing is rebuilt.

:class:`JoinIndexPool` holds no index.  It decides once per evaluation
whether the theory has interval keys and declines every probe the index
cannot serve, so the engine falls back to the scan path at zero cost.

Soundness: index keys are the *hull* of each tuple's projection
(disequalities relaxed -- see :func:`tuple_projection_interval`), so the
candidate set over-covers and the join's satisfiability check filters false
positives; a tuple compatible with the partial conjunction always has a key
intersecting the probe interval, so there are never false negatives.
"""

from __future__ import annotations

from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core.generalized import GeneralizedRelation, GeneralizedTuple
from repro.indexing.generalized_index import GeneralizedIndex1D


class JoinIndexPool:
    """Per-evaluation access to the relation-owned generalized 1-d indexes.

    ``supported`` is decided once from the theory (only the dense-order
    theory guarantees single-interval projections); an unsupported pool
    answers every probe with ``None`` so the engine falls back to the scan
    path at zero cost.
    """

    def __init__(self, theory: object) -> None:
        from repro.runtime.chaos import unwrap_theory

        self.supported = isinstance(unwrap_theory(theory), DenseOrderTheory)  # type: ignore[arg-type]

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
        if low is None and high is None:
            return None
        index = self.handle(relation, attribute)
        return None if index is None else index.candidates(low, high)

    def handle(
        self, relation: GeneralizedRelation, attribute: str
    ) -> GeneralizedIndex1D | None:
        """The relation's index on ``attribute``, or ``None`` exactly when
        :meth:`probe` declines for a reason other than a missing bound
        (non-dense theory or unknown attribute)."""
        if not self.supported or attribute not in relation.variables:
            return None
        return relation.index(attribute)
