"""Seeded update sequences for the incremental-maintenance strategies.

The ``incremental`` conformance strategy replays a spec's EDB as a stream of
insert/retract deltas through :class:`repro.core.ivm.MaterializedView`,
asserting after every step that the maintained fixpoint equals a from-scratch
evaluation of the same EDB state.  The stream comes from here.

An update sequence is a *pure function of the spec* (its seed and its
relation tuples): steps reference spec tuples by (relation name, tuple
index), never by value.  That buys three properties for free:

* **replayability** -- a corpus artifact replays the identical sequence;
* **shrinker support** -- the spec-level shrinker drops tuples/relations and
  the derived sequence shrinks with them, no sequence-aware shrinking rules
  needed;
* **net-effect equality** -- every tuple is inserted exactly once and churn
  rounds retract-then-reinsert already-inserted tuples, so the final EDB
  state is exactly the spec's EDB and the strategy's final answer is
  comparable against every other strategy through the ordinary oracles.

``churn > 0`` additionally weaves in retract/reinsert rounds (exercising
DRed over-deletion/re-derivation in recursive and non-recursive strata)
and no-op retracts of not-yet-inserted tuples (which must cost nothing).
"""

from __future__ import annotations

import random

from repro.conformance.spec import CaseSpec
from repro.errors import ReproError

#: one update step: (``"insert"`` | ``"retract"``, relation name, tuple index
#: into that relation's tuple list in ``spec.relations``)
UpdateStep = tuple[str, str, int]


class IncrementalMismatchError(ReproError):
    """The maintained view diverged from the from-scratch fixpoint.

    Raised by the ``incremental`` strategies at the first update step whose
    maintained world differs (as canonical key sets) from re-evaluating the
    program against the current EDB state; the conformance runner reports it
    as a discrepancy of oracle ``"incremental"``.
    """

    def __init__(self, step: int, op: UpdateStep, relation: str) -> None:
        self.step = step
        self.op = op
        self.relation = relation
        super().__init__(
            f"maintained != scratch at step {step} ({op[0]} {op[1]}[{op[2]}]): "
            f"relation {relation!r} differs"
        )


def update_sequence(spec: CaseSpec, churn: int = 0) -> list[UpdateStep]:
    """Derive the deterministic update stream for a spec.

    The base stream inserts every EDB tuple exactly once, in seeded-shuffled
    order.  Each of the ``churn`` rounds then picks an insert, retracts that
    tuple again at a later point, and reinserts it after the retract --
    preserving the net effect.  Finally, one no-op retract of a tuple that
    is not yet present is woven in.
    """
    rng = random.Random((spec.seed or 0) ^ 0x1B01)
    steps: list[UpdateStep] = [
        ("insert", name, index)
        for name, _variables, tuples in spec.relations
        for index in range(len(tuples))
    ]
    rng.shuffle(steps)
    for _ in range(churn):
        if not steps:
            break
        anchor = rng.randrange(len(steps))
        op, name, index = steps[anchor]
        if op != "insert":
            continue
        # retract strictly after the anchor insert, reinsert after that
        retract_at = rng.randint(anchor + 1, len(steps))
        steps.insert(retract_at, ("retract", name, index))
        steps.insert(rng.randint(retract_at + 1, len(steps)), ("insert", name, index))
    if churn and steps:
        # one no-op retract: placed at or before the tuple's first insert,
        # so the tuple is not present and the step must cost nothing
        first_insert = {}
        for position, (op, name, index) in reversed(list(enumerate(steps))):
            if op == "insert":
                first_insert[(name, index)] = position
        (name, index), position = rng.choice(sorted(first_insert.items()))
        steps.insert(rng.randrange(position + 1), ("retract", name, index))
    return steps
