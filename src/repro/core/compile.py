"""Rule compilation: planned rules lowered to specialized closures.

This is the engine's rule join -- the one implementation of the paper's
rule firing (Section 1.2; Theorems 3.14.2 / 4.11.2): conjoin the body
tuples' constraints, test satisfiability, eliminate the body-only
variables, canonicalize.  A generic join would re-decide, per candidate
tuple, which access path to use and which generic
:class:`~repro.constraints.base.ConstraintTheory` entry points to call.
That per-tuple dispatch is pure overhead for the workloads the paper's
closed-form results describe (Section 1.3: fixed programs evaluate in
PTIME data complexity, so the per-tuple work should be a constant decided
once per rule, not re-derived per tuple).

This module lowers each (rule, delta slot, join order) triple into a chain
of specialized Python closures -- one step per positive body atom, one
difference step per negated atom, and a leaf -- with the decisions baked in
at lowering time.  Several layers are not decisions but constants of the
join: every step rejects a candidate whose ``var = const`` pins conflict
with the pins accumulated so far (one pin map threads the chain), a step
that leaves the pin fast path extends its parent's incremental solver
context instead of re-deciding the whole partial conjunction, and each
tuple's renamed and classified entry record is cached per evaluation.  The
decisions are:

* the join order: the semi-naive delta slot first, then the greedy
  selectivity planner's order over the other atoms (see
  :func:`plan_order`), re-run per rule and round;
* the access path per step, decided by the step alone: a probe of the
  relation's own generalized 1-d index (:meth:`GeneralizedRelation.index`)
  when the step is not the delta slot and the theory is dense order, else
  the renamed scan list; probe results are memoized per relation content
  version;
* theory-specific satisfiability fast paths: a candidate tuple whose
  constraint is a conjunction of ``var = const`` pins (the overwhelmingly
  common shape for the dense-order and equality theories -- every
  ``add_point`` tuple) extends the join by a dictionary merge instead of a
  solver call;
* negation as a difference: ``C and not N`` equals ``C and not (N
  restricted to C)``, so a negated atom's step fetches ``N``'s candidates
  as a positive step does.  A match that pins every argument of ``N``
  survives unless a candidate contains it; any other match is conjoined
  with each disjunct of the complement of the candidates it meets;
* the leaf: a match that pins every head variable (Figure 2's ``n1, n2``
  are pinned by the rectangles they name) emits the head's pins directly
  instead of running quantifier elimination, in every theory.

**Correctness contract.**  Every fixpoint equals the one
:func:`repro.conformance.reference.reference_fixpoint` computes -- a
flag-free, cache-free evaluator that shares no join code with this
module -- under every ``EngineOptions`` combination and semantics; the
conformance harness and the engine-vs-reference property tests check it.
The fast paths only replace *how* a decision is computed, never *which*
candidates are visited:

* a conjunction of consistent ``var = const`` pins over the dense-order or
  equality theory is satisfiable iff no variable is pinned to two distinct
  constants -- exactly the dictionary-merge check (both theories are
  pointwise: a ground pin set denotes the single point it spells);
* a difference step leaves out only tuples of ``N`` that share no point
  with the match, and a point lies in a candidate iff a POINT candidate's
  pins agree or the candidate is satisfiable with the point's pins;
* a leaf runs only on a conjunction the root or the last step found
  satisfiable, and every theory decides satisfiability exactly; a
  satisfiable conjunction that entails ``v = c`` for each head variable
  ``v`` projects onto exactly that point, so eliminating the dropped
  variables is equivalent to the head variables' pins (and a ground pin
  set projects onto the pins of the head variables it mentions).  The
  engine's dedup (:meth:`GeneralizedRelation.add_canonical`) stores both
  spellings in the same form for dense order, equality and boolean, whose
  canonical forms are determined by the solution set; the
  real-polynomial theory stores the pin spelling, equal to the
  eliminated one as a set of points.

Compiled programs are cached in the module-level :data:`PLAN_CACHE`, keyed
by ``(program fingerprint, schema, theory identity)``: no closure reads an
``EngineOptions`` field, so one entry serves every option setting, and
repeated ``evaluate()`` calls skip planning and lowering entirely.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core.calculus import complement_dnf
from repro.core.generalized import GeneralizedTuple
from repro.logic.syntax import Atom, RelationAtom
from repro.runtime.budget import tick
from repro.runtime.chaos import unwrap_theory

if TYPE_CHECKING:  # imported for annotations only: datalog imports us
    from repro.constraints.base import ConstraintTheory
    from repro.core.datalog import EvaluationStats, Rule
    from repro.core.generalized import GeneralizedDatabase

#: entry kinds decided once per (tuple, body atom) pair at lowering time
POINT = 0  #: every atom is a ``var = const`` pin (pointwise theories only)
GENERAL = 1  #: anything else -- the generic solver path handles it

#: a classified join candidate: (renamed atoms, pin map, kind)
EntryRecord = tuple[tuple[Atom, ...], dict[str, Any], int]

# --------------------------------------------------------------------- planner
def plan_order(
    arg_lists: Sequence[Sequence[str]],
    sizes: Sequence[int],
    pinned: Iterable[str],
    first: int | None = None,
) -> list[int]:
    """The greedy selectivity order over a rule's positive atoms.

    Atoms sharing more variables with the already-bound set join more
    selectively (every shared variable is an equi-join the pin filter and
    the index probes exploit), so pick by descending connectivity, breaking
    ties toward the smaller source and then the original position
    (determinism).  ``pinned`` seeds the bound set with the constants the
    rule's constraint atoms force.  :meth:`CompiledRule.join_order`
    re-plans per (rule, round), so the order tracks the changing
    delta/relation cardinalities as the fixpoint grows.

    ``first`` -- the semi-naive delta slot -- leads when given.  A delta
    is a plain list that no step probes, so placed after another atom it
    would be scanned in full once per candidate of that atom; placed first
    it is scanned once, and the steps after it probe with its bindings.
    """
    n = len(arg_lists)
    bound = set(pinned)
    remaining = list(range(n))
    order: list[int] = []
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound.update(arg_lists[first])
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                -sum(1 for v in set(arg_lists[i]) if v in bound),
                sizes[i],
                i,
            ),
        )
        remaining.remove(best)
        order.append(best)
        bound.update(arg_lists[best])
    return order


# ------------------------------------------------------------------------- IR
@dataclass(frozen=True)
class StepIR:
    """One lowered join step (a positive atom in plan order, then each
    negated atom's difference step)."""

    slot: int  #: position in the lowered chain
    position: int  #: original index among the rule's positive (or negated) atoms
    atom: str  #: the body literal, e.g. ``T(x, z)`` or ``not T(y, x)``
    source: str  #: ``"delta"``, ``"relation"`` or ``"difference"``
    access: str  #: ``"probe-or-scan"`` or ``"scan"``
    bound_before: tuple[str, ...]  #: variables bound when this step runs


@dataclass(frozen=True)
class RuleIR:
    """The lowered form of one (rule, delta slot, join order) variant."""

    rule: str
    order: tuple[int, ...]
    delta_position: int | None
    root: str  #: ``"point pins={...}"`` or ``"general (k constraints)"``
    steps: tuple[StepIR, ...]
    #: ``"pin-emit (...) when every head variable is pinned, else eliminate
    #: drop=(...)"``
    leaf: str

    def render(self) -> str:
        """Deterministic multi-line pretty print (the shell's ``.plan``)."""
        lines = [f"rule: {self.rule}"]
        delta = (
            "none (full sources)"
            if self.delta_position is None
            else f"positive atom #{self.delta_position}"
        )
        lines.append(f"delta slot: {delta}")
        lines.append(f"order: {list(self.order)}")
        lines.append(f"root: {self.root}")
        for step in self.steps:
            bound = ", ".join(step.bound_before) or "-"
            lines.append(
                f"  step {step.slot}: {step.atom}  "
                f"[{step.source}, {step.access}; bound: {bound}]"
            )
        lines.append(f"leaf: {self.leaf}")
        return "\n".join(lines)


# ------------------------------------------------------------- classification
def _pointwise(theory: "ConstraintTheory") -> bool:
    """Whether ground pin conjunctions denote single points exactly.

    Only the dense-order and equality theories qualify: their canonical
    forms are determined by the solution set, and a consistent set of
    ``var = const`` pins is satisfiable by the point it spells.  The
    boolean and real-polynomial theories' entries always take the generic
    path (their leaves still emit a pinned head's pins).
    """
    return isinstance(unwrap_theory(theory), (DenseOrderTheory, EqualityTheory))


def _classify(
    renamed: tuple[Atom, ...], pins: dict[str, Any], pointwise: bool
) -> int:
    """POINT iff every atom contributed a distinct ``var = const`` pin.

    ``pinned_constants`` only collects from pin-shaped atoms, so a pin
    count matching the atom count proves every atom is a pin of its own
    variable; anything else (intervals, var-var links, duplicate pins)
    conservatively stays GENERAL.
    """
    if pointwise and len(pins) == len(renamed):
        return POINT
    return GENERAL


# ----------------------------------------------------------- entry records
class _TupleRef(weakref.ref):
    __slots__ = ("key",)


class RecordCache(dict):
    """``id(tuple) -> (weak tuple reference, entry record)`` for one body atom.

    A freed tuple's entry leaves with it (the reference's callback drops
    it), so the cache holds live tuples only and an ``id`` is never reused
    while its entry stays.  The callback holds the cache weakly: no cycle
    keeps a finished evaluation's cache alive.
    """

    __slots__ = ("_drop", "__weakref__")

    def __init__(self) -> None:
        super().__init__()
        cache_ref = weakref.ref(self)

        def drop(ref: _TupleRef) -> None:
            cache = cache_ref()
            if cache is not None:
                cache.pop(ref.key, None)

        self._drop = drop

    def store(self, item: GeneralizedTuple, record: EntryRecord) -> None:
        ref = _TupleRef(item, self._drop)
        ref.key = id(item)
        self[ref.key] = (ref, record)


# ------------------------------------------------------------- firing state
class _FiringState:
    """Mutable per-firing context threaded through a variant's closures."""

    __slots__ = (
        "stats",
        "caches",
        "results",
        "relations",
        "delta_lists",
        "scan_lists",
    )

    def __init__(
        self,
        stats: "EvaluationStats",
        caches: Any,
        relations: list,
        delta_lists: list,
    ) -> None:
        self.stats = stats
        self.caches = caches
        self.results: list[tuple[str, GeneralizedTuple]] = []
        self.relations = relations  # per slot: GeneralizedRelation | None
        self.delta_lists = delta_lists  # per slot: list of delta tuples | None
        self.scan_lists: list[list[EntryRecord] | None] = [None] * len(relations)


# ------------------------------------------------------------- compiled rule
class CompiledRule:
    """One rule's lowered variants, keyed by (delta slot, join order).

    Lowering happens lazily on the first firing that needs a variant (the
    planner's order depends on the round's relation sizes, so the variant
    set is discovered during evaluation) and is cached for the lifetime of
    the compiled program -- across rounds *and* across ``evaluate()`` calls
    when the :data:`PLAN_CACHE` serves the program again.
    """

    def __init__(self, rule: "Rule", theory: "ConstraintTheory") -> None:
        self.rule = rule
        self.theory = theory
        self.positives: tuple[RelationAtom, ...] = tuple(rule.positive_atoms)
        self.negated: tuple[RelationAtom, ...] = tuple(rule.negative_atoms)
        self.constraints: tuple[Atom, ...] = tuple(rule.constraint_atoms)
        self.head_name: str = rule.head.name
        self.head_vars: tuple[str, ...] = tuple(rule.head.args)
        body_vars = rule.variables()
        self.drop: tuple[str, ...] = tuple(
            v for v in body_vars if v not in self.head_vars
        )
        self.pointwise = _pointwise(theory)
        self.root_pin_map: dict[str, Any] = dict(
            theory.pinned_constants(self.constraints)
        )
        self.root_kind = _classify(
            self.constraints, self.root_pin_map, self.pointwise
        )
        self._arg_lists = [atom.args for atom in self.positives]
        self._pinned = frozenset(self.root_pin_map)
        self._variants: dict[tuple[int | None, tuple[int, ...]], Any] = {}
        self._lock = threading.Lock()
        #: memoized root solver context (a pure function of the rule)
        self._root_ctx: Any = None

    # ------------------------------------------------------------ entry cache
    def _record(
        self, item: GeneralizedTuple, args: tuple[str, ...]
    ) -> EntryRecord:
        renamed = tuple(item.rename(args).atoms)
        pins = dict(self.theory.pinned_constants(renamed))
        return (renamed, pins, _classify(renamed, pins, self.pointwise))

    def _records_for(
        self,
        atom: RelationAtom,
        source: Iterable[GeneralizedTuple],
        caches: Any,
        stats: "EvaluationStats",
    ) -> list[EntryRecord]:
        """Classified entry records for a tuple source, cached per tuple.

        Records are pure functions of the (tuple, target args) pair; the
        cache (:class:`RecordCache`) counts its hits and misses as
        ``rename_cache_*``.
        """
        key = (atom.name, atom.args)
        per_atom = caches.centries.get(key)
        if per_atom is None:
            per_atom = caches.centries[key] = RecordCache()
        records: list[EntryRecord] = []
        for t in source:
            entry = per_atom.get(id(t))
            if entry is None:
                record = self._record(t, atom.args)
                per_atom.store(t, record)
                stats.rename_cache_misses += 1
            else:
                record = entry[1]
                stats.rename_cache_hits += 1
            records.append(record)
        return records

    # ---------------------------------------------------------------- firing
    def join_order(
        self, sizes: Sequence[int], delta_slot: int | None = None
    ) -> tuple[int, ...]:
        """The positive atoms' join order for one firing, by :func:`plan_order`.

        ``sizes`` are the atoms' source sizes (the delta's at the delta
        slot).  :meth:`fire` and :func:`render_plan` both order through
        here, so a printed plan is the order that fires.
        """
        if len(self._arg_lists) < 2:
            return tuple(range(len(self._arg_lists)))
        return tuple(plan_order(self._arg_lists, sizes, self._pinned, delta_slot))

    def fire(
        self,
        world: "GeneralizedDatabase",
        stats: "EvaluationStats",
        caches: Any,
        delta: dict[str, list[GeneralizedTuple]] | None,
        delta_position: int | None,
    ) -> list[tuple[str, GeneralizedTuple]]:
        positives = self.positives
        relations: list[Any] = []
        sizes: list[int] = []
        delta_source: list[GeneralizedTuple] = []
        for index, atom in enumerate(positives):
            relation = world.relation(atom.name)
            if delta is not None and index == delta_position:
                delta_source = delta.get(atom.name, [])
                relations.append(None)
                sizes.append(len(delta_source))
            else:
                relations.append(relation)
                sizes.append(len(relation))
        delta_slot = delta_position if delta is not None else None
        order = self.join_order(sizes, delta_slot)
        if len(order) > 1:
            stats.plans_built += 1
            if order != tuple(sorted(order)):
                stats.plan_reorders += 1
        variant = self._variant(delta_slot, order, stats)
        # the difference steps read their whole relations, after the steps
        slots = [relations[i] for i in order]
        slots += [world.relation(atom.name) for atom in self.negated]
        state = _FiringState(
            stats, caches, slots, [delta_source if r is None else None for r in slots]
        )
        stats.compiled_firings += 1
        variant(state)
        return state.results

    def _variant(
        self,
        delta_position: int | None,
        order: tuple[int, ...],
        stats: "EvaluationStats",
    ) -> Callable[[_FiringState], None]:
        key = (delta_position, order)
        variant = self._variants.get(key)
        if variant is not None:
            return variant
        with self._lock:
            variant = self._variants.get(key)
            if variant is None:
                started = perf_counter()
                variant, _ir = self._lower(delta_position, order)
                self._variants[key] = variant
                stats.compiled_rules += 1
                stats.compile_seconds += perf_counter() - started
        return variant

    # -------------------------------------------------------------- lowering
    def _lower(
        self, delta_position: int | None, order: tuple[int, ...]
    ) -> tuple[Callable[[_FiringState], None], RuleIR]:
        """Emit the closure chain for one (delta slot, join order) variant.

        One closure per positive atom, then one difference step per negated
        atom, then the leaf, composed back-to-front; every per-candidate
        decision that depends only on (rule, plan) is resolved here, once.
        """
        theory = self.theory
        plan_atoms = [self.positives[i] for i in order]
        slot_atoms = plan_atoms + list(self.negated)  # difference steps last
        constraints = self.constraints
        head_name = self.head_name
        head_vars = self.head_vars
        drop = self.drop
        make_equality = theory.equality
        make_constant = theory.constant
        # a step probes its relation's index iff it is not the delta slot
        # and the theory has interval keys (dense order)
        dense = isinstance(unwrap_theory(theory), DenseOrderTheory)
        probing = [dense and position != delta_position for position in order]
        probing += [dense] * len(self.negated)

        # ------------------------------------------------------------- leaf
        head_set = frozenset(head_vars)

        def leaf(
            state: _FiringState,
            atoms: tuple[Atom, ...],
            pins: dict[str, Any],
            point: bool,
            solver: Any,
        ) -> None:
            stats = state.stats
            stats.rule_firings += 1
            if point or pins.keys() >= head_set:
                # a satisfiable context (the root or the last step
                # decided it) that pins every head variable projects
                # onto exactly those pins, in every theory; a ground pin
                # set leaves the head variables it does not pin free.
                # One conjunction either way -- see module doc
                stats.fastpath_leaves += 1
                stats.tuples_derived += 1
                emitted = tuple(
                    make_equality(v, make_constant(pins[v]))
                    for v in head_vars
                    if v in pins
                )
                state.results.append(
                    (head_name, GeneralizedTuple(head_vars, emitted))
                )
                return
            for eliminated in theory.eliminate(atoms, drop):
                stats.tuples_derived += 1
                state.results.append(
                    (head_name, GeneralizedTuple(head_vars, eliminated))
                )

        # ------------------------------------------------------------- steps
        def extend(atoms: tuple[Atom, ...], solver: Any, more: tuple[Atom, ...]) -> Any:
            """The solver context of ``atoms + more``.  Leaving point mode
            (no ``solver``) builds it for the concatenation directly, which
            the incremental closure matches."""
            if solver is None:
                return theory.begin_conjunction(atoms + more)
            return theory.extend_conjunction(solver, more)

        def make_step(
            slot: int, next_call: Callable[..., None]
        ) -> Callable[..., None]:
            atom = slot_atoms[slot]
            args = atom.args
            nargs = tuple(enumerate(args))
            scan_key = (atom.name, args)
            probes = probing[slot]
            compiled_rule = self

            def probe_records(
                state: _FiringState, pins: dict[str, Any], solver: Any
            ) -> list[EntryRecord] | None:
                """Index-backed candidates, or None to scan.

                An exact pin wins (probe [c, c]), else the interval bounds
                the incremental context forces on an argument variable.  In
                point mode there is no context: its bounds would *be* the
                pins (a ground closure bounds a pinned variable to its
                constant and nothing else), which the pin lookup already
                covered.  An empty relation, or no bound at all, scans.
                """
                relation = state.relations[slot]
                if not relation:
                    return None
                stats = state.stats
                best = None
                for position, var in nargs:
                    value = pins.get(var)
                    if isinstance(value, Fraction):
                        best = (position, value, value)
                        break
                if best is None and solver is not None:
                    for position, var in nargs:
                        bounds = theory.conjunction_bounds(solver, var)
                        if bounds is not None:
                            best = (position, bounds[0], bounds[1])
                            break
                if best is None:
                    return None
                position, low, high = best
                # one content version per (atom, argument): a write drops
                # the old version's probes, which could never hit again
                cprobe = state.caches.cprobe
                version = relation.version
                memo = cprobe.get((scan_key, position))
                if memo is None or memo[0] != version:
                    memo = cprobe[(scan_key, position)] = (version, {})
                by_bounds = memo[1]
                hit = by_bounds.get((low, high))
                if hit is not None:
                    records, n_candidates, n_relation = hit
                    stats.index_probes += 1
                    stats.index_candidates += n_candidates
                    stats.index_scan_avoided += n_relation - n_candidates
                    return records
                index = relation.index(relation.variables[position])
                candidates = index.candidates(low, high)
                records = compiled_rule._records_for(
                    atom, candidates, state.caches, stats
                )
                by_bounds[(low, high)] = (
                    records, len(candidates), len(relation)
                )
                stats.index_probes += 1
                stats.index_candidates += len(candidates)
                stats.index_scan_avoided += len(relation) - len(candidates)
                return records

            def scan_records(state: _FiringState) -> list[EntryRecord]:
                records = state.scan_lists[slot]
                if records is not None:
                    return records
                delta_list = state.delta_lists[slot]
                if delta_list is not None:
                    records = compiled_rule._records_for(
                        atom, delta_list, state.caches, state.stats
                    )
                else:
                    relation = state.relations[slot]
                    cscan = state.caches.cscan
                    cached = cscan.get(scan_key)
                    if cached is not None and cached[0] == relation.version:
                        records = cached[1]
                    else:
                        records = compiled_rule._records_for(
                            atom, relation, state.caches, state.stats
                        )
                        cscan[scan_key] = (relation.version, records)
                state.scan_lists[slot] = records
                return records

            def candidates(
                state: _FiringState, pins: dict[str, Any], solver: Any
            ) -> list[EntryRecord]:
                entries = probe_records(state, pins, solver) if probes else None
                return scan_records(state) if entries is None else entries

            if slot >= len(plan_atoms):
                return make_difference(candidates, args, next_call)

            def step(
                state: _FiringState,
                atoms: tuple[Atom, ...],
                pins: dict[str, Any],
                point: bool,
                solver: Any,
            ) -> None:
                stats = state.stats
                for renamed, cpins, kind in candidates(state, pins, solver):
                    stats.join_steps += 1
                    tick("join")
                    if cpins:
                        conflict = False
                        for var, value in cpins.items():
                            if pins.get(var, value) != value:
                                conflict = True
                                break
                        if conflict:
                            stats.pin_prunes += 1
                            stats.join_prunes += 1
                            continue
                        child_pins = {**pins, **cpins}
                    else:
                        child_pins = pins
                    if point and kind == POINT:
                        # pointwise extension: satisfiability of a ground
                        # pin set is pin consistency, which the pin check
                        # above just decided, so the solver is skipped
                        # outright -- same accept/reject outcome, same
                        # candidate enumeration, cheaper decision
                        next_call(state, atoms + renamed, child_pins, True, None)
                        continue
                    child = extend(atoms, solver, renamed)
                    stats.closure_extensions += 1
                    if not child.satisfiable:
                        stats.join_prunes += 1
                        continue
                    next_call(state, child.atoms, child_pins, False, child)

            return step

        def make_difference(
            candidates: Callable[..., list[EntryRecord]],
            args: tuple[str, ...],
            next_call: Callable[..., None],
        ) -> Callable[..., None]:
            """The step of ``not N(args)``: ``C and not N = C and not (N
            restricted to C)``, so only the candidates that meet the match
            are subtracted from it."""
            arg_set = frozenset(args)

            def difference(
                state: _FiringState,
                atoms: tuple[Atom, ...],
                pins: dict[str, Any],
                point: bool,
                solver: Any,
            ) -> None:
                stats = state.stats
                # a match that pins every argument is one point of N's
                # space, which a candidate meets iff it contains it
                pinned = pins.keys() >= arg_set
                meeting = []
                for renamed, cpins, kind in candidates(state, pins, solver):
                    stats.join_steps += 1
                    tick("join")
                    if any(pins.get(v, c) != c for v, c in cpins.items()):
                        stats.pin_prunes += 1
                        continue
                    if kind == POINT and (point or pinned):
                        meets = True  # the pin check above decided it
                    elif pinned:
                        stats.sat_checks += 1
                        meets = theory.is_satisfiable(
                            renamed
                            + tuple(make_equality(v, make_constant(pins[v])) for v in args)
                        )
                    else:
                        stats.closure_extensions += 1
                        meets = extend(atoms, solver, renamed).satisfiable
                    if meets and pinned:
                        stats.join_prunes += 1
                        return  # the point lies in N
                    if meets:
                        meeting.append(renamed)
                if not meeting:
                    next_call(state, atoms, pins, point, solver)
                    return
                for part in complement_dnf(meeting, theory):
                    child = extend(atoms, solver, part)
                    stats.closure_extensions += 1
                    if not child.satisfiable:
                        stats.join_prunes += 1
                        continue
                    next_call(state, child.atoms, pins, False, child)

            return difference

        chain: Callable[..., None] = leaf
        for slot in range(len(slot_atoms) - 1, -1, -1):
            chain = make_step(slot, chain)

        # -------------------------------------------------------------- root
        #: shared, never-mutated root pins (children merge into fresh dicts)
        root_pins = self.root_pin_map
        root_point = self.root_kind == POINT

        def run(state: _FiringState) -> None:
            state.stats.sat_checks += 1
            if root_point:
                chain(state, constraints, root_pins, True, None)
                return
            ctx = self._root_ctx
            if ctx is None:
                ctx = theory.begin_conjunction(constraints)
                self._root_ctx = ctx
            if ctx.satisfiable:
                chain(state, constraints, root_pins, False, ctx)

        # ----------------------------------------------------------------- IR
        bound: set[str] = set(self.root_pin_map)
        steps = []
        for slot, atom in enumerate(slot_atoms):
            negated = slot >= len(plan_atoms)
            position = slot - len(plan_atoms) if negated else order[slot]
            steps.append(
                StepIR(
                    slot=slot,
                    position=position,
                    atom=f"not {atom}" if negated else str(atom),
                    source=(
                        "difference" if negated
                        else "delta" if position == delta_position
                        else "relation"
                    ),
                    access="probe-or-scan" if probing[slot] else "scan",
                    bound_before=tuple(sorted(bound)),
                )
            )
            bound.update(atom.args)
        if root_point:
            pins = ", ".join(
                f"{k}={v}" for k, v in sorted(self.root_pin_map.items())
            )
            root_desc = f"point pins={{{pins}}}"
        else:
            root_desc = f"general ({len(constraints)} constraint atoms)"
        ir = RuleIR(
            rule=str(self.rule),
            order=order,
            delta_position=delta_position,
            root=root_desc,
            steps=tuple(steps),
            leaf=(
                f"pin-emit {tuple(head_vars)} when every head variable is "
                f"pinned, else eliminate drop={tuple(drop)}"
            ),
        )
        return run, ir


# ---------------------------------------------------------- compiled program
class CompiledProgram:
    """A program's compiled rules, in the program's rule order.

    ``rules[i]`` is the :class:`CompiledRule` of the program's ``i``-th
    rule; rules with the same string form share one.  The
    :data:`PLAN_CACHE` key includes the ordered rule strings, so every
    program the entry serves -- a *different* ``DatalogProgram`` object
    with the same rules, the prepared-query pattern of re-parsing and
    re-running -- lines its rules up with the same tuple, and resolving a
    rule is positional.  Beyond the rules it was compiled from, the entry
    keeps no reference to the rule objects of the programs it serves.
    """

    def __init__(self, program: Any, fingerprint: Sequence[str]) -> None:
        #: the closures capture this instance; holding it keeps the cache
        #: key's theory ``id`` valid
        self.theory = program.theory
        by_text: dict[str, CompiledRule] = {}
        for rule, text in zip(program.rules, fingerprint):
            if text not in by_text:
                by_text[text] = CompiledRule(rule, self.theory)
        self.rules: tuple[CompiledRule, ...] = tuple(
            by_text[text] for text in fingerprint
        )


# ------------------------------------------------------------------ the cache
def program_fingerprint(rules: Sequence[Any]) -> tuple[str, ...]:
    """The cache's program identity: the rules' deterministic string forms."""
    return tuple(str(rule) for rule in rules)


class PlanCache:
    """Bounded LRU of :class:`CompiledProgram` keyed by program identity.

    The key is ``(fingerprint, schema, theory identity)``:

    * the *fingerprint* (rule strings) and *schema* (predicate arities) pin
      the logical program -- editing a rule changes its string, so a
      recompile is forced;
    * the *theory identity* (``id``) pins the solver instance -- compiled
      closures capture the theory object (its caches, its chaos wrapper),
      so a different instance must never share closures; every cached
      entry holds a strong reference to its theory, keeping the id valid.

    No option is part of the key: no compiled closure or firing reads an
    ``EngineOptions`` field, so a program under ``all_on()`` and under
    ``all_off()`` shares one entry.

    Adorned programs built by the magic-set query path fingerprint like
    any other program: the rewrite puts binding *values* in the seeded
    data rather than the rule text, so every query with the same
    (predicate, adornment, semantics) shape re-fetches one cached entry
    -- ``T(0, y)`` then ``T(3, y)`` is a warm hit, not a recompile
    (``repro.core.query.Engine`` additionally memoizes the constructed
    ``DatalogProgram`` per shape).
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CompiledProgram] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def fetch(self, program: Any) -> tuple[CompiledProgram, bool]:
        """(compiled, was_hit) for a program."""
        fingerprint = program_fingerprint(program.rules)
        schema = tuple(sorted(program.arities.items()))
        key = (fingerprint, schema, id(program.theory))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, True
            self.misses += 1
        compiled = CompiledProgram(program, fingerprint)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing, False
            self._entries[key] = compiled
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return compiled, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


#: the process-wide plan cache (the server's prepared-query store rides on
#: this); tests and the cold-path microbench reset it via ``clear()``
PLAN_CACHE = PlanCache()


# ------------------------------------------------------------ plan rendering
def render_plan(
    program: Any, rule: Any, world: "GeneralizedDatabase" | None = None
) -> str:
    """Pretty-print the lowered IR for ``rule`` in :meth:`CompiledRule.join_order`.

    Uses the live database's relation sizes when given (the planner's
    deterministic tie-break order depends on them); unknown relations count
    as empty, matching a first evaluation round.
    """
    compiled = CompiledRule(rule, program.theory)
    positives = compiled.positives
    sizes = []
    for atom in positives:
        if world is not None and atom.name in world:
            sizes.append(len(world.relation(atom.name)))
        else:
            sizes.append(0)
    _variant, ir = compiled._lower(None, compiled.join_order(sizes))
    lines = [ir.render()]
    lines.append(
        "sizes: "
        + (
            ", ".join(
                f"{atom.name}={size}" for atom, size in zip(positives, sizes)
            )
            or "-"
        )
    )
    return "\n".join(lines)
