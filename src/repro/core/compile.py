"""Rule compilation: planned rules lowered to specialized closures.

The PR 5 engine *interprets* each planned rule: every join level re-decides,
per candidate tuple, which access path to use, whether the pin filter
applies, and which generic :class:`~repro.constraints.base.ConstraintTheory`
entry points to call.  That per-tuple dispatch is pure overhead for the
workloads the paper's closed-form results describe (Section 1.3: fixed
programs evaluate in PTIME data complexity, so the per-tuple work should be
a constant decided once per rule, not re-derived per tuple).

This module lowers each (rule, delta slot, join order) triple into a chain
of specialized Python closures -- one step per positive body atom plus a
leaf -- with the decisions baked in at lowering time:

* the join order (the PR 5 greedy planner's, verbatim -- see
  :func:`plan_order`, shared with the interpreter so both paths enumerate
  candidates identically);
* the access path per step (index probe against the
  :class:`~repro.indexing.pool.JoinIndexPool` vs. renamed scan list), with
  probe results memoized per relation content version;
* the pinned-constant filter, when :class:`EngineOptions` enables it;
* the delta-restriction slot of the semi-naive rounds;
* theory-specific satisfiability/canonicalization fast paths: a candidate
  tuple whose constraint is a conjunction of ``var = const`` pins (the
  overwhelmingly common shape for the dense-order and equality theories --
  every ``add_point`` tuple) extends the join by a dictionary merge instead
  of a solver call, and a completed all-pins match emits the head tuple
  directly instead of running quantifier elimination.

**Equivalence contract.**  The compiled path must produce fixpoints
element-for-element identical to the interpreter, and must consume the
execution supervisor's budget at identical tick counts.  Both follow from
one invariant: the compiled chain enumerates exactly the same candidate
entries in the same order as the interpreted join (same plan, same probe
decisions, same scan lists) and derives the same conjunctions -- the fast
paths only replace *how* a decision is computed, never *which* candidates
are visited:

* a conjunction of consistent ``var = const`` pins over the dense-order or
  equality theory is satisfiable iff no variable is pinned to two distinct
  constants -- exactly the dictionary-merge check (both theories are
  pointwise: a ground pin set denotes the single point it spells);
* eliminating the dropped variables from such a conjunction yields exactly
  one conjunction, equivalent to the head variables' pins; the engine's
  dedup (:meth:`GeneralizedRelation.add_canonical`) canonicalizes both
  spellings to the same stored form, because both theories' canonical forms
  are determined by the solution set alone.

Compiled programs are cached in the module-level :data:`PLAN_CACHE`, keyed
by ``(program fingerprint, schema, EngineOptions, theory identity)`` --
repeated ``evaluate()`` calls (the prepared-query pattern) skip planning
and lowering entirely.  A fingerprint re-fetched under *different* options
invalidates the stale entry: closures specialized for one flag set must
never serve another (the stale-closure hazard).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core.calculus import relation_complement_dnf
from repro.core.generalized import GeneralizedTuple
from repro.logic.syntax import Atom, RelationAtom
from repro.runtime.budget import tick
from repro.runtime.chaos import unwrap_theory

if TYPE_CHECKING:  # imported for annotations only: datalog imports us
    from repro.constraints.base import ConstraintTheory
    from repro.core.datalog import EngineOptions, EvaluationStats, Rule
    from repro.core.generalized import GeneralizedDatabase, GeneralizedRelation

#: entry kinds decided once per (tuple, body atom) pair at lowering time
POINT = 0  #: every atom is a ``var = const`` pin (pointwise theories only)
GENERAL = 1  #: anything else -- the generic solver path handles it

#: a classified join candidate: (renamed atoms, pin map, kind)
EntryRecord = tuple[tuple[Atom, ...], dict[str, Any], int]

#: sentinel distinguishing "handle not yet resolved" from "pool declined"
#: (a declined resolution is cached as None so it is not retried per entry)
_UNRESOLVED = object()


# --------------------------------------------------------------------- planner
def plan_order(
    arg_lists: Sequence[Sequence[str]],
    sizes: Sequence[int],
    pinned: set[str],
) -> list[int]:
    """The PR 5 greedy selectivity order, shared by both evaluation paths.

    Descending connectivity with the already-bound variable set, ties broken
    toward the smaller source and then the original position.  The compiled
    path re-plans per (rule, round) exactly like the interpreter -- sizes
    change between rounds -- so both paths enumerate identical candidate
    sequences (the equivalence contract of this module).
    """
    n = len(arg_lists)
    bound = set(pinned)
    remaining = list(range(n))
    order: list[int] = []
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
    """One lowered join step (a positive body atom in plan order)."""

    slot: int  #: position in the lowered chain
    position: int  #: original index among the rule's positive atoms
    atom: str  #: the body atom, e.g. ``T(x, z)``
    source: str  #: ``"delta"`` or ``"relation"``
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
    leaf: str  #: ``"point-emit (...)"`` or ``"eliminate drop=(...)"``
    negated: tuple[str, ...]

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
        for name in self.negated:
            lines.append(f"  negation: complement({name}) expanded at the leaf")
        lines.append(f"leaf: {self.leaf}")
        return "\n".join(lines)


# ------------------------------------------------------------- classification
def _pointwise(theory: "ConstraintTheory") -> bool:
    """Whether ground pin conjunctions denote single points exactly.

    Only the dense-order and equality theories qualify: their canonical
    forms are determined by the solution set, and a consistent set of
    ``var = const`` pins is satisfiable by the point it spells.  The
    boolean and real-polynomial theories always take the generic path.
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


# ----------------------------------------------------------- shared utilities
def _expand_negations(
    negated_dnfs: list[list[tuple[Atom, ...]]]
) -> Iterator[tuple[Atom, ...]]:
    """Cartesian expansion of the negated atoms' complement DNFs.

    Verbatim the interpreter's expansion so compiled and interpreted leaf
    firings see identical branch sequences (and identical counters).
    """
    if not negated_dnfs:
        yield ()
        return
    for combo in itertools.product(*negated_dnfs):
        merged: tuple[Atom, ...] = ()
        for part in combo:
            merged = merged + part
        yield merged


def _complement_dnf(
    atom: RelationAtom,
    relation: "GeneralizedRelation",
    caches: Any,
    stats: "EvaluationStats",
    theory: "ConstraintTheory",
) -> list[tuple[Atom, ...]]:
    """Complement DNF of a negated atom via the shared per-version cache.

    Same cache dict and same keys as ``DatalogProgram._complement``, so the
    interpreted and compiled paths share one complement per content version.
    """
    if caches.complement is None:
        return relation_complement_dnf(relation, atom.args, theory)
    key = (atom.name, atom.args, relation.version)
    cached = caches.complement.get(key)
    if cached is None:
        cached = relation_complement_dnf(relation, atom.args, theory)
        caches.complement[key] = cached
        stats.complement_cache_misses += 1
    else:
        stats.complement_cache_hits += 1
    return cached


# ------------------------------------------------------------- firing state
class _FiringState:
    """Mutable per-firing context threaded through a variant's closures."""

    __slots__ = (
        "stats",
        "caches",
        "pool",
        "results",
        "relations",
        "delta_lists",
        "scan_lists",
        "negated_dnfs",
        "probe_handles",
    )

    def __init__(
        self,
        stats: "EvaluationStats",
        caches: Any,
        relations: list,
        delta_lists: list,
        negated_dnfs: list,
    ) -> None:
        self.stats = stats
        self.caches = caches
        self.pool = caches.pool
        self.results: list[tuple[str, GeneralizedTuple]] = []
        self.relations = relations  # per slot: GeneralizedRelation | None
        self.delta_lists = delta_lists  # per slot: list of delta tuples | None
        self.scan_lists: list[list[EntryRecord] | None] = [None] * len(relations)
        self.negated_dnfs = negated_dnfs
        #: (slot, attribute position) -> resolved IndexProbeHandle | None,
        #: so a join step pays the pool's dict lookup once per firing
        #: instead of once per candidate entry
        self.probe_handles: dict[tuple[int, int], Any] = {}


# ------------------------------------------------------------- compiled rule
class CompiledRule:
    """One rule's lowered variants, keyed by (delta slot, join order).

    Lowering happens lazily on the first firing that needs a variant (the
    planner's order depends on the round's relation sizes, so the variant
    set is discovered during evaluation) and is cached for the lifetime of
    the compiled program -- across rounds *and* across ``evaluate()`` calls
    when the :data:`PLAN_CACHE` serves the program again.
    """

    def __init__(
        self,
        rule: "Rule",
        theory: "ConstraintTheory",
        options: "EngineOptions",
    ) -> None:
        self.rule = rule
        self.theory = theory
        self.options = options
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
        #: shared, never-mutated root dicts (children merge into fresh dicts)
        self._root_fpins: dict[str, Any] | None = (
            self.root_pin_map if options.pin_filter else None
        )
        self._root_ppins: dict[str, Any] | None = (
            self.root_pin_map if self.root_kind == POINT else None
        )
        self._variants: dict[tuple[int | None, tuple[int, ...]], Any] = {}
        self._irs: dict[tuple[int | None, tuple[int, ...]], RuleIR] = {}
        self._lock = threading.Lock()
        #: memoized root satisfiability (generic roots re-check per firing
        #: in the interpreter; the answer is a pure function of the rule)
        self._root_ctx: Any = None
        self._root_sat: bool | None = None

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

        Mirrors the interpreter's rename cache (same ablation flag, same
        hit/miss counters): the cached entry keeps the tuple reference so
        ``id`` stays a valid key, and records are pure functions of the
        (tuple, target args) pair.
        """
        if caches.centries is None:
            return [self._record(t, atom.args) for t in source]
        per_atom = caches.centries.setdefault((atom.name, atom.args), {})
        records: list[EntryRecord] = []
        for t in source:
            entry = per_atom.get(id(t))
            if entry is None:
                record = self._record(t, atom.args)
                per_atom[id(t)] = (t, record)
                stats.rename_cache_misses += 1
            else:
                record = entry[1]
                stats.rename_cache_hits += 1
            records.append(record)
        return records

    # ---------------------------------------------------------------- firing
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
        n = len(positives)
        if self.options.join_planner and n > 1:
            stats.plans_built += 1
            order = plan_order(
                [a.args for a in positives], sizes, set(self.root_pin_map)
            )
            if order != sorted(order):
                stats.plan_reorders += 1
        else:
            order = list(range(n))
        variant = self._variant(
            delta_position if delta is not None else None, tuple(order), stats
        )
        negated_dnfs = [
            _complement_dnf(atom, world.relation(atom.name), caches, stats, self.theory)
            for atom in self.negated
        ]
        state = _FiringState(
            stats,
            caches,
            [relations[i] for i in order],
            [
                delta_source if relations[i] is None and delta is not None else None
                for i in order
            ],
            negated_dnfs,
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
                variant, ir = self._lower(delta_position, order)
                self._variants[key] = variant
                self._irs[key] = ir
                stats.compiled_rules += 1
                stats.compile_seconds += perf_counter() - started
        return variant

    def ir(
        self, delta_position: int | None, order: tuple[int, ...]
    ) -> RuleIR:
        """The lowered IR for a variant (lowering it on demand)."""
        key = (delta_position, order)
        if key not in self._irs:
            with self._lock:
                if key not in self._irs:
                    variant, ir = self._lower(delta_position, order)
                    self._variants[key] = variant
                    self._irs[key] = ir
        return self._irs[key]

    # -------------------------------------------------------------- lowering
    def _lower(
        self, delta_position: int | None, order: tuple[int, ...]
    ) -> tuple[Callable[[_FiringState], None], RuleIR]:
        """Emit the closure chain for one (delta slot, join order) variant.

        One closure per positive atom plus a leaf, composed back-to-front;
        every per-candidate decision that depends only on (rule, options,
        plan) is resolved here, once.
        """
        theory = self.theory
        options = self.options
        incremental = options.incremental_join
        plan_atoms = [self.positives[i] for i in order]
        constraints = self.constraints
        head_name = self.head_name
        head_vars = self.head_vars
        drop = self.drop
        make_equality = theory.equality
        make_constant = theory.constant

        # ------------------------------------------------------------- leaf
        point_leaf = (
            self.pointwise and not self.negated
        )  # negation needs the generic complement expansion

        if self.negated:

            def leaf(
                state: _FiringState,
                atoms: tuple[Atom, ...],
                ppins: dict[str, Any] | None,
                solver: Any,
                fpins: dict[str, Any] | None,
            ) -> None:
                stats = state.stats
                results = state.results
                for negated in _expand_negations(state.negated_dnfs):
                    stats.rule_firings += 1
                    conjunction = atoms + negated
                    if negated:
                        stats.sat_checks += 1
                        if not theory.is_satisfiable(conjunction):
                            stats.join_prunes += 1
                            continue
                    for eliminated in theory.eliminate(conjunction, drop):
                        stats.tuples_derived += 1
                        results.append(
                            (head_name, GeneralizedTuple(head_vars, eliminated))
                        )

        else:

            def leaf(
                state: _FiringState,
                atoms: tuple[Atom, ...],
                ppins: dict[str, Any] | None,
                solver: Any,
                fpins: dict[str, Any] | None,
            ) -> None:
                stats = state.stats
                stats.rule_firings += 1
                if ppins is not None and point_leaf:
                    # all-pins match: elimination of the dropped variables
                    # from a consistent ground pin set is exactly the head
                    # variables' pins (one conjunction -- see module doc);
                    # add_canonical folds both spellings to the same form
                    stats.fastpath_leaves += 1
                    stats.tuples_derived += 1
                    emitted = tuple(
                        make_equality(v, make_constant(ppins[v]))
                        for v in head_vars
                        if v in ppins
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
        def make_step(
            slot: int, next_call: Callable[..., None]
        ) -> Callable[..., None]:
            atom = plan_atoms[slot]
            args = atom.args
            nargs = tuple(enumerate(args))
            scan_key = (atom.name, args)
            compiled_rule = self

            def probe_records(
                state: _FiringState,
                ppins: dict[str, Any] | None,
                solver: Any,
                fpins: dict[str, Any] | None,
            ) -> list[EntryRecord] | None:
                """Index-backed candidates, or None to scan.

                Decision-for-decision the interpreter's ``probe_entries``:
                an exact pin wins, else the incremental context's interval
                bounds; in point mode the context's bounds *are* the pins
                (a ground closure bounds a pinned variable to its constant
                and nothing else), so the dict lookup replaces the solver
                query without changing the outcome.
                """
                relation = state.relations[slot]
                if relation is None or not relation:
                    return None
                stats = state.stats
                best = None
                if fpins is not None:
                    for position, var in nargs:
                        value = fpins.get(var)
                        if isinstance(value, Fraction):
                            best = (position, value, value)
                            break
                if best is None and incremental:
                    if ppins is not None:
                        if fpins is None:
                            for position, var in nargs:
                                value = ppins.get(var)
                                if isinstance(value, Fraction):
                                    best = (position, value, value)
                                    break
                        # fpins already covered the same pins: nothing new
                    elif solver is not None:
                        for position, var in nargs:
                            bounds = theory.conjunction_bounds(solver, var)
                            if bounds is not None:
                                best = (position, bounds[0], bounds[1])
                                break
                if best is None:
                    return None
                position, low, high = best
                cprobe = state.caches.cprobe
                pkey = (atom.name, args, position, relation.version, low, high)
                hit = cprobe.get(pkey) if cprobe is not None else None
                if hit is not None:
                    records, n_candidates, n_relation = hit
                    if records is None:
                        return None
                    stats.index_probes += 1
                    stats.index_candidates += n_candidates
                    stats.index_scan_avoided += n_relation - n_candidates
                    return records
                hkey = (slot, position)
                handle = state.probe_handles.get(hkey, _UNRESOLVED)
                if handle is _UNRESOLVED:
                    handle = state.pool.handle(
                        relation, relation.variables[position]
                    )
                    state.probe_handles[hkey] = handle
                candidates = None if handle is None else handle.probe(low, high)
                if candidates is None:
                    if cprobe is not None:
                        cprobe[pkey] = (None, 0, 0)
                    return None
                records = compiled_rule._records_for(
                    atom, candidates, state.caches, stats
                )
                if cprobe is not None:
                    cprobe[pkey] = (records, len(candidates), len(relation))
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
                    cached = (
                        cscan.get(scan_key) if cscan is not None else None
                    )
                    if cached is not None and cached[0] == relation.version:
                        records = cached[1]
                    else:
                        records = compiled_rule._records_for(
                            atom, relation, state.caches, state.stats
                        )
                        if cscan is not None:
                            cscan[scan_key] = (relation.version, records)
                state.scan_lists[slot] = records
                return records

            def step(
                state: _FiringState,
                atoms: tuple[Atom, ...],
                ppins: dict[str, Any] | None,
                solver: Any,
                fpins: dict[str, Any] | None,
            ) -> None:
                stats = state.stats
                entries = None
                if state.pool is not None:
                    entries = probe_records(state, ppins, solver, fpins)
                if entries is None:
                    entries = scan_records(state)
                for renamed, cpins, kind in entries:
                    stats.join_steps += 1
                    tick("join")
                    if fpins is not None and cpins:
                        conflict = False
                        for var, value in cpins.items():
                            if fpins.get(var, value) != value:
                                conflict = True
                                break
                        if conflict:
                            stats.pin_prunes += 1
                            stats.join_prunes += 1
                            continue
                        child_fpins = {**fpins, **cpins}
                    else:
                        child_fpins = fpins
                    if ppins is not None and kind == POINT:
                        # pointwise extension: satisfiability of a ground
                        # pin set is pin consistency, so the solver is
                        # skipped outright -- same accept/reject outcome,
                        # same candidate enumeration, cheaper decision
                        if child_fpins is not None:
                            child_ppins = child_fpins
                        else:
                            consistent = True
                            for var, value in cpins.items():
                                if ppins.get(var, value) != value:
                                    consistent = False
                                    break
                            if not consistent:
                                stats.join_prunes += 1
                                continue
                            child_ppins = {**ppins, **cpins} if cpins else ppins
                        next_call(
                            state, atoms + renamed, child_ppins, None, child_fpins
                        )
                        continue
                    if incremental:
                        if solver is None:
                            # leaving point mode: build the context for the
                            # concatenation directly (equivalent to extending
                            # a context over ``atoms`` -- the incremental
                            # closure matches the from-scratch one)
                            child = theory.begin_conjunction(atoms + renamed)
                        else:
                            child = theory.extend_conjunction(solver, renamed)
                        stats.closure_extensions += 1
                        if not child.satisfiable:
                            stats.join_prunes += 1
                            continue
                        next_call(state, child.atoms, None, child, child_fpins)
                    else:
                        candidate = atoms + renamed
                        stats.sat_checks += 1
                        if not theory.is_satisfiable(candidate):
                            stats.join_prunes += 1
                            continue
                        next_call(state, candidate, None, None, child_fpins)

            return step

        chain: Callable[..., None] = leaf
        for slot in range(len(plan_atoms) - 1, -1, -1):
            chain = make_step(slot, chain)

        # -------------------------------------------------------------- root
        root_fpins = self._root_fpins
        root_ppins = self._root_ppins
        root_point = self.root_kind == POINT

        def run(state: _FiringState) -> None:
            state.stats.sat_checks += 1
            if root_point:
                chain(state, constraints, root_ppins, None, root_fpins)
                return
            if incremental:
                ctx = self._root_ctx
                if ctx is None:
                    ctx = theory.begin_conjunction(constraints)
                    self._root_ctx = ctx
                if ctx.satisfiable:
                    chain(state, constraints, None, ctx, root_fpins)
            else:
                sat = self._root_sat
                if sat is None:
                    sat = theory.is_satisfiable(constraints)
                    self._root_sat = sat
                if sat:
                    chain(state, constraints, None, None, root_fpins)

        # ----------------------------------------------------------------- IR
        bound: set[str] = set(self.root_pin_map)
        steps = []
        for slot, atom in enumerate(plan_atoms):
            position = order[slot]
            is_delta = delta_position is not None and position == delta_position
            probeable = (
                not is_delta
                and options.index_probes
                and isinstance(unwrap_theory(theory), DenseOrderTheory)
            )
            steps.append(
                StepIR(
                    slot=slot,
                    position=position,
                    atom=str(atom),
                    source="delta" if is_delta else "relation",
                    access="probe-or-scan" if probeable else "scan",
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
        if point_leaf:
            leaf_desc = (
                f"point-emit {tuple(head_vars)} when all pins ground, "
                f"else eliminate drop={tuple(drop)}"
            )
        else:
            leaf_desc = f"eliminate drop={tuple(drop)}"
        ir = RuleIR(
            rule=str(self.rule),
            order=order,
            delta_position=delta_position,
            root=root_desc,
            steps=tuple(steps),
            leaf=leaf_desc,
            negated=tuple(a.name for a in self.negated),
        )
        return run, ir


# ---------------------------------------------------------- compiled program
class CompiledProgram:
    """All of a program's compiled rules, plus the lookup the engine uses.

    Rules are keyed by their string form (the same spelling the cache
    fingerprint uses): a *different* ``DatalogProgram`` object with the
    same rules -- the prepared-query pattern of re-parsing and re-running
    -- still resolves to the already-lowered closures.  An ``id``-keyed
    side table makes the per-firing lookup a dict hit.
    """

    def __init__(self, program: Any) -> None:
        self.theory = program.theory
        self.options = program.options
        self.rules = list(program.rules)
        self.arities = dict(program.arities)
        self._by_str: dict[str, CompiledRule] = {}
        for rule in self.rules:
            text = str(rule)
            if text not in self._by_str:
                self._by_str[text] = CompiledRule(rule, self.theory, self.options)
        self._by_id: dict[int, CompiledRule] = {
            id(rule): self._by_str[str(rule)] for rule in self.rules
        }

        #: foreign rule objects registered in _by_id, kept alive so their
        #: ids stay valid keys
        self._pinned: list[Any] = []

    def compiled_for(self, rule: Any) -> CompiledRule | None:
        compiled = self._by_id.get(id(rule))
        if compiled is None:
            compiled = self._by_str.get(str(rule))
            if compiled is not None:
                self._pinned.append(rule)
                self._by_id[id(rule)] = compiled
        return compiled

    def fire(
        self,
        rule: Any,
        world: "GeneralizedDatabase",
        stats: "EvaluationStats",
        caches: Any,
        delta: dict[str, list[GeneralizedTuple]] | None,
        delta_position: int | None,
    ) -> list[tuple[str, GeneralizedTuple]] | None:
        """Compiled firing, or None when the rule is unknown (caller
        falls back to the interpreter -- defensive, not expected)."""
        compiled = self.compiled_for(rule)
        if compiled is None:
            return None
        return compiled.fire(world, stats, caches, delta, delta_position)

    def variants_lowered(self) -> int:
        return sum(len(r._variants) for r in self._by_str.values())


# ------------------------------------------------------------------ the cache
def program_fingerprint(rules: Sequence[Any]) -> tuple[str, ...]:
    """The cache's program identity: the rules' deterministic string forms."""
    return tuple(str(rule) for rule in rules)


class PlanCache:
    """Bounded LRU of :class:`CompiledProgram` keyed by program identity.

    The key is ``(fingerprint, schema, theory identity, options)``:

    * the *fingerprint* (rule strings) and *schema* (predicate arities) pin
      the logical program -- editing a rule changes its string, so a
      recompile is forced;
    * the *theory identity* (``id``) pins the solver instance -- compiled
      closures capture the theory object (its caches, its chaos wrapper),
      so a different instance must never share closures; every cached
      entry holds a strong reference to its theory, keeping the id valid;
    * the *options* signature pins the specialization -- closures bake in
      ``pin_filter``/``incremental_join``/``index_probes`` decisions, so a
      fingerprint re-fetched under different options *invalidates* the
      stale entry (counted, surfaced through ``EvaluationStats``).

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
        self._options_seen: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def fetch(self, program: Any) -> tuple[CompiledProgram, bool, bool]:
        """(compiled, was_hit, invalidated_stale_entry) for a program."""
        fingerprint = program_fingerprint(program.rules)
        schema = tuple(sorted(program.arities.items()))
        options_sig = tuple(sorted(program.options.as_dict().items()))
        base = (fingerprint, schema, id(program.theory))
        key = base + (options_sig,)
        with self._lock:
            seen = self._options_seen.get(base)
            invalidated = seen is not None and seen != options_sig
            if invalidated:
                self.invalidations += 1
                self._entries.pop(base + (seen,), None)
            self._options_seen[base] = options_sig
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, True, invalidated
            self.misses += 1
        compiled = CompiledProgram(program)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing, False, invalidated
            self._entries[key] = compiled
            while len(self._entries) > self.maxsize:
                evicted, _ = self._entries.popitem(last=False)
                self._options_seen.pop(evicted[:3], None)
        return compiled, False, invalidated

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._options_seen.clear()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }


#: the process-wide plan cache (the server's prepared-query store rides on
#: this); tests and the cold-path microbench reset it via ``clear()``
PLAN_CACHE = PlanCache()


# ------------------------------------------------------------ plan rendering
def render_plan(
    program: Any, rule: Any, world: "GeneralizedDatabase" | None = None
) -> str:
    """Pretty-print the lowered IR for ``rule`` under ``program``'s options.

    Uses the live database's relation sizes when given (the planner's
    deterministic tie-break order depends on them); unknown relations count
    as empty, matching a first evaluation round.
    """
    compiled = CompiledRule(rule, program.theory, program.options)
    positives = tuple(rule.positive_atoms)
    sizes = []
    for atom in positives:
        if world is not None and atom.name in world:
            sizes.append(len(world.relation(atom.name)))
        else:
            sizes.append(0)
    if program.options.join_planner and len(positives) > 1:
        order = tuple(
            plan_order(
                [a.args for a in positives], sizes, set(compiled.root_pin_map)
            )
        )
    else:
        order = tuple(range(len(positives)))
    ir = compiled.ir(None, order)
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
