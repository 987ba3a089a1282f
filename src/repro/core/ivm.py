"""Incremental view maintenance: live fixpoints under insert/retract deltas.

The paper's evaluation machinery (Sections 1-3) recomputes every fixpoint
from scratch.  A :class:`MaterializedView` instead registers a program's
derived relations once and then *maintains* them under ``insert``/``retract``
deltas of generalized tuples on the EDB relations, in time proportional to
the change rather than the database:

* **DRed (delete-rederive)** for every *monotone* stratum -- no negation
  and at most ``_EXPANSION_CAP`` positive body atoms per rule -- recursive
  or not.  Over-deletion marks everything with a derivation through a
  deleted tuple, semi-naive through the stratum's *delta-expansion rules*:
  for each rule and each non-empty subset ``T`` of its positive body
  positions, a rewritten rule draws the positions in ``T`` from the delta
  relation and the rest from the pre-change content, and each round's
  own-predicate delta is what the round before marked.  Re-derivation
  then fires, at most once each, the rules whose head has a marked tuple
  or that read this batch's insertions, with one body atom cut down to the
  tuples whose pins agree with the marked tuples' or that were inserted,
  and propagates semi-naive.  A batch that marks nothing applies its
  insertions as a standard semi-naive continuation;
* **stratum recomputation** for strata with negation (a complement's delta
  has no useful relationship to the relation's delta) and for rule bodies
  too wide for the expansion (> ``_EXPANSION_CAP`` positive atoms);
* **full recomputation** for inflationary/non-stratifiable programs, whose
  semantics is not monotone in the EDB -- the view keeps its API, but its
  one stratum holds every rule and each batch recomputes it (and says so
  in ``ivm_recomputed_strata``).

The strata are those of :meth:`repro.core.datalog.DatalogProgram.stratify`,
one per SCC of the IDB dependency graph, in the order from-scratch
evaluation runs them.

Everything fires through :meth:`repro.core.datalog.DatalogProgram.
_execute_round` -- the same planner, join indexes, budget ticks and
compiled closures as from-scratch evaluation; the maintenance programs are
ordinary :class:`DatalogProgram` instances cached in the process-wide plan
cache, and the per-view ``_EvalCaches`` persist across maintenance steps.
The join indexes live on the view's relations and follow every delta
(an insert queues one tuple, a retraction deletes one key), so they stay
warm across steps and are never rebuilt.  The expansion rules read the
pre-change content of a relation in place, as a view of the live relation
that hides this batch's additions (:class:`_PreChange`), so a view holds
one copy of each relation and one index per (relation, attribute).

**Canonical-form equality.**  Both the maintained and the from-scratch path
admit tuples through ``theory.canonicalize``, a deterministic function of
the atom *set*, so "maintained == scratch" is decidable as equality of the
relations' canonical key sets -- the invariant the differential conformance
strategy (``incremental``) asserts after every replayed update.

**Staleness.**  A maintenance pass that trips its budget (or dies on a
fault) mid-flight leaves relations between two fixpoints; the view is then
*tagged stale* (:attr:`MaterializedView.stale`) instead of hanging or lying.
Stale views still answer reads, refuse further deltas with
:class:`repro.errors.StaleViewError`, and recover via :meth:`refresh`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, cast

from repro.constraints.base import ConstraintTheory
from repro.constraints.dense_order import DenseOrderTheory
from repro.core.datalog import (
    DatalogProgram,
    EvaluationStats,
    Rule,
    _EvalCaches,
    _TheoryCaches,
)
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
    GeneralizedTuple,
)
from repro.errors import (
    BudgetExceededError,
    EvaluationError,
    FixpointDivergenceError,
    StaleViewError,
)
from repro.logic.syntax import Atom, RelationAtom
from repro.runtime.budget import active_meter, metered, tick
from repro.runtime.chaos import unwrap_theory

if TYPE_CHECKING:
    from repro.indexing.generalized_index import GeneralizedIndex1D

#: suffixes of the maintenance-only predicates (delta / pre-change / head)
_DELTA_SUFFIX = "__ivm_d"
_MID_SUFFIX = "__ivm_m"
_OUT_SUFFIX = "__ivm_out"
#: widest rule body the subset expansion will take on (2^n - 1 rules per
#: rule); wider strata fall back to recomputation
_EXPANSION_CAP = 6

Key = frozenset[Atom]
#: (relation name, tuple) pairs -- the public delta format
DeltaItem = tuple[str, "GeneralizedTuple | Iterable[Atom]"]


@dataclass
class _Stratum:
    """One stratum of the view's program, in dependencies-first order."""

    preds: frozenset[str]
    rules: list[Rule]
    #: maintained by re-evaluating the stratum (negation, or too-wide bodies)
    recompute: bool
    #: every relation name in rule bodies (positive and negated)
    body_preds: frozenset[str]
    #: positive body relation names only (what the expansion rewrites)
    pos_body_preds: frozenset[str]
    expansion: DatalogProgram | None = None
    caches: _EvalCaches | None = field(default=None, repr=False)


def _expansion_rules(rules: Sequence[Rule]) -> list[Rule]:
    """The delta-expansion program of a stratum's rules.

    For each rule and each non-empty subset ``T`` of its positive body
    positions: positions in ``T`` read the ``__ivm_d`` delta relation,
    positions outside read the ``__ivm_m`` pre-change relation, constraint
    atoms stay put (literal order is preserved so the head-variable
    elimination order matches the original rule exactly).  A derivation
    over (pre-change + delta) content that uses delta tuples at exactly the
    positions ``T`` fires exactly the ``T``-rule and no other, so one pass
    finds every derivation through the delta, each once -- what a round of
    over-deletion marks.
    """
    out: list[Rule] = []
    for rule in rules:
        n = len(rule.positive_atoms)
        head = RelationAtom(rule.head.name + _OUT_SUFFIX, rule.head.args)
        for mask in range(1, 2**n):
            body: list[object] = []
            position = 0
            for literal in rule.body:
                if isinstance(literal, RelationAtom):
                    suffix = (
                        _DELTA_SUFFIX if (mask >> position) & 1 else _MID_SUFFIX
                    )
                    body.append(RelationAtom(literal.name + suffix, literal.args))
                    position += 1
                else:
                    body.append(literal)
            out.append(Rule(head, tuple(body)))
    return out


class _PreChange:
    """``X__ivm_m``: the live relation ``X`` read in place, minus ``A_X``.

    ``A_X`` is what this batch has added to ``X`` so far.  The view offers
    what the compiled join reads of a relation -- ``variables``,
    ``version``, ``len``, iteration and ``index(attribute).candidates`` --
    and answers from the live relation and the live relation's own
    indexes, skipping the hidden tuples.  Scans list the live order
    without them; a probe lists the live index's candidates without them,
    which is the order an index built fresh over the remaining content
    would list (by key, then insertion order).  Tuples are hidden by
    identity: they are the objects the live relation stored, and the
    step's ``adds`` lists keep them alive while a stratum fires.
    """

    __slots__ = ("name", "live", "variables", "_hidden", "_step")

    def __init__(self, name: str, live: GeneralizedRelation) -> None:
        self.name = name
        self.live = live
        self.variables = live.variables
        self._hidden: frozenset[int] = frozenset()
        self._step = 0

    def hide(self, items: Iterable[GeneralizedTuple]) -> None:
        """Hide exactly ``items``, tuples stored in the live relation."""
        self._hidden = frozenset(id(item) for item in items)
        self._step += 1

    @property
    def version(self) -> tuple[int, int]:
        """Changes with the live content and with every :meth:`hide`."""
        return (self.live.version, self._step)

    def __len__(self) -> int:
        return len(self.live) - len(self._hidden)

    def __iter__(self) -> Iterator[GeneralizedTuple]:
        hidden = self._hidden
        return (item for item in self.live if id(item) not in hidden)

    def index(self, attribute: str) -> "_PreChangeIndex":
        return _PreChangeIndex(self.live.index(attribute), self._hidden)


class _PreChangeIndex:
    """A live relation's index on one attribute, hiding a set of tuples."""

    __slots__ = ("_index", "_hidden")

    def __init__(self, index: "GeneralizedIndex1D", hidden: frozenset[int]) -> None:
        self._index = index
        self._hidden = hidden

    def candidates(
        self, low: Fraction | None, high: Fraction | None
    ) -> list[GeneralizedTuple]:
        hidden = self._hidden
        return [
            item
            for item in self._index.candidates(low, high)
            if id(item) not in hidden
        ]


class MaterializedView:
    """A program's derived relations, maintained live under EDB deltas.

    ``semantics`` mirrors :meth:`DatalogProgram.evaluate` and selects the
    from-scratch semantics the view stays equal to.  For positive and
    stratifiable programs maintenance is incremental (DRed, or recomputing
    a stratum with negation); inflationary/non-stratifiable programs fall
    back to per-batch recomputation behind the same API.

    The view owns its world: it copies the input database once, at
    construction, because deltas write its EDB relations (evaluation
    itself only reads them); reads go through :meth:`relation`.  Deltas
    target EDB relations only -- derived relations change exclusively
    through maintenance.  Close the view (or use it as a context manager)
    to drop its persistent caches.
    """

    def __init__(
        self,
        program: DatalogProgram,
        database: GeneralizedDatabase,
        *,
        semantics: str = "auto",
        max_iterations: int = 100_000,
    ) -> None:
        self.program = program
        self.theory: ConstraintTheory = program.theory
        self.semantics = semantics
        self.max_iterations = max_iterations
        self.stale = False
        self.stale_reason: str | None = None
        self.total_stats = EvaluationStats()
        self.last_stats = EvaluationStats()
        self._idbs = program.idb_predicates()
        for name in sorted(self._idbs):
            if name in database and len(database.relation(name)):
                raise EvaluationError(
                    f"cannot materialize {name!r}: it is derived by rules but "
                    "the database already holds facts for it"
                )
        for rule in program.rules:
            for atom in [rule.head] + rule.positive_atoms + rule.negative_atoms:
                if _DELTA_SUFFIX in atom.name or _MID_SUFFIX in atom.name:
                    raise EvaluationError(
                        f"predicate {atom.name!r} collides with the "
                        "maintenance namespace"
                    )
        #: maintenance options: analysis ran (or not) at program construction,
        #: and the ambient meter installed by ``apply`` covers the budget, so
        #: sub-programs must not restart their own.  The semantic optimizer
        #: is forced off for the internal delta/expansion programs: their
        #: rules come from the program's, which it has already minimized
        #: when on, and each expansion variant of a rule reads its own mix
        #: of delta and pre-change relations, so its containment checks
        #: would cost registration time and remove nothing.
        self._opts = replace(
            program.options,
            analyze=False,
            budget=None,
            optimize_semantic=False,
        )
        self._mode: str
        self._strata = self._compute_strata()
        self._sub_programs: dict[int, DatalogProgram] = {}
        #: the expansion programs' world: the ``X__ivm_m`` views and the
        #: ``X__ivm_d`` delta relations, bound by ``_init_runtime``
        self._mworld = GeneralizedDatabase(self.theory)
        self._mid_view: dict[str, _PreChange] = {}
        self._delta_rel: dict[str, GeneralizedRelation] = {}
        self._caches: _EvalCaches | None = None
        self.world: GeneralizedDatabase
        with metered(None):
            owned = database.copy()
        self._materialize(owned)

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "MaterializedView":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Drop the view's persistent evaluation caches."""
        self._caches = None
        for stratum in self._strata:
            stratum.caches = None

    def _mark_stale(self, reason: str) -> None:
        self.stale = True
        self.stale_reason = reason

    # ----------------------------------------------------------------- reads
    def relation(self, name: str) -> GeneralizedRelation:
        """The current (possibly stale-tagged) content of a relation."""
        return self.world.relation(name)

    def fingerprint(self) -> dict[str, frozenset[Key]]:
        """Canonical key sets per relation -- the view's identity as sets.

        Canonicalization is a deterministic function of each tuple's atom
        set, so two worlds are canonically equal iff their fingerprints are
        equal; the differential tests compare these.
        """
        return {
            name: frozenset(self.world.relation(name).keys())
            for name in self.world.names()
        }

    @property
    def mode(self) -> str:
        """``"incremental"`` (stratum by stratum) or ``"recompute"`` (one
        stratum of every rule, recomputed per batch)."""
        return self._mode

    # ---------------------------------------------------------------- deltas
    def insert(self, name: str, item: GeneralizedTuple | Iterable[Atom]) -> EvaluationStats:
        """Insert one generalized tuple into an EDB relation and maintain."""
        return self.apply(inserts=[(name, item)])

    def retract(self, name: str, item: GeneralizedTuple | Iterable[Atom]) -> EvaluationStats:
        """Retract one generalized tuple from an EDB relation and maintain."""
        return self.apply(retracts=[(name, item)])

    def apply(
        self,
        inserts: Iterable[DeltaItem] = (),
        retracts: Iterable[DeltaItem] = (),
    ) -> EvaluationStats:
        """Apply a batch of EDB deltas and maintain every derived relation.

        Batch semantics: retracts land before inserts, so retract+insert of
        the same tuple in one batch is a net no-op.  No-op deltas (retract
        of an absent tuple, insert of a present one) cost nothing.  Raises
        :class:`StaleViewError` if the view is stale; a budget trip inside
        maintenance tags the view stale and degrades per the budget's
        ``partial_results`` mode (fringe: return tagged stats; raise:
        propagate after tagging).
        """
        if self.stale:
            raise StaleViewError(
                f"view is stale ({self.stale_reason}); call refresh() first"
            )
        stats = EvaluationStats()
        stats.ivm_steps = 1
        started = time.perf_counter()
        budget = self.program.options.budget
        meter = budget.start() if budget is not None else active_meter()
        # measured over the whole call, once: the recompute paths' inner
        # evaluate() traffic is part of this delta, not added on top
        caches = _TheoryCaches((self.theory, self.world.theory))
        try:
            with metered(meter):
                self._apply_inner(list(inserts), list(retracts), stats)
        except BudgetExceededError as error:
            caches.record(stats)
            self._mark_stale(f"budget exceeded mid-maintenance: {error}")
            stats.incomplete = True
            report = getattr(error, "report", None)
            stats.budget = report.as_dict() if report is not None else {}
            stats.ivm_maintain_seconds = time.perf_counter() - started
            self._finish(stats)
            mode = meter.budget.partial_results if meter is not None else "raise"
            if mode != "fringe":
                raise
            return stats
        except Exception as error:
            self._mark_stale(f"fault mid-maintenance: {error}")
            raise
        caches.record(stats)
        stats.ivm_maintain_seconds = time.perf_counter() - started
        self._finish(stats)
        return stats

    def refresh(self) -> EvaluationStats:
        """Rebuild the view from the current EDB content, clearing staleness."""
        base = self._edb_database()
        try:
            return self._materialize(base)
        except BudgetExceededError:
            self._mark_stale("budget exceeded during refresh")
            raise

    def edb_database(self) -> GeneralizedDatabase:
        """A database *sharing* the view's live EDB relation objects.

        The demand-driven query path (:mod:`repro.core.query`) evaluates
        bound queries against this database: because the relation objects
        are shared, every maintained delta bumps their monotone ``version``
        counters in place, which is exactly the invalidation signal the
        query-result reuse cache snapshots (:attr:`delta_version`), and the
        join indexes built on them serve every later query.
        :meth:`refresh` keeps the EDB relation objects (evaluation shares
        them into the rebuilt world) and replaces only the derived ones.
        """
        return self._edb_database()

    @property
    def delta_version(self) -> int:
        """Monotone counter over every live EDB relation's mutation version.

        Strictly increases whenever any maintained delta (insert *or*
        retract) lands, so equality of two snapshots certifies the EDB --
        and hence every cached query answer over it -- is unchanged.
        """
        return sum(
            self.world.relation(name).version
            for name in self.world.names()
            if name not in self._idbs
        )

    # ------------------------------------------------------------- internals
    def _accumulate(self, stats: EvaluationStats) -> None:
        self.total_stats.merge(stats)
        self.total_stats.iterations += stats.iterations
        self.total_stats.tuples_added += stats.tuples_added
        self.total_stats.incomplete = self.total_stats.incomplete or stats.incomplete

    def _finish(self, stats: EvaluationStats) -> None:
        self.last_stats = stats
        self._accumulate(stats)

    def _edb_database(self) -> GeneralizedDatabase:
        base = GeneralizedDatabase(self.theory)
        for name in self.world.names():
            if name not in self._idbs:
                base.add_relation(self.world.relation(name))
        return base

    def _materialize(self, database: GeneralizedDatabase) -> EvaluationStats:
        self.close()
        world, stats = self.program.evaluate(
            database, max_iterations=self.max_iterations, semantics=self.semantics
        )
        self.world = world
        self._finish(stats)
        if stats.incomplete:
            self._mark_stale("budget exceeded during (re)materialization")
            return stats
        self.stale = False
        self.stale_reason = None
        if self._mode == "incremental":
            self._init_runtime()
        return stats

    def _init_runtime(self) -> None:
        """(Re)build the per-view maintenance state against ``self.world``.

        The maintenance programs and strata are static (they depend only on
        the rules); everything else is rebuilt.  The caches reference
        relation content, and each ``X__ivm_m`` view reads the
        live relation ``X`` in place: a rematerialization replaces the
        derived relation objects, so the views are bound to the new world
        here, beside fresh ``X__ivm_d`` delta relations.
        """
        names: set[str] = set()
        for stratum in self._strata:
            if not stratum.recompute:
                names |= stratum.pos_body_preds
        self._mworld = GeneralizedDatabase(self.theory)
        self._mid_view = {}
        self._delta_rel = {}
        for name in sorted(names):
            live = self.world.relation(name)
            view = _PreChange(name + _MID_SUFFIX, live)
            delta = GeneralizedRelation(
                name + _DELTA_SUFFIX, live.variables, self.theory
            )
            # the compiled join reads a relation only through what the
            # view offers (see _PreChange)
            self._mworld.add_relation(cast(GeneralizedRelation, view))
            self._mworld.add_relation(delta)
            self._mid_view[name] = view
            self._delta_rel[name] = delta
        self._caches = _EvalCaches(self.program, self.total_stats)
        for stratum in self._strata:
            if stratum.expansion is not None:
                stratum.caches = _EvalCaches(stratum.expansion, self.total_stats)
        self._warm_indexes()

    def _warm_indexes(self) -> None:
        """Pre-build the join indexes the maintenance loops will probe.

        DRed's semi-naive continuation (after re-derivation and for
        insertion) fires delta-at-position tasks against the *live*
        relations, and under dense order each step after the delta probes
        its relation's index on an argument bound before it (DESIGN
        §10.2).  A relation builds each index at its first probe, which
        would charge an O(|relation|) construction to the first delta.
        Walking each (rule, delta position) join order once here, and
        building the index of each later non-empty atom on its first
        argument bound before it, moves that cost into registration without
        firing anything, keeping ``apply`` delta-proportional from the first
        call.  The relations keep the indexes current afterwards.
        """
        if not isinstance(unwrap_theory(self.program.theory), DenseOrderTheory):
            return  # only dense order probes
        compiled = self._require(self._caches).rules
        for stratum in self._strata:
            if stratum.recompute:
                continue
            for rule in stratum.rules:
                atoms = rule.positive_atoms
                relations = [self.world.relation(atom.name) for atom in atoms]
                sizes = [len(relation) for relation in relations]
                compiled_rule = compiled[id(rule)]
                for position, atom in enumerate(atoms):
                    if not sizes[position]:
                        continue  # an empty delta fires nothing
                    bound = set(compiled_rule.root_pin_map) | set(atom.args)
                    for slot in compiled_rule.join_order(sizes, position)[1:]:
                        args = atoms[slot].args
                        first = next(
                            (i for i, var in enumerate(args) if var in bound), None
                        )
                        if first is not None and sizes[slot]:
                            relation = relations[slot]
                            relation.index(relation.variables[first])
                        bound.update(args)

    @staticmethod
    def _require(caches: _EvalCaches | None) -> _EvalCaches:
        if caches is None:  # pragma: no cover - guarded by _materialize
            raise EvaluationError("view runtime is not initialized")
        return caches

    def _key_of(
        self, relation: GeneralizedRelation, item: GeneralizedTuple
    ) -> Key | None:
        """The canonical key ``add_canonical`` would store ``item`` under."""
        renamed = (
            item.rename(relation.variables)
            if item.variables != relation.variables
            else item
        )
        canonical = self.theory.canonicalize(renamed.atoms)
        return None if canonical is None else frozenset(canonical)

    def _to_tuple(
        self,
        relation: GeneralizedRelation,
        item: GeneralizedTuple | Iterable[Atom],
    ) -> GeneralizedTuple:
        if isinstance(item, GeneralizedTuple):
            return item
        return GeneralizedTuple(relation.variables, tuple(item))

    # ------------------------------------------------------- the maintenance
    def _apply_inner(
        self,
        inserts: list[DeltaItem],
        retracts: list[DeltaItem],
        stats: EvaluationStats,
    ) -> None:
        dels: dict[str, list[GeneralizedTuple]] = {}
        adds: dict[str, list[GeneralizedTuple]] = {}
        removal_keys: dict[str, set[Key]] = {}
        insert_items: dict[str, dict[Key, GeneralizedTuple]] = {}
        for name, spec in retracts:
            relation = self._edb_target(name)
            key = self._key_of(relation, self._to_tuple(relation, spec))
            if key is not None and relation.lookup(key) is not None:
                removal_keys.setdefault(name, set()).add(key)
        for name, spec in inserts:
            relation = self._edb_target(name)
            gt = self._to_tuple(relation, spec)
            key = self._key_of(relation, gt)
            if key is None:
                continue  # unsatisfiable tuples denote the empty set
            removed = removal_keys.get(name)
            if removed is not None and key in removed:
                removed.discard(key)  # retract + reinsert: net no-op
                continue
            if relation.lookup(key) is None:
                insert_items.setdefault(name, {})[key] = gt
        for name, keys in removal_keys.items():
            relation = self.world.relation(name)
            for key in keys:
                removed_item = relation.discard_key(key)
                if removed_item is not None:
                    dels.setdefault(name, []).append(removed_item)
        for name, items in insert_items.items():
            relation = self.world.relation(name)
            for gt in items.values():
                stored = relation.add_canonical(gt)
                if stored is not None:
                    adds.setdefault(name, []).append(stored)
        stats.ivm_retracts += sum(len(v) for v in dels.values())
        stats.ivm_inserts += sum(len(v) for v in adds.values())
        if not dels and not adds:
            return
        for index, stratum in enumerate(self._strata):
            if not any(
                dels.get(p) or adds.get(p) for p in stratum.body_preds
            ):
                continue
            if stratum.recompute:
                self._recompute_stratum(index, stratum, dels, adds, stats)
            else:
                self._dred(stratum, dels, adds, stats)

    def _edb_target(self, name: str) -> GeneralizedRelation:
        if name in self._idbs:
            raise EvaluationError(
                f"{name!r} is derived by rules; deltas apply to EDB relations"
            )
        return self.world.relation(name)

    # ---------------------------------------------------- expansion plumbing
    def _fill_mids(
        self, refs: Iterable[str], adds: Mapping[str, list[GeneralizedTuple]]
    ) -> None:
        """Bind each ``X__ivm_m`` to the pre-change content ``live(X) - A_X``.

        Lower strata have already applied this batch's additions by the time
        a stratum fires its expansion.  Over-deletion looks for derivations
        over the old content, ``old = pre + D``, so the positions outside
        the delta read ``pre``, which holds neither the deletions nor the
        additions.  Nothing is copied: each view hides the stored tuples of
        ``adds[X]`` from the live relation, in O(|A_X|), with no
        canonicalization and no budget ticks.
        """
        for name in refs:
            self._mid_view[name].hide(adds.get(name) or ())

    def _fire_expansion(
        self,
        stratum: _Stratum,
        delta_map: Mapping[str, list[GeneralizedTuple]],
        stats: EvaluationStats,
    ) -> list[tuple[str, GeneralizedTuple]]:
        """One pass of a stratum's expansion rules against (mid, delta)."""
        if not any(delta_map.get(name) for name in stratum.pos_body_preds):
            return []
        expansion = stratum.expansion
        if expansion is None:  # pragma: no cover - dred implies it
            raise EvaluationError("stratum has no expansion program")
        for name in stratum.pos_body_preds:
            delta = self._delta_rel[name]
            delta.clear()
            for item in delta_map.get(name) or ():
                delta.adopt_canonical(item)
        tick("round")
        stats.iterations += 1
        tasks: list[tuple[Rule, dict | None, int | None]] = [
            (rule, None, None) for rule in expansion.rules
        ]
        derived = expansion._execute_round(
            tasks, self._mworld, stats, self._require(stratum.caches)
        )
        strip = len(_OUT_SUFFIX)
        return [(name[:-strip], item) for name, item in derived]

    # --------------------------------------------------------- DRed strata
    def _dred(
        self,
        stratum: _Stratum,
        dels: dict[str, list[GeneralizedTuple]],
        adds: dict[str, list[GeneralizedTuple]],
        stats: EvaluationStats,
    ) -> None:
        refs = sorted(stratum.pos_body_preds)
        self._fill_mids(refs, adds)
        caches = self._require(self._caches)
        live_rels = {p: self.world.relation(p) for p in stratum.preds}
        marked: dict[str, dict[Key, GeneralizedTuple]] = {
            p: {} for p in stratum.preds
        }
        added: dict[str, dict[Key, GeneralizedTuple]] = {
            p: {} for p in stratum.preds
        }

        def record(admitted: Mapping[str, list[GeneralizedTuple]]) -> None:
            for pred, items in admitted.items():
                for stored in items:
                    added[pred][frozenset(stored.atoms)] = stored

        def continue_from(seeds: dict[str, list[GeneralizedTuple]]) -> None:
            # the engine's semi-naive continuation, over the live relations
            record(
                self.program._semi_naive_rounds(
                    stratum.rules, self.world, stats, caches, seeds, self.max_iterations
                )
            )

        lower_del = {
            name: dels.get(name) or []
            for name in refs
            if name not in stratum.preds
        }
        lower_add = {
            name: adds.get(name) or []
            for name in refs
            if name not in stratum.preds
        }
        # --- over-deletion: everything with a derivation through a deleted
        # tuple, semi-naive over the expansion.  Round 1's delta is the
        # lower deletions; each later round's is what the round before
        # marked.  Non-delta positions read the old content (marked tuples
        # stay stored until the loop ends), so a derivation through marked
        # tuples fires in the round after its latest mark, and one through
        # deleted lower tuples fires in round 1
        rederived_round = False
        if any(lower_del.values()):
            rounds = 0
            delta_map: dict[str, list[GeneralizedTuple]] = lower_del
            while delta_map:
                rounds += 1
                if rounds > self.max_iterations:
                    raise FixpointDivergenceError(self.max_iterations)
                fresh: dict[str, list[GeneralizedTuple]] = {}
                for pred, item in self._fire_expansion(stratum, delta_map, stats):
                    live = live_rels[pred]
                    key = self._key_of(live, item)
                    if key is None or key in marked[pred]:
                        continue
                    stored = live.lookup(key)
                    if stored is not None:
                        marked[pred][key] = stored
                        fresh.setdefault(pred, []).append(stored)
                delta_map = fresh
            total_marked = sum(len(m) for m in marked.values())
            if total_marked:
                for pred, items in marked.items():
                    live = live_rels[pred]
                    for key in items:
                        live.discard_key(key)
                stats.ivm_overdeleted += total_marked
                # --- re-derivation: one round over the surviving content
                # re-admits marked tuples with alternative derivations and
                # admits what this batch's lower insertions derive, then
                # semi-naive propagation completes the stratum's fixpoint
                # over its current inputs
                inserted = {name: items for name, items in lower_add.items() if items}
                seeds = self.program._round(
                    self._rederivation_tasks(stratum, marked, inserted, stats),
                    self.world,
                    stats,
                    caches,
                    1,
                    self.max_iterations,
                )
                record(seeds)
                continue_from(seeds)
                rederived_round = True
        # --- insertion: standard semi-naive continuation seeded with the
        # lower strata's (and EDB) additions; the re-derivation round, if
        # one ran, already fired them, and its continuation found the rest
        if not rederived_round and any(lower_add.values()):
            continue_from(lower_add)
        # --- net deltas for the strata above
        rederived = 0
        for pred in stratum.preds:
            live = live_rels[pred]
            for key, stored in marked[pred].items():
                if live.lookup(key) is None:
                    dels.setdefault(pred, []).append(stored)
                    stats.ivm_derived_removed += 1
                else:
                    rederived += 1
            for key, stored in added[pred].items():
                if key not in marked[pred]:
                    adds.setdefault(pred, []).append(stored)
                    stats.ivm_derived_added += 1
        stats.ivm_rederived += rederived

    def _rederivation_tasks(
        self,
        stratum: _Stratum,
        marked: Mapping[str, Mapping[Key, GeneralizedTuple]],
        inserted: dict[str, list[GeneralizedTuple]],
        stats: EvaluationStats,
    ) -> list[tuple[Rule, dict | None, int | None]]:
        """The re-derivation round's tasks, cut down to what it must find.

        Over the surviving tuples and the lower strata's current content, a
        derivation whose key is not marked and that reads no tuple this
        batch ``inserted`` is already present (the survivors lie inside the
        old fixpoint, which is closed under the rules).  So the round finds
        the same new keys as one firing every rule over everything if each
        rule finds its derivations of marked keys and those through
        inserted tuples.  A rule fires at most once, so no derivation is
        found twice:

        * a rule whose head has no marked tuple fires only if it reads an
          inserted predicate, as a semi-naive task on the insertions;
        * otherwise it takes a positive body atom, and one of its arguments
          that is a head variable ``v`` which every marked head tuple pins.
          A derivation of a marked key pins ``v`` to that tuple's value,
          and a body tuple pinning the argument to another value makes the
          derivation unsatisfiable (``pinned_constants``' contract).  So
          the atom draws, as the task's semi-naive delta, only the stored
          tuples that pin the argument to a marked value, leave it
          unpinned, or were inserted.  The pins are the compiled join's
          cached entry records, read once per stored tuple of each
          candidate atom's relation.  A rule that reads an inserted
          predicate must take that atom, where its derivations through
          insertions have their inserted tuple.  Of several such pairs the
          one keeping the fewest tuples is taken;
        * a rule with no such pair, or reading two inserted atoms, fires
          unrestricted.
        """
        caches = self._require(self._caches)
        pinned = self.theory.pinned_constants
        tasks: list[tuple[Rule, dict | None, int | None]] = []
        for rule in stratum.rules:
            atoms = rule.positive_atoms
            reads = [p for p, atom in enumerate(atoms) if atom.name in inserted]
            heads = marked[rule.head.name]
            if len(reads) > 1:
                tasks.append((rule, None, None))
                continue
            if not heads:
                if reads:
                    tasks.append((rule, inserted, reads[0]))
                continue
            head_vars = self.world.relation(rule.head.name).variables
            head_pins = [pinned(item.atoms) for item in heads.values()]
            compiled = caches.rules[id(rule)]
            best: tuple[int, str, list[GeneralizedTuple]] | None = None
            for position in reads or range(len(atoms)):
                atom = atoms[position]
                new = {id(item) for item in inserted.get(atom.name, ())}
                items: list[GeneralizedTuple] = []
                records: list | None = None
                for arg in dict.fromkeys(atom.args):
                    if arg not in rule.head.args:
                        continue
                    slot = head_vars[rule.head.args.index(arg)]
                    if not all(slot in pins for pins in head_pins):
                        continue
                    values = {pins[slot] for pins in head_pins}
                    if records is None:
                        items = list(self.world.relation(atom.name))
                        records = compiled._records_for(atom, items, caches, stats)
                    kept = [
                        item
                        for item, (_renamed, pins, _kind) in zip(items, records)
                        if arg not in pins or pins[arg] in values or id(item) in new
                    ]
                    if best is None or len(kept) < len(best[2]):
                        best = (position, atom.name, kept)
            if best is None:
                tasks.append((rule, None, None))
            elif best[2]:  # an empty one derives nothing
                position, name, kept = best
                tasks.append((rule, {name: kept}, position))
        return tasks

    # ---------------------------------------------------- recompute fallbacks
    def _recompute_stratum(
        self,
        index: int,
        stratum: _Stratum,
        dels: dict[str, list[GeneralizedTuple]],
        adds: dict[str, list[GeneralizedTuple]],
        stats: EvaluationStats,
    ) -> None:
        """Re-evaluate one stratum against its (fully maintained) inputs.

        Negation makes deltas useless (the complement of a changed relation
        is not a function of the change), so the stratum recomputes, under
        the view's ``semantics``; lower strata are final by the time it
        runs, which is exactly the stratified semantics' contract.  A
        recompute-mode view's one stratum holds every rule, so this is its
        whole-program re-evaluation.  The derived relations are updated in
        place, and the deltas for the strata above come from diffing the
        old and new canonical key sets.
        """
        sub = self._sub_programs.get(index)
        if sub is None:
            sub = DatalogProgram(
                stratum.rules,
                self.theory,
                allow_unsafe_recursion=self.program.allow_unsafe_recursion,
                options=self._opts,
            )
            self._sub_programs[index] = sub
        old: dict[str, dict[Key, GeneralizedTuple]] = {}
        for pred in stratum.preds:
            live = self.world.relation(pred)
            old[pred] = dict(live.entries())
            live.clear()
        world2, estats = sub.evaluate(
            self.world, max_iterations=self.max_iterations, semantics=self.semantics
        )
        stats.merge(estats)
        stats.iterations += estats.iterations
        if estats.incomplete:
            raise BudgetExceededError(
                "budget exceeded while recomputing a stratum"
            )
        for pred in stratum.preds:
            live = self.world.relation(pred)
            for key, item in world2.relation(pred).entries():
                live.adopt_canonical(item)
            for key, item in old[pred].items():
                if live.lookup(key) is None:
                    dels.setdefault(pred, []).append(item)
                    stats.ivm_derived_removed += 1
            for key, item in live.entries():
                if key not in old[pred]:
                    adds.setdefault(pred, []).append(item)
                    stats.ivm_derived_added += 1
        stats.ivm_recomputed_strata += 1

    # ------------------------------------------------------- stratum analysis
    def _compute_strata(self) -> list[_Stratum]:
        """The strata of :meth:`DatalogProgram.stratify`, dependencies first.

        A positive program, or a stratifiable one under ``"auto"`` or
        ``"stratified"``, is maintained incrementally, stratum by stratum.
        An inflationary or non-stratifiable program with negation is not
        monotone in the EDB: it is one ``recompute`` stratum of every rule,
        and the view's mode is ``"recompute"``.
        """
        program = self.program
        groups = None
        if self.semantics != "inflationary" or not program.has_negation():
            groups = program.stratify()
        if groups is None:
            if self.semantics == "stratified":
                raise EvaluationError(
                    "program is not stratifiable (negation through recursion)"
                )
            self._mode = "recompute"
            return [self._stratum(program.rules, recompute=True)]
        self._mode = "incremental"
        return [self._stratum(rules) for rules in groups]

    def _stratum(self, rules: list[Rule], recompute: bool = False) -> _Stratum:
        preds = frozenset(rule.head.name for rule in rules)
        body_preds = frozenset(
            atom.name
            for rule in rules
            for atom in rule.positive_atoms + rule.negative_atoms
        )
        stratum = _Stratum(
            preds=preds,
            rules=rules,
            recompute=recompute
            or any(
                rule.has_negation() or len(rule.positive_atoms) > _EXPANSION_CAP
                for rule in rules
            ),
            body_preds=body_preds,
            pos_body_preds=frozenset(
                atom.name for rule in rules for atom in rule.positive_atoms
            ),
        )
        if not stratum.recompute:
            stratum.expansion = DatalogProgram(
                _expansion_rules(rules),
                self.theory,
                allow_unsafe_recursion=True,
                options=self._opts,
            )
        return stratum


# ----------------------------------------------------------------- registry
class ViewRegistry:
    """Registered materialized views the semantic optimizer may answer from.

    A view is registered under the *exported relation name* its
    materialization will carry in evaluation databases.  The registry turns
    live views into :class:`repro.analysis.semantic.ViewDefinition` records
    (the optimizer's input) and exports their current fixpoints into a
    database, so a program constructed with ``DatalogProgram(rules, theory,
    views=registry.definitions())`` can read the already-maintained answer
    instead of re-deriving it.

    Only *fresh* views participate: a stale view (budget-degraded) no longer
    equals its program's fixpoint, so answering from it would be unsound --
    ``definitions()``/``export_to`` silently skip it until refreshed.  Views
    deriving more than one IDB predicate are skipped too (the rewrite
    replaces exactly one predicate's rules with a copy rule).
    """

    def __init__(self) -> None:
        self._views: dict[str, MaterializedView] = {}

    def register(self, name: str, view: MaterializedView) -> None:
        if name in self._views:
            raise EvaluationError(f"view name {name!r} already registered")
        self._views[name] = view

    def unregister(self, name: str) -> None:
        self._views.pop(name, None)

    def clear(self) -> None:
        self._views.clear()

    def names(self) -> list[str]:
        return sorted(self._views)

    def get(self, name: str) -> "MaterializedView | None":
        return self._views.get(name)

    def _eligible(self) -> dict[str, tuple[MaterializedView, str]]:
        eligible: dict[str, tuple[MaterializedView, str]] = {}
        for name, view in self._views.items():
            if view.stale or len(view._idbs) != 1:
                continue
            (predicate,) = view._idbs
            eligible[name] = (view, predicate)
        return eligible

    def definitions(self) -> "dict[str, object]":
        """Exported name -> ``ViewDefinition`` for every fresh view."""
        from repro.analysis.semantic import ViewDefinition

        return {
            name: ViewDefinition(
                relation=name,
                predicate=predicate,
                rules=tuple(view.program.rules),
            )
            for name, (view, predicate) in self._eligible().items()
        }

    def export_to(self, database: GeneralizedDatabase) -> "dict[str, object]":
        """Copy fresh views' fixpoints into ``database``; return definitions.

        Each eligible view's derived relation lands under its exported name
        (existing relations of that name are left alone and the view is
        skipped -- the caller owns the collision).  The returned mapping is
        exactly :meth:`definitions` restricted to the exported views, ready
        to pass as ``DatalogProgram(views=...)``.
        """
        from repro.analysis.semantic import ViewDefinition

        exported: dict[str, object] = {}
        for name, (view, predicate) in self._eligible().items():
            if name in database:
                continue
            database.add_relation(view.relation(predicate).copy(name))
            exported[name] = ViewDefinition(
                relation=name,
                predicate=predicate,
                rules=tuple(view.program.rules),
            )
        return exported
