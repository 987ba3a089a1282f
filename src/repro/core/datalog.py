"""Datalog and inflationary Datalog-not with constraints (Sections 1.2, 3, 4).

A rule is ``head :- literals`` where the head is a database atom with
distinct variables and each body literal is a database atom, a negated
database atom (Datalog-not only), or a constraint atom of the active theory
(Definition 1.10).  The engine provides:

* **naive** and **semi-naive** bottom-up evaluation to the least fixpoint
  for positive programs -- rule firing joins the body tuples' constraint
  conjunctions, checks satisfiability, eliminates body-only variables
  (closed form!), canonicalizes, and adds the head tuple;
* **stratified semantics** for Datalog-not programs without negation
  through recursion: one stratum per strongly connected component of the
  predicate dependency graph (:meth:`DatalogProgram.stratify`), each run
  to its least fixpoint in the same semi-naive rounds, callees first;
* **inflationary semantics** for Datalog-not (facts derived in an iteration
  are added to those of previous iterations; negated atoms are evaluated
  against the current relation by complementation), per [1, 22, 33] as the
  paper prescribes;
* a **closure guard**: recursion over the real-polynomial theory is refused
  with :class:`NotClosedError` (Example 1.12 -- the transitive closure of
  ``y = 2x`` has no finite representation); the Example 1.12 divergence
  experiment opts in via ``allow_unsafe_recursion`` + ``max_iterations``.

Termination for the dense-order and equality theories follows the paper's
argument: derived tuples are canonical conjunctions over a fixed variable
count and the fixed constant set of program + database, of which there are
finitely many (polynomially many for fixed arity -- the PTIME bound of
Theorems 3.14.2 / 4.11.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterable, Sequence

from repro.analysis.graph import build_dependency_graph
from repro.constraints.base import ConstraintTheory, TheoryCache
from repro.core import compile as rulecompile
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedTuple,
    positional_variables,
)
from repro.errors import (
    ArityError,
    BudgetExceededError,
    EvaluationError,
    FixpointDivergenceError,
    NotClosedError,
    StaticAnalysisError,
)
from repro.logic.syntax import Atom, Not, RelationAtom
from repro.runtime.budget import Budget, active_meter, metered, tick


@dataclass(frozen=True)
class Rule:
    """``head :- body`` with constraint atoms allowed in the body."""

    head: RelationAtom
    body: tuple[object, ...]  # RelationAtom | Not(RelationAtom) | theory Atom

    def __post_init__(self) -> None:
        head_vars = set(self.head.args)
        body_vars: set[str] = set()
        for literal in self.body:
            if isinstance(literal, RelationAtom):
                body_vars |= set(literal.args)
            elif isinstance(literal, Not):
                if not isinstance(literal.child, RelationAtom):
                    raise EvaluationError(
                        "negation in rule bodies applies to database atoms only"
                    )
                body_vars |= set(literal.child.args)
            elif isinstance(literal, Atom):
                body_vars |= literal.variables()
            else:
                raise EvaluationError(f"bad body literal {literal!r}")
        missing = head_vars - body_vars
        if missing:
            raise EvaluationError(
                f"head variables {sorted(missing)} do not occur in the body "
                f"of rule {self}"
            )

    @property
    def positive_atoms(self) -> list[RelationAtom]:
        return [lit for lit in self.body if isinstance(lit, RelationAtom)]

    @property
    def negative_atoms(self) -> list[RelationAtom]:
        return [lit.child for lit in self.body if isinstance(lit, Not)]  # type: ignore[union-attr]

    @property
    def constraint_atoms(self) -> list[Atom]:
        return [
            lit
            for lit in self.body
            if isinstance(lit, Atom) and not isinstance(lit, RelationAtom)
        ]

    def has_negation(self) -> bool:
        return any(isinstance(lit, Not) for lit in self.body)

    def variables(self) -> list[str]:
        seen: list[str] = []
        for literal in self.body:
            if isinstance(literal, RelationAtom):
                names: Iterable[str] = literal.args
            elif isinstance(literal, Not):
                names = literal.child.args  # type: ignore[union-attr]
            else:
                names = sorted(literal.variables())  # type: ignore[union-attr]
            for name in names:
                if name not in seen:
                    seen.append(name)
        for name in self.head.args:
            if name not in seen:
                seen.append(name)
        return seen

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}"


@dataclass(frozen=True)
class EngineOptions:
    """How a program is planned, rewritten, checked and metered.

    The fast-path layers of the rule join -- the theory cache, the
    entry-record cache, the incremental join, the index probes and the
    join planner -- are always on; no option reaches a firing.  The one
    ablation flag is ``optimize_semantic`` (read at construction);
    ``all_off()`` switches it off.
    """

    #: run the containment-based semantic optimizer
    #: (:mod:`repro.analysis.semantic`) at program construction: subsumed
    #: rules, redundant literals and unsatisfiable rules are removed and
    #: constraints canonicalized *before* the PlanCache key is computed, so
    #: minimized programs cache-hit.  Fixpoint-preserving by construction
    #: (no-op for the polynomial theory, where containment is undecided).
    optimize_semantic: bool = True
    #: run the repro.analysis pre-flight at construction time and raise
    #: StaticAnalysisError on error diagnostics.  Not a perf flag, so it is
    #: deliberately absent from ``as_dict`` (the ablation grid).
    analyze: bool = False
    #: resource budget enforced by the execution supervisor
    #: (:mod:`repro.runtime.budget`); ``None`` inherits whatever ambient
    #: budget the caller installed via ``supervised``.  Not a perf flag, so
    #: absent from ``as_dict`` like ``analyze``.
    budget: Budget | None = None
    #: demand-driven query evaluation (:mod:`repro.core.query`): rewrite
    #: bound queries with constraint-generalized magic sets and reuse cached
    #: answers via containment.  Off, ``Engine.query`` evaluates the full
    #: fixpoint and filters -- the differential oracle the magic path is
    #: checked against.  A query-path strategy, not a fixpoint grid flag, so
    #: deliberately absent from ``as_dict`` like ``analyze``.
    magic: bool = True

    @classmethod
    def all_on(cls) -> "EngineOptions":
        return cls()

    @classmethod
    def all_off(cls) -> "EngineOptions":
        return cls(optimize_semantic=False)

    def as_dict(self) -> dict[str, bool]:
        return {"optimize_semantic": self.optimize_semantic}


@dataclass
class EvaluationStats:
    """Bookkeeping exposed for the data-complexity benchmarks.

    ``rule_firings`` counts complete body matches (leaf firings of the join);
    ``join_steps`` counts partial-join candidate extensions.  The seed engine
    conflated the two in one counter, overcounting firings in the reports.
    """

    iterations: int = 0
    rule_firings: int = 0
    join_steps: int = 0
    tuples_derived: int = 0
    tuples_added: int = 0
    sat_checks: int = 0
    join_prunes: int = 0
    pin_prunes: int = 0
    closure_extensions: int = 0
    rename_cache_hits: int = 0
    rename_cache_misses: int = 0
    theory_cache_hits: int = 0
    theory_cache_misses: int = 0
    plans_built: int = 0
    plan_reorders: int = 0
    index_probes: int = 0
    index_candidates: int = 0
    index_scan_avoided: int = 0
    #: PlanCache traffic for this evaluation
    compile_hits: int = 0
    compile_misses: int = 0
    #: rule variants lowered to closures during this evaluation (0 on a
    #: warm cache), compiled firings executed, and point-fast-path leaf
    #: emissions that skipped quantifier elimination
    compiled_rules: int = 0
    compiled_firings: int = 0
    fastpath_leaves: int = 0
    #: wall-clock spent fetching/lowering compiled rules (setup overhead)
    compile_seconds: float = 0.0
    #: incremental view maintenance (:mod:`repro.core.ivm`): maintenance
    #: passes run, EDB delta sizes consumed, derived-relation churn, DRed
    #: overdeletion/rederivation traffic, strata recomputed by the fallback
    #: paths, and wall-clock spent maintaining (the bench compares this
    #: against from-scratch evaluation time)
    ivm_steps: int = 0
    ivm_inserts: int = 0
    ivm_retracts: int = 0
    ivm_derived_added: int = 0
    ivm_derived_removed: int = 0
    ivm_overdeleted: int = 0
    ivm_rederived: int = 0
    ivm_recomputed_strata: int = 0
    ivm_maintain_seconds: float = 0.0
    #: semantic-optimizer outcomes (:mod:`repro.analysis.semantic`), copied
    #: from the program's construction-time rewrite into every evaluation's
    #: stats.  Deliberately absent from ``_MERGE_FIELDS``: they describe the
    #: program, not per-evaluation work, so folding per-apply stats would
    #: double-count them.
    semantic_rules_subsumed: int = 0
    semantic_literals_eliminated: int = 0
    semantic_view_rewrites: int = 0
    semantic_containment_checks: int = 0
    semantic_containment_seconds: float = 0.0
    #: demand-driven query path (:mod:`repro.core.query`): magic rules
    #: generated by the rewrite, IDB predicates that fell back to full
    #: evaluation because their derivation cone contains negation, whether
    #: the whole plan degraded to full evaluation, the restricted cone's
    #: tuple count vs the would-be full answer relation, and reuse-cache
    #: traffic.  Like the semantic_* fields these describe the query plan,
    #: not per-evaluation work, so they are absent from ``_MERGE_FIELDS``.
    magic_rules: int = 0
    magic_fallback_predicates: tuple[str, ...] = ()
    magic_full_fallback: bool = False
    magic_cone_tuples: int = 0
    magic_reuse_hits: int = 0
    magic_reuse_misses: int = 0
    per_round_new: list[int] = field(default_factory=list)
    #: True when a budget tripped in ``partial_results="fringe"`` mode and
    #: the returned database is the last sound under-approximation
    incomplete: bool = False
    #: the tripping budget's ResourceReport (as a dict) when ``incomplete``
    budget: dict | None = None

    @property
    def ivm_rederivation_ratio(self) -> float:
        """Fraction of DRed-overdeleted tuples that were rederived.

        High values mean the deletion overestimate was mostly wrong (tuples
        had alternative derivations), so most of a retract's over-deletion
        and re-derivation work restored what it had just removed; 0.0 when
        nothing was overdeleted.
        """
        if not self.ivm_overdeleted:
            return 0.0
        return self.ivm_rederived / self.ivm_overdeleted

    @property
    def cache_hits(self) -> int:
        """Total fast-path cache hits: the rename cache's and the theory
        cache's."""
        return self.rename_cache_hits + self.theory_cache_hits

    #: always 0: a negated atom is a difference step of the join
    #: (:mod:`repro.core.compile`) and no complement is memoized; both stay
    #: readable because the ``perfbench`` benchmark reports them by name
    complement_cache_hits = complement_cache_misses = property(lambda self: 0)

    @property
    def parallel_rounds(self) -> int:
        """Always 0: every fixpoint round runs serially in the calling thread.

        The name stays readable because the ``perfbench`` benchmark reports
        it as ``core.datalog.parallel_rounds``.  The paper's round-synchronous
        parallel evaluation (Section 3.3, Thm 3.21) is counted in rounds by
        :mod:`repro.core.fringe`, not by this engine.
        """
        return 0

    def as_dict(self) -> dict[str, object]:
        """Every field plus the derived ``cache_hits`` and
        ``ivm_rederivation_ratio``, with containers copied as JSON-ready
        lists and dicts."""
        payload: dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, (list, tuple)):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            payload[spec.name] = value
        payload["cache_hits"] = self.cache_hits
        payload["ivm_rederivation_ratio"] = self.ivm_rederivation_ratio
        return payload

    #: additive counters folded by :meth:`merge`: every field except the
    #: round bookkeeping (``iterations``, ``tuples_added``,
    #: ``per_round_new``), the budget tag (``incomplete``, ``budget``) and
    #: the program/plan-level ``semantic_*`` and ``magic_*`` fields
    _MERGE_FIELDS: ClassVar[tuple[str, ...]]

    def merge(self, other: "EvaluationStats") -> None:
        """Add ``other``'s additive counters into this aggregate (the view's
        cumulative stats sum per-apply stats this way)."""
        for name in self._MERGE_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


EvaluationStats._MERGE_FIELDS = tuple(
    spec.name
    for spec in fields(EvaluationStats)
    if spec.name
    not in ("iterations", "tuples_added", "per_round_new", "incomplete", "budget")
    and not spec.name.startswith(("semantic_", "magic_"))
)


class _TheoryCaches:
    """The distinct :class:`TheoryCache` objects of some theories, whose
    traffic one evaluation (or one view maintenance call) reports.

    :meth:`record` writes the hit/miss traffic since construction into a
    stats object -- assigned, not added, so an inner evaluation whose own
    stats were merged in is counted once.  The caches' ``enabled`` state
    is left as the caller set it (only the reference evaluator switches
    them off, for its own run).
    """

    def __init__(self, theories: Iterable[ConstraintTheory]) -> None:
        self.caches: list[TheoryCache] = []
        for theory in theories:
            cache = theory.cache
            if cache is not None and all(cache is not c for c in self.caches):
                self.caches.append(cache)
        self.before = [cache.stats.snapshot() for cache in self.caches]

    def record(self, stats: EvaluationStats) -> None:
        stats.theory_cache_hits = stats.theory_cache_misses = 0
        for cache, (hits, misses) in zip(self.caches, self.before):
            now_hits, now_misses = cache.stats.snapshot()
            stats.theory_cache_hits += now_hits - hits
            stats.theory_cache_misses += now_misses - misses


class _EvalCaches:
    """Per-evaluation cache state (one per ``evaluate`` call).

    ``rules`` maps ``id(rule)`` of each of the program's rules to its
    :class:`repro.core.compile.CompiledRule`, resolved once from the
    :class:`repro.core.compile.CompiledProgram` the process-wide PlanCache
    serves at construction (the entry's rules follow the program's rule
    order, so no lookup by rule text is needed); ``program_rules`` keeps
    those rule objects, hence the ids, alive.  No option reaches a firing,
    so one cache entry serves every option setting.

    ``centries`` (classified entry records per tuple, held weakly --
    :class:`repro.core.compile.RecordCache`), ``cscan`` (scan lists per
    relation content version) and ``cprobe`` (probe results of the
    current content version) are the compiled join's caches.  Each keeps
    only what the live relations can still hit, so the caches a
    :class:`repro.core.ivm.MaterializedView` keeps across maintenance
    steps stay bounded by the view's content.
    """

    __slots__ = (
        "rules",
        "program_rules",
        "centries",
        "cscan",
        "cprobe",
    )

    def __init__(self, program: "DatalogProgram", stats: EvaluationStats) -> None:
        self.centries: dict = {}
        self.cscan: dict = {}
        self.cprobe: dict = {}
        started = time.perf_counter()
        compiled, hit = rulecompile.PLAN_CACHE.fetch(program)
        self.program_rules = tuple(program.rules)
        self.rules = {
            id(rule): compiled_rule
            for rule, compiled_rule in zip(self.program_rules, compiled.rules)
        }
        stats.compile_hits += 1 if hit else 0
        stats.compile_misses += 0 if hit else 1
        stats.compile_seconds += time.perf_counter() - started


class DatalogProgram:
    """A Datalog(+constraints) program evaluated against a generalized database."""

    def __init__(
        self,
        rules: Sequence[Rule],
        theory: ConstraintTheory,
        allow_unsafe_recursion: bool = False,
        options: EngineOptions | None = None,
        views: "dict[str, object] | None" = None,
    ) -> None:
        self.rules = list(rules)
        self.theory = theory
        self.allow_unsafe_recursion = allow_unsafe_recursion
        self.options = options if options is not None else EngineOptions()
        self.semantic_report = None
        self._check_arities()
        # the closure condition lives in repro.analysis.closure (single
        # source of truth, shared with the CQL010 lint pass)
        from repro.analysis.closure import NOT_CLOSED_MESSAGE, not_closed_recursion

        if not allow_unsafe_recursion and not_closed_recursion(self.rules, theory):
            raise NotClosedError(NOT_CLOSED_MESSAGE)
        # the semantic optimizer rewrites self.rules *before* any PlanCache
        # fetch (the cache keys on the rewritten fingerprint, so minimized
        # programs cache-hit) and before the analysis pre-flight (which then
        # sees the program it will actually run).  ``views`` maps exported
        # relation names to repro.analysis.semantic.ViewDefinition; None
        # means "no view answerability" (the ivm registry passes them in).
        if self.options.optimize_semantic and self.rules:
            from repro.analysis.semantic import optimize_program

            report = optimize_program(self.rules, theory, views=views)
            if report.changed:
                self.rules = list(report.rules)
                self._check_arities()
            self.semantic_report = report
        if self.options.analyze:
            self._preflight()

    def _preflight(self) -> None:
        """Opt-in static analysis gate (``EngineOptions(analyze=True)``).

        CQL010 is excluded: when ``allow_unsafe_recursion`` is unset the
        closure guard above already raised the dedicated
        :class:`NotClosedError`, and when it is set the caller explicitly
        opted into non-closed iteration.
        """
        from repro.analysis import analyze_program

        report = analyze_program(
            self.rules,
            self.theory,
            budget_declared=self.options.budget is not None,
        )
        errors = [d for d in report.errors() if d.code != "CQL010"]
        if errors:
            raise StaticAnalysisError(errors)

    # --------------------------------------------------------------- schema
    def idb_predicates(self) -> set[str]:
        return {rule.head.name for rule in self.rules}

    def edb_predicates(self) -> set[str]:
        used: set[str] = set()
        for rule in self.rules:
            for atom in rule.positive_atoms + rule.negative_atoms:
                used.add(atom.name)
        return used - self.idb_predicates()

    def _check_arities(self) -> None:
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in [rule.head] + rule.positive_atoms + rule.negative_atoms:
                known = arities.get(atom.name)
                if known is not None and known != len(atom.args):
                    raise ArityError(
                        f"{atom.name} used with arities {known} and {len(atom.args)}"
                    )
                arities[atom.name] = len(atom.args)
        self.arities = arities

    def is_recursive(self) -> bool:
        """Whether the predicate dependency graph has a cycle."""
        return build_dependency_graph(self.rules).is_recursive()

    def has_negation(self) -> bool:
        return any(rule.has_negation() for rule in self.rules)

    # ------------------------------------------------------------ evaluation
    def evaluate(
        self,
        database: GeneralizedDatabase,
        max_iterations: int = 100_000,
        semi_naive: bool = True,
        semantics: str = "auto",
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        """Bottom-up evaluation to a fixpoint.

        Returns a database extended with the IDB relations, plus statistics.
        The returned world shares the input's EDB relation objects (the
        relations the rules only read; evaluation never writes them) and
        holds copies of IDB-named input relations, so ``database`` itself
        is never modified.  A caller that writes EDB relations of the
        returned world writes the input's: copy the database first, as
        :class:`repro.core.ivm.MaterializedView` does.

        ``semantics`` selects how negation is treated:

        * ``"auto"`` (default): positive programs run semi-naive; programs
          with negation run *stratified* if stratifiable, else inflationary;
        * ``"stratified"``: the least fixpoint of each :meth:`stratify`
          stratum in turn (negation only against fully-computed lower
          strata); raises if not stratifiable;
        * ``"inflationary"``: the paper's inflationary semantics [1, 22, 33]
          -- every round evaluates all rules against the current state and
          adds the derived facts, never retracting.

        ``semi_naive`` picks the rounds of a least fixpoint: semi-naive
        (default) or naive.  Inflationary evaluation always runs naive
        rounds.

        **Resource governance.**  When ``options.budget`` is set (or an
        ambient budget was installed via
        :func:`repro.runtime.budget.supervised`), the loops tick the
        supervisor each round / join step / admitted tuple and raise
        :class:`repro.errors.BudgetExceededError` when a limit trips.  With
        ``partial_results="fringe"`` the evaluator instead returns the
        current world tagged ``stats.incomplete=True``.  That fringe is a
        *sound under-approximation* of the full answer for every semantics:

        * naive/semi-naive least fixpoints only ever add tuples entailed by
          the rules, so any prefix of the iteration is ``subseteq`` the lfp
          (Thm 3.14.1's stage construction);
        * inflationary stages are monotone by definition (Thm 3.14.2) --
          and a *partially applied* round ``S`` with ``J_i subseteq S
          subseteq J_{i+1}`` still sits below the final fixpoint;
        * stratified evaluation runs negation only against *completed*
          lower strata, and a stratum's rounds, naive or semi-naive, are
          stages of its least fixpoint, so an interrupt mid-stratum leaves
          every derived tuple justified by the stratified semantics.

        The fringe can therefore be used as a partial answer (e.g. "these
        pairs are certainly connected") but never as a completeness claim.
        """
        if semantics not in ("auto", "stratified", "inflationary"):
            raise EvaluationError(f"unknown semantics {semantics!r}")
        # the join path consults the program theory's cache; the dedup path
        # (GeneralizedRelation.add) consults the database theory's cache --
        # usually the same object, but the stats deltas must cover both
        # when they differ
        caches = _TheoryCaches((self.theory, database.theory))
        budget = self.options.budget
        meter = budget.start() if budget is not None else active_meter()
        with metered(meter):
            world, stats = self._dispatch(
                database, max_iterations, semi_naive, semantics
            )
        caches.record(stats)
        if self.semantic_report is not None:
            semantic = self.semantic_report.stats
            stats.semantic_rules_subsumed = semantic.rules_subsumed
            stats.semantic_literals_eliminated = semantic.literals_eliminated
            stats.semantic_view_rewrites = semantic.view_rewrites
            stats.semantic_containment_checks = semantic.containment_checks
            stats.semantic_containment_seconds = semantic.containment_seconds
        return world, stats

    def _dispatch(
        self,
        database: GeneralizedDatabase,
        max_iterations: int,
        semi_naive: bool,
        semantics: str,
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        if not self.has_negation():
            strata = [self.rules]
        else:
            strata = None if semantics == "inflationary" else self.stratify()
            if strata is None:
                if semantics == "stratified":
                    raise EvaluationError(
                        "program is not stratifiable (negation through recursion)"
                    )
                # inflationary: one stratum of every rule, in naive rounds
                strata, semi_naive = [self.rules], False
        return self._evaluate_strata(database, strata, max_iterations, semi_naive)

    def stratify(self) -> list[list[Rule]] | None:
        """The strata of stratified evaluation, or None if not stratifiable.

        One stratum per strongly connected component of the IDB predicates
        in the dependency graph (:func:`build_dependency_graph`), callees
        first, each holding its predicates' rules in program order.  A
        program is stratifiable when no negative edge lies inside a
        component, that is, no predicate depends negatively on itself
        through recursion; then every negated IDB predicate lies in a
        strictly earlier stratum than the rule that negates it.
        """
        graph = build_dependency_graph(self.rules)
        if not graph.is_stratifiable():
            return None
        by_component: dict[tuple[str, ...], list[Rule]] = {}
        for rule in self.rules:
            by_component.setdefault(graph.scc_of(rule.head.name), []).append(rule)
        return [by_component[scc] for scc in graph.sccs if scc in by_component]

    def _evaluate_strata(
        self,
        database: GeneralizedDatabase,
        strata: list[list[Rule]],
        max_iterations: int,
        semi_naive: bool,
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        """Bring each stratum to its fixpoint in turn, bottom-up.

        A stratum's first round fires every rule against the whole world.
        Semi-naive rounds continue from what it admitted
        (:meth:`_semi_naive_rounds`); naive rounds repeat the first until a
        round adds nothing.  Positive programs are one stratum of every
        rule, and so are inflationary ones, which run naive rounds.  A
        stratum of :meth:`stratify` negates only predicates of earlier
        strata, which are complete when it runs, so either kind of round
        subtracts a fixed relation.
        """
        world = self._prepare(database)
        stats = EvaluationStats()
        caches = _EvalCaches(self, stats)
        try:
            for rules in strata:
                tasks: list[tuple[Rule, dict | None, int | None]] = [
                    (rule, None, None) for rule in rules
                ]
                number = stats.iterations + 1
                delta = self._round(tasks, world, stats, caches, number, max_iterations)
                if semi_naive:
                    self._semi_naive_rounds(
                        rules, world, stats, caches, delta, max_iterations, number
                    )
                    continue
                while delta:
                    number += 1
                    delta = self._round(
                        tasks, world, stats, caches, number, max_iterations
                    )
        except BudgetExceededError as error:
            return self._budget_interrupt(error, world, stats)
        return world, stats

    def _prepare(self, database: GeneralizedDatabase) -> GeneralizedDatabase:
        # EDB relations enter the world by reference -- evaluation only reads
        # them, so the join indexes on them serve the next evaluation over
        # the same database too.  IDB-named relations are copied because the
        # fixpoint loops add to them.  The copy is free: the tuple budget
        # meters tuples the evaluation derives, not input (the copy also
        # happens before the loops' fringe-interrupt handlers could return
        # a stage)
        idbs = self.idb_predicates()
        world = GeneralizedDatabase(database.theory)
        for relation in database.relations():
            if relation.name in idbs:
                with metered(None):
                    relation = relation.copy()
            world.add_relation(relation)
        for name in sorted(idbs):
            if name not in world:
                arity = self.arities[name]
                world.create_relation(name, positional_variables(arity))
        return world

    def _relation_sizes(self, world: GeneralizedDatabase) -> dict[str, int]:
        """IDB relation sizes of the current stage (divergence forensics)."""
        return {
            name: len(world.relation(name))
            for name in sorted(self.idb_predicates())
            if name in world
        }

    def _diverged(
        self, max_iterations: int, world: GeneralizedDatabase
    ) -> FixpointDivergenceError:
        return FixpointDivergenceError(
            max_iterations, relation_sizes=self._relation_sizes(world)
        )

    def _budget_interrupt(
        self,
        error: BudgetExceededError,
        world: GeneralizedDatabase,
        stats: EvaluationStats,
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        """Fringe mode: return the last sound stage instead of raising.

        Only engages when the *active* budget asked for
        ``partial_results="fringe"``; any other budget trip propagates.  The
        returned world is a sound under-approximation of the full answer
        (see :meth:`evaluate` for the per-semantics argument), tagged with
        ``stats.incomplete`` and the tripping budget's resource report.
        """
        meter = active_meter()
        mode = meter.budget.partial_results if meter is not None else "raise"
        if mode != "fringe":
            raise error
        stats.incomplete = True
        report = getattr(error, "report", None)
        stats.budget = report.as_dict() if report is not None else {}
        return world, stats

    def _semi_naive_rounds(
        self,
        rules: Sequence[Rule],
        world: GeneralizedDatabase,
        stats: EvaluationStats,
        caches: _EvalCaches,
        delta: dict[str, list[GeneralizedTuple]],
        max_iterations: int,
        done: int = 0,
    ) -> dict[str, list[GeneralizedTuple]]:
        """Semi-naive rounds of ``rules`` from ``delta`` -- tuples already
        in ``world`` -- to the fixpoint; returns what each predicate admitted.

        A round fires, in rule order and then body position, each positive
        body atom whose predicate has a non-empty delta, drawing that atom
        from the delta; the tuples it admits are the next delta.  An atom
        with an empty delta fires nothing: it could derive nothing new, and
        a delta no rule reads ends the loop without another round.
        ``done`` rounds already ran.  :meth:`evaluate` and the DRed strata
        of :class:`repro.core.ivm.MaterializedView` both continue here.
        """
        admitted: dict[str, list[GeneralizedTuple]] = {}
        delta = {name: items for name, items in delta.items() if items}
        rounds = done
        while True:
            tasks: list[tuple[Rule, dict | None, int | None]] = [
                (rule, delta, position)
                for rule in rules
                for position, atom in enumerate(rule.positive_atoms)
                if atom.name in delta
            ]
            if not tasks:
                return admitted
            rounds += 1
            delta = self._round(tasks, world, stats, caches, rounds, max_iterations)
            for name, items in delta.items():
                admitted.setdefault(name, []).extend(items)

    def _round(
        self,
        tasks: list[tuple[Rule, dict | None, int | None]],
        world: GeneralizedDatabase,
        stats: EvaluationStats,
        caches: _EvalCaches,
        number: int,
        max_iterations: int,
    ) -> dict[str, list[GeneralizedTuple]]:
        """Round ``number``: fire ``tasks``, add what they derive to
        ``world`` and return what each predicate admitted (the next delta).
        Past ``max_iterations`` the fixpoint diverged."""
        if number > max_iterations:
            raise self._diverged(max_iterations, world)
        stats.iterations += 1
        tick("round")
        derived = self._execute_round(tasks, world, stats, caches)
        delta: dict[str, list[GeneralizedTuple]] = {}
        new_count = 0
        for name, item in derived:
            # add_canonical hands back the canonical tuple the dedup already
            # computed, so the delta reuses the stored form
            stored = world.relation(name).add_canonical(item)
            if stored is not None:
                new_count += 1
                stats.tuples_added += 1
                delta.setdefault(name, []).append(stored)
        stats.per_round_new.append(new_count)
        return delta

    # -------------------------------------------------------- round execution
    def _execute_round(
        self,
        tasks: list[tuple[Rule, dict | None, int | None]],
        world: GeneralizedDatabase,
        stats: EvaluationStats,
        caches: _EvalCaches,
    ) -> list[tuple[str, GeneralizedTuple]]:
        """Fire every (rule, delta, delta-position) task of one round.

        Each task fires its rule's compiled closure chain
        (:meth:`repro.core.compile.CompiledRule.fire`).  With a delta, the
        positive atom at ``delta_position`` draws from the delta instead of
        the full relation (the semi-naive restriction).  Tasks fire in
        order, in the calling thread, and the derived list is their firings
        concatenated in task order -- so the merge into the world (hence
        the fixpoint and its insertion order) is deterministic.  A budget
        trip or chaos fault inside a firing propagates unchanged into the
        drivers' handlers, preserving the supervisor's fringe semantics.
        """
        derived: list[tuple[str, GeneralizedTuple]] = []
        compiled = caches.rules
        for rule, delta, delta_position in tasks:
            derived.extend(
                compiled[id(rule)].fire(world, stats, caches, delta, delta_position)
            )
        return derived
