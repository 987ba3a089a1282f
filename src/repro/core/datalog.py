"""Datalog and inflationary Datalog-not with constraints (Sections 1.2, 3, 4).

A rule is ``head :- literals`` where the head is a database atom with
distinct variables and each body literal is a database atom, a negated
database atom (Datalog-not only), or a constraint atom of the active theory
(Definition 1.10).  The engine provides:

* **naive** and **semi-naive** bottom-up evaluation to the least fixpoint
  for positive programs -- rule firing joins the body tuples' constraint
  conjunctions, checks satisfiability, eliminates body-only variables
  (closed form!), canonicalizes, and adds the head tuple;
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

import itertools
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Sequence

from repro.constraints.base import ConstraintTheory
from repro.core import compile as rulecompile
from repro.core.calculus import relation_complement_dnf
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
    GeneralizedTuple,
)
from repro.errors import (
    ArityError,
    BudgetExceededError,
    EvaluationError,
    FixpointDivergenceError,
    NotClosedError,
    StaticAnalysisError,
)
from repro.indexing.pool import JoinIndexPool
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
    """Per-optimization toggles for the constraint-engine fast path.

    Everything defaults to on; ``benchmarks/bench_ablation.py`` flips the
    flags individually to measure what each layer contributes.
    """

    #: memoize ``canonicalize``/``is_satisfiable`` on the theory (TheoryCache)
    theory_cache: bool = True
    #: cache each tuple's renamed atom tuple per (relation, body-atom) pair
    rename_cache: bool = True
    #: extend the parent conjunction's solver state in the depth-first join
    #: instead of re-deciding the whole partial conjunction at every level
    incremental_join: bool = True
    #: cache the complement DNF of negated relations per (name, version)
    complement_cache: bool = True
    #: reject join candidates whose pinned constants conflict with the
    #: partial conjunction before consulting the solver at all
    pin_filter: bool = True
    #: reorder each rule's positive atoms by estimated selectivity before
    #: the depth-first join, re-planned every round (delta/relation sizes
    #: change between rounds, so the best order does too)
    join_planner: bool = True
    #: probe incrementally-maintained generalized 1-d indexes
    #: (:class:`repro.indexing.pool.JoinIndexPool`) when the partial
    #: conjunction pins or interval-bounds a join variable, instead of
    #: scanning the full renamed choice list
    index_probes: bool = True
    #: lower planned rules to specialized closures (:mod:`repro.core.compile`)
    #: cached in the process-wide PlanCache; off, the interpreted join is the
    #: differential oracle the compiled path is checked against
    compile_rules: bool = True
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
        return cls(
            theory_cache=False,
            rename_cache=False,
            incremental_join=False,
            complement_cache=False,
            pin_filter=False,
            join_planner=False,
            index_probes=False,
            compile_rules=False,
            optimize_semantic=False,
        )

    def as_dict(self) -> dict[str, bool]:
        return {
            "theory_cache": self.theory_cache,
            "rename_cache": self.rename_cache,
            "incremental_join": self.incremental_join,
            "complement_cache": self.complement_cache,
            "pin_filter": self.pin_filter,
            "join_planner": self.join_planner,
            "index_probes": self.index_probes,
            "compile_rules": self.compile_rules,
            "optimize_semantic": self.optimize_semantic,
        }


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
    complement_cache_hits: int = 0
    complement_cache_misses: int = 0
    theory_cache_hits: int = 0
    theory_cache_misses: int = 0
    plans_built: int = 0
    plan_reorders: int = 0
    index_probes: int = 0
    index_candidates: int = 0
    index_scan_avoided: int = 0
    #: PlanCache traffic for this evaluation (compiled path only)
    compile_hits: int = 0
    compile_misses: int = 0
    compile_invalidations: int = 0
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
    #: overdeletion/rederivation traffic, counting-support clamps (0 unless
    #: the support invariant broke), strata recomputed by the fallback
    #: paths, and wall-clock spent maintaining (the bench compares this
    #: against from-scratch evaluation time)
    ivm_steps: int = 0
    ivm_inserts: int = 0
    ivm_retracts: int = 0
    ivm_derived_added: int = 0
    ivm_derived_removed: int = 0
    ivm_overdeleted: int = 0
    ivm_rederived: int = 0
    ivm_count_clamps: int = 0
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
        had alternative derivations) -- the signature workload where counting
        would have been cheaper; 0.0 when nothing was overdeleted.
        """
        if not self.ivm_overdeleted:
            return 0.0
        return self.ivm_rederived / self.ivm_overdeleted

    @property
    def cache_hits(self) -> int:
        """Total fast-path cache hits across all three cache layers."""
        return (
            self.rename_cache_hits
            + self.complement_cache_hits
            + self.theory_cache_hits
        )

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

    #: additive counters folded by :meth:`merge`; iteration/round
    #: bookkeeping (``iterations``, ``per_round_new``) is left alone
    _MERGE_FIELDS = (
        "rule_firings",
        "join_steps",
        "tuples_derived",
        "sat_checks",
        "join_prunes",
        "pin_prunes",
        "closure_extensions",
        "rename_cache_hits",
        "rename_cache_misses",
        "complement_cache_hits",
        "complement_cache_misses",
        "plans_built",
        "plan_reorders",
        "index_probes",
        "index_candidates",
        "index_scan_avoided",
        "compile_hits",
        "compile_misses",
        "compile_invalidations",
        "compiled_rules",
        "compiled_firings",
        "fastpath_leaves",
        "compile_seconds",
        "ivm_steps",
        "ivm_inserts",
        "ivm_retracts",
        "ivm_derived_added",
        "ivm_derived_removed",
        "ivm_overdeleted",
        "ivm_rederived",
        "ivm_count_clamps",
        "ivm_recomputed_strata",
        "ivm_maintain_seconds",
    )

    def merge(self, other: "EvaluationStats") -> None:
        """Add ``other``'s additive counters into this aggregate (the view's
        cumulative stats sum per-apply stats this way)."""
        for name in self._MERGE_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class _EvalCaches:
    """Per-evaluation cache state (one per ``evaluate`` call).

    ``rename`` maps (relation name, body-atom args) to {id(tuple): (tuple,
    renamed atoms)}; the stored tuple reference keeps the id stable.  The
    cache is value-correct across rounds because renaming is a pure function
    of the tuple and the target argument names.

    ``complement`` maps (relation name, args, content version) to the
    complement DNF, so unchanged relations are never recomplemented.

    ``pool`` holds the evaluation's :class:`JoinIndexPool` (None when index
    probing is off or the theory has no generalized index).

    ``compiled`` is the evaluation's :class:`repro.core.compile.
    CompiledProgram` (None when ``compile_rules`` is off), fetched from the
    process-wide PlanCache at construction.  Because each ``evaluate()``
    builds a fresh ``_EvalCaches`` and the fetch keys on the *current*
    ``EngineOptions``, closures specialized for stale options can never
    leak into an evaluation whose options changed in between (the cache
    invalidates the old entry and reports it in the stats).  ``centries``
    (classified entry records per tuple), ``cscan`` (scan lists per
    relation content version) and ``cprobe`` (probe results per content
    version) are the compiled path's per-evaluation caches.
    """

    __slots__ = (
        "rename",
        "complement",
        "pool",
        "compiled",
        "centries",
        "cscan",
        "cprobe",
    )

    def __init__(
        self,
        options: EngineOptions,
        theory: ConstraintTheory,
        program: "DatalogProgram | None" = None,
        stats: EvaluationStats | None = None,
    ) -> None:
        self.rename: dict | None = {} if options.rename_cache else None
        self.complement: dict | None = {} if options.complement_cache else None
        self.pool: JoinIndexPool | None = None
        if options.index_probes:
            pool = JoinIndexPool(theory)
            self.pool = pool if pool.supported else None
        self.compiled: rulecompile.CompiledProgram | None = None
        # entry/scan caches honor the rename-cache ablation flag (they are
        # the compiled path's analogue of the interpreter's rename cache);
        # the probe cache is version-keyed and always safe
        self.centries: dict | None = {} if options.rename_cache else None
        self.cscan: dict | None = {} if options.rename_cache else None
        self.cprobe: dict | None = {}
        if program is not None and options.compile_rules:
            started = time.perf_counter()
            compiled, hit, invalidated = rulecompile.PLAN_CACHE.fetch(program)
            self.compiled = compiled
            if stats is not None:
                stats.compile_hits += 1 if hit else 0
                stats.compile_misses += 0 if hit else 1
                stats.compile_invalidations += 1 if invalidated else 0
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

    def dependency_edges(self) -> set[tuple[str, str]]:
        """(head, body-predicate) edges over IDB predicates."""
        idbs = self.idb_predicates()
        edges = set()
        for rule in self.rules:
            for atom in rule.positive_atoms + rule.negative_atoms:
                if atom.name in idbs:
                    edges.add((rule.head.name, atom.name))
        return edges

    def is_recursive(self) -> bool:
        """Whether the IDB dependency graph has a cycle."""
        edges = self.dependency_edges()
        graph: dict[str, set[str]] = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
        state: dict[str, int] = {}

        def visit(node: str) -> bool:
            state[node] = 1
            for succ in graph.get(node, ()):
                mark = state.get(succ, 0)
                if mark == 1:
                    return True
                if mark == 0 and visit(succ):
                    return True
            state[node] = 2
            return False

        return any(state.get(node, 0) == 0 and visit(node) for node in graph)

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

        ``semantics`` selects how negation is treated:

        * ``"auto"`` (default): positive programs run semi-naive; programs
          with negation run *stratified* if stratifiable, else inflationary;
        * ``"stratified"``: stratum-by-stratum least fixpoints (negation only
          against fully-computed lower strata); raises if not stratifiable;
        * ``"inflationary"``: the paper's inflationary semantics [1, 22, 33]
          -- every round evaluates all rules against the current state and
          adds the derived facts, never retracting.

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
          lower strata, so an interrupt mid-stratum leaves every derived
          tuple justified by the stratified semantics.

        The fringe can therefore be used as a partial answer (e.g. "these
        pairs are certainly connected") but never as a completeness claim.
        """
        if semantics not in ("auto", "stratified", "inflationary"):
            raise EvaluationError(f"unknown semantics {semantics!r}")
        # the join path consults the program theory's cache; the dedup path
        # (GeneralizedRelation.add) consults the database theory's cache --
        # usually the same object, but the ablation toggle and the stats
        # deltas must cover both when they differ
        caches = []
        for theory in (self.theory, database.theory):
            cache = theory.cache
            if cache is not None and all(cache is not c for c in caches):
                caches.append(cache)
        prior_enabled = [c.enabled for c in caches]
        for c in caches:
            c.enabled = self.options.theory_cache
        before = [c.stats.snapshot() for c in caches]
        budget = self.options.budget
        meter = budget.start() if budget is not None else active_meter()
        try:
            with metered(meter):
                world, stats = self._dispatch(
                    database, max_iterations, semi_naive, semantics
                )
        finally:
            for c, enabled in zip(caches, prior_enabled):
                c.enabled = enabled
        for c, (hits_before, misses_before) in zip(caches, before):
            hits, misses = c.stats.snapshot()
            stats.theory_cache_hits += hits - hits_before
            stats.theory_cache_misses += misses - misses_before
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
            if semi_naive:
                return self._evaluate_semi_naive(database, max_iterations)
            return self._evaluate_naive(database, max_iterations)
        if semantics == "inflationary":
            return self._evaluate_inflationary(database, max_iterations)
        strata = self.stratify()
        if strata is None:
            if semantics == "stratified":
                raise EvaluationError(
                    "program is not stratifiable (negation through recursion)"
                )
            return self._evaluate_inflationary(database, max_iterations)
        return self._evaluate_stratified(database, strata, max_iterations)

    def stratify(self) -> list[list[Rule]] | None:
        """Partition rules into strata, or None if not stratifiable.

        A program is stratifiable when no predicate depends negatively on
        itself through recursion: build the dependency graph with edge
        labels, reject negative edges inside a strongly connected component,
        and order components topologically.
        """
        idbs = self.idb_predicates()
        positive_edges: set[tuple[str, str]] = set()
        negative_edges: set[tuple[str, str]] = set()
        for rule in self.rules:
            for atom in rule.positive_atoms:
                if atom.name in idbs:
                    positive_edges.add((rule.head.name, atom.name))
            for atom in rule.negative_atoms:
                if atom.name in idbs:
                    negative_edges.add((rule.head.name, atom.name))
        # stratum numbers by iteration to a fixpoint (Ullman's algorithm)
        stratum = {name: 0 for name in idbs}
        changed = True
        while changed:
            changed = False
            for head, body in positive_edges:
                if stratum[head] < stratum[body]:
                    stratum[head] = stratum[body]
                    changed = True
            for head, body in negative_edges:
                if stratum[head] < stratum[body] + 1:
                    stratum[head] = stratum[body] + 1
                    changed = True
            # in a stratifiable program no stratum exceeds the predicate
            # count; a negative cycle pushes values past that bound
            if any(level > len(idbs) for level in stratum.values()):
                return None
        buckets: dict[int, list[Rule]] = {}
        for rule in self.rules:
            buckets.setdefault(stratum[rule.head.name], []).append(rule)
        return [buckets[level] for level in sorted(buckets)]

    def _evaluate_stratified(
        self,
        database: GeneralizedDatabase,
        strata: list[list[Rule]],
        max_iterations: int,
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        world = self._prepare(database)
        stats = EvaluationStats()
        caches = _EvalCaches(self.options, self.theory, program=self, stats=stats)
        try:
            for stratum_rules in strata:
                while True:
                    stats.iterations += 1
                    if stats.iterations > max_iterations:
                        raise self._diverged(max_iterations, world)
                    tick("round")
                    tasks = [(rule, None, None) for rule in stratum_rules]
                    derived = self._execute_round(tasks, world, stats, caches)
                    new_count = 0
                    for name, item in derived:
                        if world.relation(name).add(item):
                            new_count += 1
                            stats.tuples_added += 1
                    stats.per_round_new.append(new_count)
                    if new_count == 0:
                        break
        except BudgetExceededError as error:
            return self._budget_interrupt(error, world, stats)
        return world, stats

    def _prepare(self, database: GeneralizedDatabase) -> GeneralizedDatabase:
        # input materialization is free: the tuple budget meters tuples the
        # evaluation derives, not the EDB copy (which also happens before
        # the loops' fringe-interrupt handlers could return a sound stage)
        with metered(None):
            world = database.copy()
        for name in sorted(self.idb_predicates()):
            if name not in world:
                arity = self.arities[name]
                world.create_relation(name, tuple(f"_{i}" for i in range(arity)))
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

    def _evaluate_naive(
        self, database: GeneralizedDatabase, max_iterations: int
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        world = self._prepare(database)
        stats = EvaluationStats()
        caches = _EvalCaches(self.options, self.theory, program=self, stats=stats)
        try:
            while True:
                stats.iterations += 1
                if stats.iterations > max_iterations:
                    raise self._diverged(max_iterations, world)
                tick("round")
                new_count = 0
                tasks = [(rule, None, None) for rule in self.rules]
                derived = self._execute_round(tasks, world, stats, caches)
                for name, item in derived:
                    if world.relation(name).add(item):
                        new_count += 1
                        stats.tuples_added += 1
                stats.per_round_new.append(new_count)
                if new_count == 0:
                    return world, stats
        except BudgetExceededError as error:
            return self._budget_interrupt(error, world, stats)

    def _evaluate_semi_naive(
        self, database: GeneralizedDatabase, max_iterations: int
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        world = self._prepare(database)
        stats = EvaluationStats()
        caches = _EvalCaches(self.options, self.theory, program=self, stats=stats)
        idbs = self.idb_predicates()
        # deltas: tuples added in the previous round
        delta: dict[str, list[GeneralizedTuple]] = {
            name: [] for name in idbs
        }
        first_round = True
        try:
            return self._semi_naive_loop(
                world, stats, caches, idbs, delta, first_round, max_iterations
            )
        except BudgetExceededError as error:
            return self._budget_interrupt(error, world, stats)

    def _semi_naive_loop(
        self,
        world: GeneralizedDatabase,
        stats: EvaluationStats,
        caches: _EvalCaches,
        idbs: set[str],
        delta: dict[str, list[GeneralizedTuple]],
        first_round: bool,
        max_iterations: int,
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        while True:
            stats.iterations += 1
            if stats.iterations > max_iterations:
                raise self._diverged(max_iterations, world)
            tick("round")
            tasks: list[tuple[Rule, dict | None, int | None]] = []
            for rule in self.rules:
                idb_positions = [
                    i
                    for i, atom in enumerate(rule.positive_atoms)
                    if atom.name in idbs
                ]
                if first_round or not idb_positions:
                    if first_round:
                        tasks.append((rule, None, None))
                    continue
                # at least one IDB body atom must come from the delta
                for delta_position in idb_positions:
                    tasks.append((rule, delta, delta_position))
            derived = self._execute_round(tasks, world, stats, caches)
            new_delta: dict[str, list[GeneralizedTuple]] = {name: [] for name in idbs}
            new_count = 0
            for name, item in derived:
                relation = world.relation(name)
                # add_canonical hands back the canonical tuple the dedup
                # already computed, so the delta reuses the stored form
                stored = relation.add_canonical(item)
                if stored is not None:
                    new_count += 1
                    stats.tuples_added += 1
                    new_delta[name].append(stored)
            stats.per_round_new.append(new_count)
            delta = new_delta
            first_round = False
            if new_count == 0:
                return world, stats

    def _evaluate_inflationary(
        self, database: GeneralizedDatabase, max_iterations: int
    ) -> tuple[GeneralizedDatabase, EvaluationStats]:
        world = self._prepare(database)
        stats = EvaluationStats()
        caches = _EvalCaches(self.options, self.theory, program=self, stats=stats)
        try:
            while True:
                stats.iterations += 1
                if stats.iterations > max_iterations:
                    raise self._diverged(max_iterations, world)
                tick("round")
                tasks = [(rule, None, None) for rule in self.rules]
                derived = self._execute_round(tasks, world, stats, caches)
                new_count = 0
                for name, item in derived:
                    if world.relation(name).add(item):
                        new_count += 1
                        stats.tuples_added += 1
                stats.per_round_new.append(new_count)
                if new_count == 0:
                    return world, stats
        except BudgetExceededError as error:
            return self._budget_interrupt(error, world, stats)

    # -------------------------------------------------------- round execution
    def _execute_round(
        self,
        tasks: list[tuple[Rule, dict | None, int | None]],
        world: GeneralizedDatabase,
        stats: EvaluationStats,
        caches: _EvalCaches,
    ) -> list[tuple[str, GeneralizedTuple]]:
        """Fire every (rule, delta, delta-position) task of one round.

        Tasks fire in order, in the calling thread, and the derived list is
        their firings concatenated in task order -- so the merge into the
        world (hence the fixpoint and its insertion order) is deterministic.
        A budget trip or chaos fault inside a firing propagates unchanged
        into the drivers' handlers, preserving the supervisor's fringe
        semantics.
        """
        derived: list[tuple[str, GeneralizedTuple]] = []
        for rule, delta, delta_position in tasks:
            derived.extend(
                self._fire(rule, world, stats, caches, delta, delta_position)
            )
        return derived

    # ------------------------------------------------------------ rule firing
    def _plan(
        self,
        positives: Sequence[RelationAtom],
        sizes: Sequence[int],
        pinned: set[str],
        stats: EvaluationStats,
    ) -> list[int]:
        """Greedy selectivity order over the rule's positive atoms.

        Atoms sharing more variables with the already-bound set join more
        selectively (every shared variable is an equi-join the pin filter
        and the index probes exploit), so pick by descending connectivity,
        breaking ties toward the smaller source and then the original
        position (determinism).  ``pinned`` seeds the bound set with the
        constants the rule's constraint atoms force.  Called once per
        (rule, round), so the order tracks the changing delta/relation
        cardinalities as the fixpoint grows.
        """
        n = len(positives)
        if n <= 1:
            return list(range(n))
        stats.plans_built += 1
        # the greedy core lives in repro.core.compile (plan_order) so the
        # compiled closures provably share the interpreter's ordering
        order = rulecompile.plan_order(
            [atom.args for atom in positives], sizes, pinned
        )
        if order != sorted(order):
            stats.plan_reorders += 1
        return order

    def _renamed_tuples(
        self,
        atom: RelationAtom,
        source: Iterable[GeneralizedTuple],
        caches: _EvalCaches,
        stats: EvaluationStats,
        want_pins: bool,
    ) -> list[tuple[tuple[Atom, ...], dict | None]]:
        """Each source tuple's atoms renamed onto the body atom's arguments,
        paired with its pinned-constant map when the pin filter is active.

        Renaming is a pure function of (tuple, target args), so results are
        cached per (relation, body-atom) pair across rounds; the cached entry
        keeps the tuple reference, pinning its id for the dict key.
        """
        theory = self.theory
        if caches.rename is None:
            return [
                (
                    renamed := tuple(t.rename(atom.args).atoms),
                    theory.pinned_constants(renamed) if want_pins else None,
                )
                for t in source
            ]
        per_atom = caches.rename.setdefault((atom.name, atom.args), {})
        renamed_list: list[tuple[tuple[Atom, ...], dict | None]] = []
        for t in source:
            entry = per_atom.get(id(t))
            if entry is None:
                renamed = tuple(t.rename(atom.args).atoms)
                pins = dict(theory.pinned_constants(renamed)) if want_pins else None
                per_atom[id(t)] = (t, renamed, pins)
                stats.rename_cache_misses += 1
            else:
                renamed, pins = entry[1], entry[2]
                if want_pins and pins is None:
                    pins = dict(theory.pinned_constants(renamed))
                    per_atom[id(t)] = (t, renamed, pins)
                stats.rename_cache_hits += 1
            renamed_list.append((renamed, pins))
        return renamed_list

    def _complement(
        self,
        atom: RelationAtom,
        relation: GeneralizedRelation,
        caches: _EvalCaches,
        stats: EvaluationStats,
    ) -> list[tuple[Atom, ...]]:
        """Complement DNF of a negated body atom, cached per content version."""
        if caches.complement is None:
            return relation_complement_dnf(relation, atom.args, self.theory)
        key = (atom.name, atom.args, relation.version)
        cached = caches.complement.get(key)
        if cached is None:
            cached = relation_complement_dnf(relation, atom.args, self.theory)
            caches.complement[key] = cached
            stats.complement_cache_misses += 1
        else:
            stats.complement_cache_hits += 1
        return cached

    def _fire(
        self,
        rule: Rule,
        world: GeneralizedDatabase,
        stats: EvaluationStats,
        caches: _EvalCaches,
        delta: dict[str, list[GeneralizedTuple]] | None = None,
        delta_position: int | None = None,
    ) -> list[tuple[str, GeneralizedTuple]]:
        """All head tuples derivable by one firing of ``rule``.

        With ``delta``/``delta_position`` set, the positive atom at that
        position draws from the delta instead of the full relation
        (semi-naive restriction).  The delta restriction survives the join
        planner's reordering because the delta source is attached to the
        atom *before* planning -- the plan permutes (atom, source) pairs.

        With ``compile_rules`` on, the firing is delegated to the rule's
        compiled closure chain (:mod:`repro.core.compile`), which enumerates
        exactly the same candidates in the same order; the interpreted body
        below is the differential oracle the compiled path is tested
        against (and the fallback for rules the cache cannot resolve).
        """
        compiled = caches.compiled
        if compiled is not None:
            fired = compiled.fire(rule, world, stats, caches, delta, delta_position)
            if fired is not None:
                return fired
        positives = rule.positive_atoms
        options = self.options
        pin_filter = options.pin_filter
        theory = self.theory
        constraints = tuple(rule.constraint_atoms)
        need_pins = pin_filter or options.join_planner
        root_pin_map = (
            dict(theory.pinned_constants(constraints)) if need_pins else {}
        )

        # (body atom, tuple source, indexable relation or None); deltas are
        # consumed once per round, so indexing them would cost more than the
        # scan they replace
        sources: list[
            tuple[RelationAtom, Iterable[GeneralizedTuple], GeneralizedRelation | None]
        ] = []
        sizes: list[int] = []
        for index, atom in enumerate(positives):
            relation = world.relation(atom.name)
            if delta is not None and index == delta_position:
                source = delta.get(atom.name, [])
                sources.append((atom, source, None))
                sizes.append(len(source))
            else:
                sources.append((atom, relation, relation))
                sizes.append(len(relation))
        if options.join_planner:
            order = self._plan(positives, sizes, set(root_pin_map), stats)
        else:
            order = list(range(len(positives)))
        plan = [sources[i] for i in order]
        negated_dnfs: list[list[tuple[Atom, ...]]] = [
            self._complement(atom, world.relation(atom.name), caches, stats)
            for atom in rule.negative_atoms
        ]
        head_vars = rule.head.args
        body_vars = rule.variables()
        drop = tuple(v for v in body_vars if v not in head_vars)
        results: list[tuple[str, GeneralizedTuple]] = []
        incremental = options.incremental_join
        pool = caches.pool
        slots = len(plan)
        #: lazily-materialized full scan lists, one per plan slot -- a slot
        #: every probe answers never pays for renaming its whole relation
        scan_lists: list[list[tuple[tuple[Atom, ...], dict | None]] | None] = [
            None
        ] * slots

        def scan_entries(slot: int) -> list[tuple[tuple[Atom, ...], dict | None]]:
            entries = scan_lists[slot]
            if entries is None:
                atom, source, _relation = plan[slot]
                entries = self._renamed_tuples(atom, source, caches, stats, pin_filter)
                scan_lists[slot] = entries
            return entries

        def probe_entries(
            slot: int, context, pins: dict | None
        ) -> list[tuple[tuple[Atom, ...], dict | None]] | None:
            """Index-backed candidates for a slot, or None to scan.

            Prefers an exact pin (probe [c, c]); otherwise asks the theory
            for interval bounds the partial conjunction forces on an
            argument variable -- only under the incremental join, where the
            context carries solver state (rebuilding a closure per probe
            would cost more than the scan it avoids).
            """
            atom, _source, relation = plan[slot]
            if relation is None or not relation:
                return None
            best = None
            if pins is not None:
                for position, var in enumerate(atom.args):
                    value = pins.get(var)
                    if isinstance(value, Fraction):
                        best = (position, value, value)
                        break
            if best is None and incremental:
                for position, var in enumerate(atom.args):
                    bounds = theory.conjunction_bounds(context, var)
                    if bounds is not None:
                        best = (position, bounds[0], bounds[1])
                        break
            if best is None:
                return None
            position, low, high = best
            candidates = pool.probe(relation, relation.variables[position], low, high)
            if candidates is None:
                return None
            stats.index_probes += 1
            stats.index_candidates += len(candidates)
            stats.index_scan_avoided += len(relation) - len(candidates)
            return self._renamed_tuples(atom, candidates, caches, stats, pin_filter)

        def fire_leaf(partial: tuple[Atom, ...]) -> None:
            for negated in self._expand_negations(negated_dnfs):
                stats.rule_firings += 1
                conjunction = partial + negated
                if negated:
                    stats.sat_checks += 1
                    if not theory.is_satisfiable(conjunction):
                        stats.join_prunes += 1
                        continue
                for eliminated in theory.eliminate(conjunction, drop):
                    stats.tuples_derived += 1
                    results.append(
                        (
                            rule.head.name,
                            GeneralizedTuple(head_vars, eliminated),
                        )
                    )

        def extend(index: int, context, pins: dict | None) -> None:
            """Depth-first join with incremental satisfiability pruning:
            a partial combination that is already inconsistent (e.g. a key
            mismatch) cuts the whole subtree of tuple choices.  With the
            incremental fast path, each level extends the parent's solver
            state (the dense-order closure) instead of re-closing the whole
            partial conjunction from scratch.  ``pins`` carries the partial
            conjunction's forced variable=constant bindings; a candidate that
            pins a shared variable to a different constant is unsatisfiable
            with the partial conjunction, so it is rejected by a dictionary
            comparison before the solver is consulted at all.  When the
            partial conjunction pins or interval-bounds one of the slot's
            variables, the slot's candidates come from the generalized
            index instead of the full scan list."""
            if index == slots:
                fire_leaf(context.atoms if incremental else context)
                return
            entries = None
            if pool is not None:
                entries = probe_entries(index, context, pins)
            if entries is None:
                entries = scan_entries(index)
            for renamed, cand_pins in entries:
                stats.join_steps += 1
                tick("join")
                if pins is not None and cand_pins:
                    conflict = False
                    for var, value in cand_pins.items():
                        known = pins.get(var, value)
                        if known != value:
                            conflict = True
                            break
                    if conflict:
                        stats.pin_prunes += 1
                        stats.join_prunes += 1
                        continue
                    child_pins = {**pins, **cand_pins}
                else:
                    child_pins = pins
                if incremental:
                    child = theory.extend_conjunction(context, renamed)
                    stats.closure_extensions += 1
                    if not child.satisfiable:
                        stats.join_prunes += 1
                        continue
                    extend(index + 1, child, child_pins)
                else:
                    candidate = context + renamed
                    stats.sat_checks += 1
                    if not theory.is_satisfiable(candidate):
                        stats.join_prunes += 1
                        continue
                    extend(index + 1, candidate, child_pins)

        root_pins = dict(root_pin_map) if pin_filter else None
        if incremental:
            root = theory.begin_conjunction(constraints)
            stats.sat_checks += 1
            if root.satisfiable:
                extend(0, root, root_pins)
        else:
            stats.sat_checks += 1
            if theory.is_satisfiable(constraints):
                extend(0, constraints, root_pins)
        return results

    @staticmethod
    def _expand_negations(
        negated_dnfs: list[list[tuple[Atom, ...]]]
    ) -> Iterable[tuple[Atom, ...]]:
        if not negated_dnfs:
            yield ()
            return
        for combo in itertools.product(*negated_dnfs):
            merged: tuple[Atom, ...] = ()
            for part in combo:
                merged = merged + part
            yield merged
