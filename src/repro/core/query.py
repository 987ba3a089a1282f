"""Demand-driven query evaluation: the engine's query front door.

``Engine.query(goal)`` answers a bound query -- ``T(c, y)``, ``T(x, y),
3 < x, x < 5`` -- without computing the full fixpoint: the program is
rewritten with constraint-generalized magic sets (:mod:`repro.core.magic`),
the bindings are seeded as one generalized tuple, and the rewritten program
flows through the *existing* evaluation stack unchanged -- the semantic
optimizer, the process-wide :data:`repro.core.compile.PLAN_CACHE` (adorned
programs have their own fingerprints, so repeated bound queries of the same
shape warm-hit regardless of the binding constants, which live in the
seeded data) and compiled closures.

On top of the rewrite sits a **query-result reuse cache**
(:class:`QueryCache`): when a new query's binding region is *contained* in
a previously answered one's (decided by the Theorem 2.6 machinery,
:func:`repro.analysis.semantic.query_contained_in`), the cached answers are
re-selected instead of evaluating anything.  Cache entries snapshot the
monotone ``version`` counters of every EDB relation, so any mutation --
including incremental view maintenance through the *shared* relations of
:meth:`repro.core.ivm.MaterializedView.edb_database` -- invalidates them.

With ``EngineOptions.magic`` off, ``query`` evaluates the full fixpoint
and filters: the differential oracle the magic path is checked against by
the conformance ``magic``/``magic_chaos`` strategies.

The module doubles as the ``python -m repro query`` subcommand::

    python -m repro query examples/programs/bounded_reachability.cql \
        'T(x, y), 0 < x, x < 3' --fact 'E(1, 2)' --json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.constraints.base import ConstraintTheory
from repro.core.datalog import (
    DatalogProgram,
    EngineOptions,
    EvaluationStats,
    Rule,
)
from repro.core.generalized import GeneralizedDatabase, GeneralizedRelation
from repro.core.magic import (
    MagicPlan,
    MagicQuery,
    _slot,
    magic_plan,
    parse_goal,
    seed_world,
    select_answers,
)
from repro.errors import EvaluationError

__all__ = ["Engine", "QueryCache", "QueryResult", "main"]


@dataclass
class QueryResult:
    """The answer relation of one query plus plan/evaluation telemetry."""

    relation: GeneralizedRelation
    stats: EvaluationStats
    query: MagicQuery
    adornment: str
    #: magic rules generated by the rewrite (0 on fallback / reuse)
    magic_rules: int
    #: IDB predicates evaluated in full because their cone contains negation
    fallback_predicates: tuple[str, ...] = ()
    #: the whole plan degraded to full evaluation (tagged, never wrong)
    full_fallback: bool = False
    #: answered from the reuse cache without evaluating
    reused: bool = False
    #: tuples in the magic-restricted answer relation before selection
    cone_tuples: int = 0

    def __len__(self) -> int:
        return len(self.relation)

    def sample_points(self) -> list[dict[str, Any]]:
        """One witness point per answer tuple (see the relation's method)."""
        return self.relation.sample_points()

    def as_dict(self) -> dict[str, Any]:
        return {
            "predicate": self.query.predicate,
            "adornment": self.adornment,
            "answers": len(self.relation),
            "answer_keys": sorted(
                sorted(str(atom) for atom in key) for key in self.relation.keys()
            ),
            "cone_tuples": self.cone_tuples,
            "magic_rules": self.magic_rules,
            "fallback_predicates": list(self.fallback_predicates),
            "full_fallback": self.full_fallback,
            "reused": self.reused,
            "stats": self.stats.as_dict(),
        }


@dataclass
class _CacheEntry:
    selection: tuple[Any, ...]
    key: frozenset[Any]
    versions: tuple[tuple[str, int], ...]
    relation: GeneralizedRelation
    adornment: str


class QueryCache:
    """Containment-based query-result reuse (see the module docstring).

    Entries are keyed per predicate; each stores the query's *selection
    region* (its binding/equality/residual atoms over the positional slot
    variables, canonicalized), a snapshot of every EDB relation's monotone
    ``version`` counter, and the post-selection answer relation.  A lookup
    first drops entries whose version snapshot no longer matches (that is
    the IVM-delta invalidation: maintenance mutates the shared relation
    objects in place, bumping their counters), then answers either exactly
    (equal canonical regions) or by containment (the new region provably
    inside a cached one, re-selecting the cached answers).  Containment is
    sound-but-incomplete and only ever fires for the pointwise theories
    (:data:`repro.analysis.semantic.CONTAINMENT_THEORIES`).
    """

    def __init__(self, limit: int = 64) -> None:
        self.limit = limit
        self._entries: dict[str, list[_CacheEntry]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": sum(len(v) for v in self._entries.values()),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    @staticmethod
    def _versions(database: GeneralizedDatabase) -> tuple[tuple[str, int], ...]:
        return tuple(
            (name, database.relation(name).version) for name in database.names()
        )

    @staticmethod
    def _region(
        query: MagicQuery, theory: ConstraintTheory
    ) -> tuple[tuple[Any, ...], frozenset[Any] | None]:
        slots = tuple(_slot(i) for i in range(query.arity))
        selection = query.selection_atoms(slots, theory)
        canonical = theory.canonicalize(selection)
        key = None if canonical is None else frozenset(canonical)
        return selection, key

    def lookup(
        self,
        query: MagicQuery,
        database: GeneralizedDatabase,
        theory: ConstraintTheory,
    ) -> GeneralizedRelation | None:
        from repro.analysis.semantic import (
            CONTAINMENT_THEORIES,
            query_contained_in,
        )

        if theory.name not in CONTAINMENT_THEORIES:
            return None
        entries = self._entries.get(query.predicate)
        if not entries:
            self.misses += 1
            return None
        versions = self._versions(database)
        live = [entry for entry in entries if entry.versions == versions]
        self.invalidations += len(entries) - len(live)
        self._entries[query.predicate] = live
        selection, key = self._region(query, theory)
        if key is None:
            self.misses += 1
            return None
        slots = tuple(_slot(i) for i in range(query.arity))
        for entry in live:
            if entry.key == key:
                self.hits += 1
                return entry.relation.copy()
        for entry in live:
            witness = query_contained_in(selection, entry.selection, slots, theory)
            if witness is not None:
                self.hits += 1
                return select_answers(
                    entry.relation, query, theory, name=entry.relation.name
                )
        self.misses += 1
        return None

    def store(
        self,
        query: MagicQuery,
        database: GeneralizedDatabase,
        theory: ConstraintTheory,
        relation: GeneralizedRelation,
        adornment: str,
    ) -> None:
        from repro.analysis.semantic import CONTAINMENT_THEORIES

        if theory.name not in CONTAINMENT_THEORIES:
            return
        selection, key = self._region(query, theory)
        if key is None:
            return
        entries = self._entries.setdefault(query.predicate, [])
        entries.append(
            _CacheEntry(
                selection=selection,
                key=key,
                versions=self._versions(database),
                relation=relation.copy(),
                adornment=adornment,
            )
        )
        if len(entries) > self.limit:
            del entries[0]


@dataclass
class _Prepared:
    """A constructed program for one (predicate, adornment) query shape."""

    plan: MagicPlan
    program: DatalogProgram


class Engine:
    """The demand-driven query front door over one rule set.

    Constructed programs are memoized per (predicate, adornment, semantics)
    shape -- binding *values* live in the seeded magic relation, not in the
    rules, so a repeated adornment skips the semantic optimizer and hits
    the process-wide plan cache at evaluation time (``stats.compile_hits``).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        theory: ConstraintTheory,
        *,
        options: EngineOptions | None = None,
        database: GeneralizedDatabase | None = None,
        allow_unsafe_recursion: bool = False,
    ) -> None:
        self.rules = list(rules)
        self.theory = theory
        self.options = options if options is not None else EngineOptions()
        self.database = database
        self.allow_unsafe_recursion = allow_unsafe_recursion
        self.cache = QueryCache()
        self._view: Any | None = None
        self._prepared: dict[tuple[str, str, str, bool], _Prepared] = {}

    @classmethod
    def from_view(
        cls, view: Any, *, options: EngineOptions | None = None
    ) -> "Engine":
        """An engine querying a live materialized view's EDB state.

        The view's EDB relations are *shared* (not copied), so maintained
        deltas bump the version counters the reuse cache snapshots --
        cached answers are invalidated by exactly the deltas that could
        change them.
        """
        engine = cls(
            view.program.rules,
            view.theory,
            options=options if options is not None else view.program.options,
        )
        engine._view = view
        return engine

    # ------------------------------------------------------------------ query
    def query(
        self,
        goal: str | MagicQuery,
        database: GeneralizedDatabase | None = None,
        *,
        semantics: str = "auto",
        max_iterations: int = 100_000,
    ) -> QueryResult:
        """Answer ``goal`` against the engine's (or the given) database."""
        query = parse_goal(goal, self.theory) if isinstance(goal, str) else goal
        db = database
        if db is None and self._view is not None:
            db = self._view.edb_database()
        if db is None:
            db = self.database
        if db is None:
            raise EvaluationError(
                "no database: pass one to query() or construct the Engine "
                "with one"
            )
        use_magic = self.options.magic

        if use_magic:
            cached = self.cache.lookup(query, db, self.theory)
            if cached is not None:
                stats = EvaluationStats()
                stats.magic_reuse_hits = 1
                return QueryResult(
                    relation=cached,
                    stats=stats,
                    query=query,
                    adornment=query.adornment,
                    magic_rules=0,
                    reused=True,
                    cone_tuples=len(cached),
                )

        if use_magic:
            plan = magic_plan(self.rules, query, self.theory, semantics)
        else:
            idbs = {rule.head.name for rule in self.rules}
            if query.predicate not in idbs:
                raise EvaluationError(
                    f"{query.predicate} is not an IDB predicate"
                )
            plan = MagicPlan(
                rules=list(self.rules),
                answer=query.predicate,
                adornment=query.adornment,
            )
        prepared = self._prepare(plan, query, semantics, use_magic)
        world = seed_world(db, plan, query)
        result_world, stats = prepared.program.evaluate(
            world, max_iterations=max_iterations, semantics=semantics
        )
        answer = result_world.relation(plan.answer)
        selected = select_answers(
            answer, query, self.theory, name=f"{query.predicate}_answers"
        )
        stats.magic_rules = plan.magic_rules
        stats.magic_fallback_predicates = plan.fallback_predicates
        stats.magic_full_fallback = plan.full_fallback
        stats.magic_cone_tuples = len(answer)
        if use_magic:
            stats.magic_reuse_misses = 1
            self.cache.store(query, db, self.theory, selected, plan.adornment)
        return QueryResult(
            relation=selected,
            stats=stats,
            query=query,
            adornment=plan.adornment,
            magic_rules=plan.magic_rules,
            fallback_predicates=plan.fallback_predicates,
            full_fallback=plan.full_fallback,
            cone_tuples=len(answer),
        )

    def _prepare(
        self, plan: MagicPlan, query: MagicQuery, semantics: str, use_magic: bool
    ) -> _Prepared:
        key = (query.predicate, plan.adornment, semantics, use_magic)
        found = self._prepared.get(key)
        if found is not None:
            # the plan depends only on the query *shape*, so reuse it too
            return found
        program = DatalogProgram(
            plan.rules,
            self.theory,
            allow_unsafe_recursion=self.allow_unsafe_recursion,
            options=self.options,
        )
        prepared = _Prepared(plan=plan, program=program)
        self._prepared[key] = prepared
        return prepared


# ------------------------------------------------------------------- the CLI
def _flatten_conjuncts(formula: Any) -> list[Any]:
    from repro.logic.syntax import And, Exists

    out: list[Any] = []

    def walk(node: Any) -> None:
        if isinstance(node, Exists):
            walk(node.child)
        elif isinstance(node, And):
            for child in node.children:
                walk(child)
        else:
            out.append(node)

    walk(formula)
    return out


def _parse_fact(
    text: str, theory: ConstraintTheory
) -> tuple[str, tuple[str, ...], list[Any]]:
    """Parse ``E(1, 2)`` into (name, argument variables, point values).

    The parser compiles constants into fresh variables plus equality
    constraints; the theory's ``pinned_constants`` recovers the values, and
    every argument must be pinned (facts are ground points).
    """
    from repro.logic.parser import parse_query
    from repro.logic.syntax import Atom, RelationAtom

    conjuncts = _flatten_conjuncts(parse_query(text, theory))
    relations = [c for c in conjuncts if isinstance(c, RelationAtom)]
    if len(relations) != 1:
        raise EvaluationError(f"a fact is one ground relation atom; got {text!r}")
    atom = relations[0]
    constraints = [
        c for c in conjuncts if isinstance(c, Atom) and not isinstance(c, RelationAtom)
    ]
    pinned = theory.pinned_constants(constraints)
    missing = [arg for arg in atom.args if arg not in pinned]
    if missing:
        raise EvaluationError(
            f"fact {text!r} leaves arguments unpinned; facts are ground points"
        )
    return atom.name, atom.args, [pinned[arg] for arg in atom.args]


def _load_database(
    facts: Sequence[str], theory: ConstraintTheory
) -> GeneralizedDatabase:
    database = GeneralizedDatabase(theory)
    for text in facts:
        name, args, values = _parse_fact(text, theory)
        if name in database:
            relation = database.relation(name)
            if relation.arity != len(values):
                raise EvaluationError(
                    f"fact {text!r} disagrees with {name}/{relation.arity}"
                )
        else:
            relation = database.create_relation(
                name, tuple(f"_{i}" for i in range(len(values)))
            )
        relation.add_point(values)
    return database


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro query FILE 'goal(...)'`` -- see the module docstring.

    The program file uses the textual rule syntax plus ``# theory:`` /
    ``# relation:`` directive comments (the cqlint conventions).  Facts are
    supplied with repeatable ``--fact 'E(1, 2)'`` flags.  Reports the
    answers plus the demand-driven plan statistics: magic rules generated,
    restricted-cone size vs. the full fixpoint size of the same predicate.
    """
    from repro.analysis.lint import _build_text_theory, _strip_comments
    from repro.logic.parser import parse_rules

    parser = argparse.ArgumentParser(
        prog="repro query",
        description="demand-driven (magic-set) evaluation of one bound query",
    )
    parser.add_argument("file", help="rule program (.cql, with # directives)")
    parser.add_argument("goal", help="goal, e.g. 'T(0, y)' or 'T(x, y), x < 3'")
    parser.add_argument(
        "--fact",
        action="append",
        default=[],
        metavar="FACT",
        help="ground EDB fact, e.g. 'E(1, 2)' (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--no-magic",
        action="store_true",
        help="full-fixpoint-then-filter (the differential oracle)",
    )
    parser.add_argument(
        "--semantics",
        choices=("auto", "stratified", "inflationary"),
        default="auto",
    )
    args = parser.parse_args(argv)

    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    source, directives = _strip_comments(text)
    theory = _build_text_theory(directives.theory)
    rules = parse_rules(source, theory)
    if not rules:
        print("error: the program has no rules", file=sys.stderr)
        return 2
    database = _load_database(args.fact, theory)
    for name, arity in directives.relations.items():
        if name not in database:
            database.create_relation(name, tuple(f"_{i}" for i in range(arity)))

    engine = Engine(
        rules,
        theory,
        options=replace(EngineOptions(), magic=not args.no_magic),
        database=database,
    )
    try:
        start = time.perf_counter()
        result = engine.query(args.goal, semantics=args.semantics)
        elapsed = time.perf_counter() - start
        full_world, _ = DatalogProgram(rules, theory).evaluate(database)
        full_size = len(full_world.relation(result.query.predicate))
    except EvaluationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.json:
        document = result.as_dict()
        document["full_fixpoint_tuples"] = full_size
        document["seconds"] = elapsed
        json.dump(document, sys.stdout, indent=2, default=str)
        print()
    else:
        print(str(result.relation))
        if not engine.options.magic:
            mode = "full fixpoint (magic off)"
        elif result.full_fallback:
            mode = "full-evaluation fallback"
        else:
            mode = "magic"
        print(
            f"-- {len(result)} answer(s) [{result.query.predicate}^"
            f"{result.adornment}, {mode}] in {elapsed:.4f}s"
        )
        print(
            f"-- {result.magic_rules} magic rule(s); cone "
            f"{result.cone_tuples} tuple(s) vs full fixpoint {full_size}"
        )
        if result.fallback_predicates:
            print(
                "-- full evaluation for negation strata: "
                + ", ".join(result.fallback_predicates)
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
