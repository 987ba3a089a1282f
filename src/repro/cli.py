"""An interactive constraint-database shell.

A small REPL over the CQL engines, so the system can be explored without
writing Python::

    $ python -m repro
    cql> .theory dense_order
    cql> .relation R(n, x)
    cql> .tuple R: n = 1 and 0 <= x and x <= 4
    cql> .point R: 2, 9
    cql> .query exists x . R(n, x) and x < 2
    result(n):
      (n) where n = 1
    cql> .rule T(a, b) :- E(a, b).
    cql> .run
    cql> .quit

Commands: ``.theory``, ``.relation``, ``.tuple``, ``.point``, ``.query``,
``.rule``, ``.run``, ``.view``, ``.insert``, ``.retract``, ``.plan``,
``.show``, ``.list``, ``.help``, ``.quit``.

``.view on`` registers the accumulated rules as a live materialized view
over the current database; from then on ``.insert``/``.retract`` apply
deltas and the derived relations are maintained incrementally (counting /
DRed through the same compiled closures ``.run`` uses) instead of being
recomputed::

    cql> .rule T(a, b) :- E(a, b).
    cql> .rule T(a, c) :- T(a, b), E(b, c).
    cql> .view on
    cql> .insert E: x = 1 and y = 2
    cql> .retract E: x = 1 and y = 2
    cql> .view
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ivm import MaterializedView

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.constraints.real_poly import RealPolynomialTheory
from repro.core.calculus import evaluate_calculus
from repro.core.datalog import DatalogProgram, EngineOptions, Rule
from repro.core.generalized import GeneralizedDatabase
from repro.errors import ReproError
from repro.logic.parser import parse_query, parse_rules
from repro.logic.syntax import And, Atom, Formula
from repro.runtime.budget import Budget, parse_budget_spec, supervised

THEORIES: dict[str, Callable[[], object]] = {
    "dense_order": DenseOrderTheory,
    "equality": EqualityTheory,
    "real_poly": RealPolynomialTheory,
}

HELP = """commands:
  .theory NAME            switch theory (dense_order | equality | real_poly);
                          resets the database
  .relation R(x, y)       declare a generalized relation
  .tuple R: CONSTRAINTS   add a generalized tuple, e.g. .tuple R: 0 <= x and x <= 4
  .point R: v1, v2        add a classical ground tuple
  .query FORMULA          evaluate a query.  A quantifier-free goal naming a
                          rule head -- .query T(0, y) or .query T(x, y), x < 3
                          -- runs demand-driven (magic sets): only the cone
                          relevant to the bindings is derived, no .run needed.
                          Anything else is a calculus query over the current
                          database, e.g. exists x . R(n, x)
  .rule HEAD :- BODY.     add a Datalog rule
  .run                    evaluate the accumulated rules to their fixpoint
  .view [on|off|refresh]  maintain the rules as a live materialized view:
                          .view on registers it, .insert/.retract then update
                          the fixpoint incrementally; bare .view shows status
                          (mode, staleness, maintenance counters); .view
                          refresh rebuilds a stale view from scratch
  .insert R: CONSTRAINTS  insert a generalized tuple through the view
  .retract R: CONSTRAINTS retract a generalized tuple through the view
  .budget SPEC            resource budget for .run/.query, e.g.
                          .budget deadline=0.05 rounds=100 fringe
                          (.budget off clears it; bare .budget shows it)
  .engine [FLAG=on|off]   show or toggle fast-path flags for .run, e.g.
                          .engine index_probes=off join_planner=on
                          (.engine all_on / .engine all_off reset the lot;
                          also reports the rule-compiler plan-cache state)
  .plan RULE              pretty-print the lowered IR for a rule, by head
                          predicate name or 1-based position in .list order
  .analyze                semantic analysis of the accumulated rules:
                          subsumption, literal elimination, constraint
                          tightening, unsat pruning (CQL040-range report
                          plus the minimized rule set; report-only)
  .show R                 print a relation
  .list                   list relations and rules
  .help                   this text
  .quit                   leave"""


class Shell:
    """State and command dispatch for the REPL (testable without a TTY)."""

    def __init__(self, out: TextIO | None = None) -> None:
        import sys

        self.out = out or sys.stdout
        self.theory_name = "dense_order"
        self.theory = DenseOrderTheory()
        self.db = GeneralizedDatabase(self.theory)
        self.rules: list[Rule] = []
        self.budget: Budget | None = None
        self.engine = EngineOptions()
        self.view: MaterializedView | None = None

    def write(self, text: str) -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------- dispatch
    def handle(self, line: str) -> bool:
        """Process one line; returns False when the shell should exit."""
        line = line.strip()
        if not line:
            return True
        try:
            return self._dispatch(line)
        except ReproError as error:
            self.write(f"error: {error}")
            return True
        except (ValueError, KeyError) as error:
            self.write(f"error: {error}")
            return True

    def _dispatch(self, line: str) -> bool:
        if line in (".quit", ".exit"):
            return False
        if line == ".help":
            self.write(HELP)
            return True
        if line == ".list":
            self._list()
            return True
        if line == ".run":
            self._run_rules()
            return True
        if line == ".analyze":
            self._analyze()
            return True
        if line == ".view":
            self._view("")
            return True
        if line == ".budget":
            self._set_budget("")
            return True
        if line == ".engine":
            self._set_engine("")
            return True
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command == ".theory":
            self._set_theory(rest)
        elif command == ".relation":
            self._declare_relation(rest)
        elif command == ".tuple":
            self._add_tuple(rest)
        elif command == ".point":
            self._add_point(rest)
        elif command == ".query":
            self._query(rest)
        elif command == ".rule":
            if self._view_blocks("rule changes"):
                return True
            self.rules.extend(parse_rules(rest, theory=self.theory))
            self.write(f"rule added ({len(self.rules)} total)")
        elif command == ".view":
            self._view(rest)
        elif command == ".insert":
            self._delta("insert", rest)
        elif command == ".retract":
            self._delta("retract", rest)
        elif command == ".plan":
            self._plan(rest)
        elif command == ".show":
            self.write(str(self.db.relation(rest)))
        elif command == ".budget":
            self._set_budget(rest)
        elif command == ".engine":
            self._set_engine(rest)
        else:
            self.write(f"unknown command {command!r}; try .help")
        return True

    # ------------------------------------------------------------- commands
    def _view_blocks(self, action: str) -> bool:
        """True (with a hint) when a live view forbids direct mutation."""
        if self.view is None:
            return False
        self.write(
            f"a live view is registered; {action} would bypass maintenance "
            "-- use .insert/.retract, or .view off first"
        )
        return True

    def _set_theory(self, name: str) -> None:
        factory = THEORIES.get(name)
        if factory is None:
            self.write(f"unknown theory {name!r}; options: {sorted(THEORIES)}")
            return
        self._drop_view()
        self.theory_name = name
        self.theory = factory()  # type: ignore[assignment]
        self.db = GeneralizedDatabase(self.theory)  # type: ignore[arg-type]
        self.rules = []
        self.write(f"theory set to {name}; database reset")

    def _declare_relation(self, spec: str) -> None:
        if self._view_blocks("declaring relations"):
            return
        name, _, args = spec.partition("(")
        if not args.endswith(")"):
            self.write("usage: .relation R(x, y)")
            return
        variables = tuple(a.strip() for a in args[:-1].split(",") if a.strip())
        self.db.create_relation(name.strip(), variables)
        self.write(f"relation {name.strip()}/{len(variables)} created")

    def _parse_conjunction(self, text: str) -> tuple[Atom, ...]:
        formula = parse_query(text, theory=self.theory)
        atoms: list[Atom] = []

        def collect(node: Formula) -> None:
            if isinstance(node, And):
                for child in node.children:
                    collect(child)
            elif isinstance(node, Atom):
                atoms.append(node)
            else:
                raise ReproError(
                    "a generalized tuple is a conjunction of constraint atoms"
                )

        collect(formula)
        return tuple(atoms)

    def _add_tuple(self, spec: str) -> None:
        if self._view_blocks("direct tuple writes"):
            return
        name, _, constraints = spec.partition(":")
        relation = self.db.relation(name.strip())
        added = relation.add_tuple(self._parse_conjunction(constraints.strip()))
        self.write("tuple added" if added else "tuple already present (or unsatisfiable)")

    def _add_point(self, spec: str) -> None:
        if self._view_blocks("direct tuple writes"):
            return
        name, _, values = spec.partition(":")
        relation = self.db.relation(name.strip())
        parsed = []
        for raw in values.split(","):
            raw = raw.strip()
            try:
                parsed.append(Fraction(raw))
            except ValueError:
                parsed.append(raw)
        added = relation.add_point(parsed)
        self.write("point added" if added else "point already present")

    def _set_budget(self, spec: str) -> None:
        if not spec:
            if self.budget is None:
                self.write("no budget set; .budget deadline=0.05 rounds=100")
            else:
                parts = ", ".join(
                    f"{k}={v}"
                    for k, v in self.budget.as_dict().items()
                    if v is not None and k != "partial_results"
                )
                self.write(
                    f"budget: {parts or 'unlimited'} "
                    f"(on exhaustion: {self.budget.partial_results})"
                )
            return
        if spec == "off":
            self.budget = None
            self.write("budget cleared")
            return
        self.budget = parse_budget_spec(spec)
        self._set_budget("")

    def _set_engine(self, spec: str) -> None:
        from dataclasses import replace

        if not spec:
            from repro.core.compile import PLAN_CACHE

            flags = ", ".join(
                f"{name}={'on' if value else 'off'}"
                for name, value in self.engine.as_dict().items()
            )
            self.write(f"engine: {flags}")
            self.write(
                "query path: magic "
                + ("on" if self.engine.magic else "off (full-fixpoint oracle)")
            )
            cache = PLAN_CACHE.stats()
            self.write(
                "plan cache: {entries} compiled program(s), "
                "{hits} hits, {misses} misses, "
                "{invalidations} invalidations".format(**cache)
            )
            return
        if spec == "all_on":
            self.engine = EngineOptions.all_on()
        elif spec == "all_off":
            self.engine = EngineOptions.all_off()
        else:
            known = self.engine.as_dict()
            # the demand-driven query path is togglable too, though it is
            # not a fixpoint grid flag (absent from as_dict)
            known["magic"] = self.engine.magic
            # check every token before applying any, so a bad token leaves
            # the engine exactly as it was
            updates: dict[str, bool] = {}
            for token in spec.split():
                name, sep, state = token.partition("=")
                if not sep or name not in known or state not in ("on", "off"):
                    self.write(
                        f"usage: .engine FLAG=on|off with FLAG in "
                        f"{sorted(known)} (or .engine all_on / all_off)"
                    )
                    return
                updates[name] = state == "on"
            self.engine = replace(self.engine, **updates)
        self._set_engine("")

    def _query(self, text: str) -> None:
        if self._magic_query(text):
            return
        query = parse_query(text, theory=self.theory)
        # a tripped budget raises BudgetExceededError (a ReproError), which
        # the dispatcher surfaces as a plain shell error
        with supervised(self.budget):
            result = evaluate_calculus(query, self.db)
        self.write(str(result))

    def _magic_query(self, text: str) -> bool:
        """Route a rule-goal query through the demand-driven engine.

        Fires only for quantifier-free goals naming an IDB head of the
        accumulated rules -- ``.query T(0, y)`` or ``.query T(x, y), x < 3``
        evaluate just the relevant cone via the magic-set rewrite instead
        of requiring a full ``.run`` first.  Everything else (calculus
        formulas, EDB atoms, quantified queries) keeps the calculus path.
        """
        rules = self.view.program.rules if self.view is not None else self.rules
        if not rules or any(word in text for word in ("exists", "forall")):
            return False
        from repro.core.magic import parse_goal

        try:
            goal = parse_goal(text, self.theory)
        except ReproError:
            return False
        if goal.predicate not in {rule.head.name for rule in rules}:
            return False
        from dataclasses import replace

        from repro.core.query import Engine

        options = replace(self.engine, budget=self.budget)
        if self.view is not None:
            engine = Engine.from_view(self.view, options=options)
        else:
            engine = Engine(rules, self.theory, options=options, database=self.db)
        with supervised(self.budget):
            result = engine.query(text)
        self.write(str(result.relation))
        if result.full_fallback:
            mode = "full-evaluation fallback"
        elif not self.engine.magic:
            mode = "full fixpoint (magic off)"
        else:
            mode = f"{result.magic_rules} magic rule(s)"
        line = (
            f"-- {len(result)} answer(s) "
            f"[{goal.predicate}^{result.adornment}, {mode}, "
            f"cone {result.cone_tuples} tuple(s)]"
        )
        if result.fallback_predicates:
            line += " [full evaluation for negation strata: " + ", ".join(
                result.fallback_predicates
            ) + "]"
        self.write(line)
        return True

    def _run_rules(self) -> None:
        if self.view is not None:
            self.write(
                "the live view already maintains the fixpoint; "
                ".show/.view to inspect, .view off to go back to .run"
            )
            return
        if not self.rules:
            self.write("no rules; add some with .rule")
            return
        from dataclasses import replace

        program = DatalogProgram(
            self.rules, self.theory, options=replace(self.engine, budget=self.budget)
        )
        world, stats = program.evaluate(self.db)
        self.db = world
        status = f"fixpoint in {stats.iterations} iterations"
        if stats.incomplete:
            exhausted = (stats.budget or {}).get("budget_kind", "budget")
            status = (
                f"PARTIAL fixpoint ({exhausted} budget exhausted after "
                f"{stats.iterations} iterations; sound under-approximation)"
            )
        self.write(f"{status}, {stats.tuples_added} tuples added")
        for name in sorted(program.idb_predicates()):
            self.write(str(world.relation(name)))

    # --------------------------------------------------- materialized views
    def _drop_view(self) -> None:
        if self.view is not None:
            self.view.close()
            self.view = None

    def _view(self, spec: str) -> None:
        from dataclasses import replace

        from repro.core.ivm import MaterializedView

        if spec == "on":
            if self.view is not None:
                self.write("a view is already registered; .view off first")
                return
            if not self.rules:
                self.write("no rules; add some with .rule before .view on")
                return
            program = DatalogProgram(
                self.rules,
                self.theory,
                options=replace(self.engine, budget=self.budget),
            )
            self.view = MaterializedView(program, self.db)
            self.db = self.view.world
            self._view("")
            return
        if spec == "off":
            if self.view is None:
                self.write("no view registered")
                return
            # the maintained world (EDB + derived relations) stays queryable
            self.db = self.view.world
            self._drop_view()
            self.write("view dropped; database keeps the last maintained state")
            return
        if spec == "refresh":
            if self.view is None:
                self.write("no view registered")
                return
            stats = self.view.refresh()
            self.db = self.view.world
            state = "stale" if self.view.stale else "fresh"
            self.write(
                f"view rebuilt from scratch ({state}, "
                f"{stats.tuples_added} tuples derived)"
            )
            return
        if spec:
            self.write("usage: .view [on|off|refresh]")
            return
        if self.view is None:
            self.write("no view registered; .view on materializes the rules")
            return
        view = self.view
        staleness = (
            f"STALE ({view.stale_reason}); .view refresh to rebuild"
            if view.stale
            else "fresh"
        )
        self.write(f"view: mode={view.mode}, {staleness}")
        totals = view.total_stats
        self.write(
            f"  maintenance: {totals.ivm_steps} batch(es), "
            f"+{totals.ivm_inserts}/-{totals.ivm_retracts} base tuples, "
            f"+{totals.ivm_derived_added}/-{totals.ivm_derived_removed} derived "
            f"(rederived {totals.ivm_rederived} of {totals.ivm_overdeleted} "
            f"overdeleted, {totals.ivm_recomputed_strata} strata recomputed, "
            f"{totals.ivm_maintain_seconds:.4f}s)"
        )

    def _delta(self, op: str, spec: str) -> None:
        if self.view is None:
            self.write(f"no view registered; .view on enables .{op}")
            return
        name, sep, constraints = spec.partition(":")
        if not sep:
            self.write(f"usage: .{op} R: CONSTRAINTS")
            return
        atoms = self._parse_conjunction(constraints.strip())
        if op == "insert":
            stats = self.view.insert(name.strip(), atoms)
        else:
            stats = self.view.retract(name.strip(), atoms)
        self.db = self.view.world
        if self.view.stale:
            self.write(
                f"budget exhausted mid-maintenance: view is STALE "
                f"({self.view.stale_reason}); .view refresh to rebuild"
            )
            return
        applied = stats.ivm_inserts if op == "insert" else stats.ivm_retracts
        if not applied:
            self.write(f"no-op ({op} of a {'present' if op == 'insert' else 'missing'} tuple)")
            return
        self.write(
            f"{op} applied: +{stats.ivm_derived_added}/"
            f"-{stats.ivm_derived_removed} derived tuples "
            f"in {stats.ivm_maintain_seconds:.4f}s"
        )

    def _analyze(self) -> None:
        from repro.analysis.semantic import CONTAINMENT_THEORIES, optimize_program

        if not self.rules:
            self.write("no rules; add some with .rule")
            return
        result = optimize_program(self.rules, self.theory)
        stats = result.stats
        self.write(
            f"semantic analysis over {self.theory_name}: "
            f"{len(result.original)} rule(s) -> {len(result.rules)} rule(s)"
        )
        if self.theory_name not in CONTAINMENT_THEORIES:
            self.write(
                f"  (containment is undecided for {self.theory_name}: the "
                "subsumption/minimization passes are no-ops)"
            )
        self.write(
            f"  subsumed={stats.rules_subsumed} "
            f"literals_eliminated={stats.literals_eliminated} "
            f"constraints_tightened={stats.constraints_tightened} "
            f"unsat_removed={stats.unsat_rules_removed} "
            f"containment_checks={stats.containment_checks} "
            f"({stats.containment_seconds:.4f}s)"
        )
        if stats.budget_tripped:
            self.write("  budget exhausted mid-analysis: partial report")
        for diagnostic in result.diagnostics:
            self.write(f"  {diagnostic.render()}")
        if result.changed:
            self.write("minimized rules:")
            for rule in result.rules:
                self.write(f"  {rule}")
        else:
            self.write("no rewrites: the program is already minimal")

    def _plan(self, selector: str) -> None:
        from repro.core.compile import render_plan

        if not self.rules:
            self.write("no rules; add some with .rule")
            return
        if not selector:
            self.write("usage: .plan HEAD_NAME or .plan N (1-based .list order)")
            return
        if selector.isdigit():
            index = int(selector)
            if not 1 <= index <= len(self.rules):
                self.write(f"rule index out of range (1..{len(self.rules)})")
                return
            chosen = [self.rules[index - 1]]
        else:
            chosen = [r for r in self.rules if r.head.name == selector]
            if not chosen:
                heads = sorted({r.head.name for r in self.rules})
                self.write(f"no rule with head {selector!r}; heads: {heads}")
                return
        program = DatalogProgram(self.rules, self.theory, options=self.engine)
        for rule in chosen:
            self.write(render_plan(program, rule, self.db))

    def _list(self) -> None:
        self.write(f"theory: {self.theory_name}")
        for name in self.db.names():
            relation = self.db.relation(name)
            self.write(f"  {name}/{relation.arity}: {len(relation)} tuples")
        for rule in self.rules:
            self.write(f"  rule: {rule}")


def main() -> None:
    """Entry point for ``python -m repro``."""
    shell = Shell()
    shell.write("constraint query language shell -- .help for commands")
    while True:
        try:
            line = input("cql> ")
        except (EOFError, KeyboardInterrupt):
            shell.write("")
            break
        if not shell.handle(line):
            break


if __name__ == "__main__":  # pragma: no cover
    main()
