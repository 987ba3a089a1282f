"""The four workloads, driven only through the engine's public entry points.

Each workload generates its inputs from its seed, builds its engine objects
in :meth:`Workload.setup` (timed by the runner as ``setup_s``, including one
untimed warm-up of every operation kind), and then yields an endless seeded
stream of :class:`Op` s.  Streams come in fixed-composition blocks (see
:func:`cqlbench.inputs.shuffled_blocks`), so every run sees the same mix.

Sizes and caps, measured on a 2-core host:

* ``program_batch`` -- whole requests, text and a fresh EDB in, answers
  out: parse_rules -> analyze_program (cqlint) -> DatalogProgram (cqlopt)
  -> evaluate.  Dense-order TC over shuffled-label chains (N 16/32/64) and
  fan-out-2 DAGs (N 16/32/48), equality TC (N 16/32), Boole-lemma TC over
  B_1, stratified ``Sep`` (N 4/6 only: the complement blows up, 0.33 s at
  N=6 and 2 s at N=8), the Ex 1.11 interval-EDB fixpoint, and TC plus
  views with two injected redundant rules.  One long-lived theory per
  kind, because the PlanCache keys on the theory's identity.
* ``bound_queries`` -- one prepared Engine over a 256-node fan-out-2 DAG
  cut into 32-node segments.  Blocks of 16 point goals ``T(c, y)``, ``c``
  Zipf-drawn (s = 0.4) from 160 nodes, far more than the QueryCache's 64
  entries, and 4 interval goals, half of them nested in an earlier
  interval so containment reuse can answer them.  About a quarter of the
  point goals hit; a miss pays the containment scan over a full cache,
  so the median goal is a miss.
* ``live_view`` -- a MaterializedView over a 48-node DAG cut into 12-node
  segments, read through Engine.from_view.  Blocks of 12 bound goals (a
  32-goal pool, within the cache), 4 edge inserts and 4 edge retracts, so
  the edge count never drifts (a 25/15 insert/retract mix fills the DAG up
  within one run).  Every write invalidates the cached answers; a DRed
  retract costs about 30x an insert.
* ``paper_calculus`` -- Fig. 2 rectangle intersection through
  evaluate_calculus (16 to 40 rectangles) and the Fig. 3 checkbook
  through evaluate_tableau over real_poly (8 to 16 users; 40 users take
  3 s, so the size stays small).

The PlanCache holds 256 entries; no workload compiles more than about 20
programs, so it never evicts.

Which bounded metric a slower kind moves.  Latencies are pooled over a
workload's kinds: ``op_fast_ms`` is the mean of the fastest fifth,
``op_p50_ms`` the middle rank, ``op_tail_ms`` the heaviest ranks.  A kind
outside those ranks moves only ``ops_per_s``, by about its share of block
time times its slowdown, until it slows enough to change rank.  Shares
below are from per-kind medians on a 2-core host:

* ``program_batch`` -- ``op_fast_ms``: ex111/6, dense_dag/16, bool_b1/12,
  dense_chain/16 (21-28 ms; one of them 2x slower moves it about 20%).
  ``op_p50_ms``: dense_chain/32.  ``op_tail_ms``: dense_chain/64.
  ``ops_per_s`` only: eq_chain/16 and /32 (2% and 3% of block time),
  sep/4 (3%), dense_dag/32 (4%), redundant/32 (6%), sep/6 (13%),
  dense_dag/48 (14%).
* ``bound_queries`` -- ``op_fast_ms``: exact-key cache hits (0.4 ms);
  ``op_p50_ms`` and ``op_tail_ms``: cache misses, point and interval
  (about 100 ms).  ``ops_per_s`` only, and under 0.2% of block time:
  nested interval goals answered by containment (2 ms).
* ``live_view`` -- ``op_fast_ms``: inserts (3 ms); ``op_p50_ms``: goals
  (14 ms); ``op_tail_ms``: DRed retracts (110 ms).
* ``paper_calculus`` -- ``op_fast_ms``: fig2/16, checkbook/8;
  ``op_p50_ms``: checkbook/12; ``op_tail_ms``: fig2/40 and checkbook/16.
  ``ops_per_s`` only: fig2/24 (6%), fig2/32 (10%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator

from repro.analysis import analyze_program
from repro.boolean_algebra.algebra import FreeBooleanAlgebra
from repro.constraints.boolean import BooleanTheory
from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt
from repro.constraints.equality import EqualityTheory
from repro.constraints.real_poly import RealPolynomialTheory
from repro.core.calculus import evaluate_calculus
from repro.core.compile import PLAN_CACHE
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.core.ivm import MaterializedView
from repro.core.magic import parse_goal
from repro.core.query import Engine
from repro.logic.parser import parse_query, parse_rules
from repro.tableaux.containment import evaluate_tableau
from repro.tableaux.tableau import checkbook_query

from cqlbench import inputs, oracles
from cqlbench.tracing import Tracer, stats_attrs

TC = "T(x, y) :- E(x, y).\nT(x, y) :- T(x, z), E(z, y).\n"
SEP = TC + "Sep(x, y) :- V(x), V(y), not T(x, y).\n"
#: TC plus derived views, with two narrowed copies cqlopt must remove
REDUNDANT = TC + (
    "U(x, y) :- T(x, y), E(x, y).\n"
    "V(x) :- U(x, y).\n"
    "W(x) :- V(x).\n"
    "W(x) :- T(x, y).\n"
    "T(x, y) :- E(x, y), x < 1000.\n"
    "U(x, y) :- T(x, y), E(x, y), y < 1000.\n"
)
FIG2 = "exists x, y . Rect(n1, x, y) and Rect(n2, x, y) and n1 != n2"


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    data: Any
    run: Callable[[Tracer], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    seed: int
    tracer: Tracer = field(default_factory=Tracer)
    #: operations per fixed-composition block
    block: int = 1

    def __post_init__(self) -> None:
        """Generate the workload's fixed inputs from its seed."""

    def setup(self) -> None:
        raise NotImplementedError

    def stream(self) -> Iterator[Op]:
        raise NotImplementedError

    def theories(self) -> list[Any]:
        return []

    def engine(self) -> Engine | None:
        return None

    def close(self) -> None:
        return None

    def counters(self) -> dict[str, int]:
        """Cumulative cache counters the program exports (deltas go on spans)."""
        plan = PLAN_CACHE.stats()
        out = {
            "plan_cache_hits": plan["hits"],
            "plan_cache_misses": plan["misses"],
            "theory_cache_hits": sum(t.cache.stats.hits for t in self.theories()),
            "theory_cache_misses": sum(t.cache.stats.misses for t in self.theories()),
        }
        engine = self.engine()
        if engine is not None:
            cache = engine.cache.stats()
            out["query_cache_hits"] = cache["hits"]
            out["query_cache_misses"] = cache["misses"]
            out["query_cache_invalidations"] = cache["invalidations"]
        return out

    # ----------------------------------------------------------- helpers
    def _program(self, text: str, theory: Any) -> DatalogProgram:
        """parse -> cqlint -> cqlopt, one span per public call."""
        tr = self.tracer
        with tr.span("logic.parser"):
            rules = parse_rules(text, theory)
        with tr.span("analysis"):
            report = analyze_program(rules, theory)
        if report.errors():
            raise RuntimeError(f"cqlint errors: {report.errors()}")
        with tr.span("analysis.semantic") as span:
            program = DatalogProgram(rules, theory)
            if tr.enabled and program.semantic_report is not None:
                span.attrs["containment_checks"] = (
                    program.semantic_report.stats.containment_checks
                )
                span.attrs["rules_removed"] = len(rules) - len(program.rules)
        return program

    def _evaluate(self, program: DatalogProgram, db: GeneralizedDatabase) -> Any:
        with self.tracer.span("core.datalog") as span:
            world, stats = program.evaluate(db)
            if self.tracer.enabled:
                span.attrs.update(stats_attrs(stats))
        return world

    def _query(self, engine: Engine, text: str, theory: Any) -> Any:
        tr = self.tracer
        with tr.span("logic.parser"):
            goal = parse_goal(text, theory)
        with tr.span("core.query") as span:
            result = engine.query(goal)
            if tr.enabled:
                span.attrs.update(stats_attrs(result.stats))
                span.attrs.update(
                    reused=result.reused,
                    magic_rules=result.magic_rules,
                    cone_tuples=result.cone_tuples,
                    answers=len(result),
                    full_fallback=int(result.full_fallback),
                )
            return result.relation


def _point_db(theory: Any, relations: dict[str, list[tuple]]) -> GeneralizedDatabase:
    db = GeneralizedDatabase(theory)
    for name, rows in relations.items():
        arity = len(rows[0])
        relation = db.create_relation(name, ("x", "y", "z", "w")[:arity])
        for row in rows:
            relation.add_point(list(row))
    return db


# ------------------------------------------------------------ program_batch


class ProgramBatch(Workload):
    #: Seven light kinds (under 45 ms), six middle ones (about 65 ms) and
    #: five heavy ones with N=64 twice: the median request always lands
    #: inside the middle mode and the tail inside the heaviest kind, instead
    #: of on the edge between two kinds, where it would jump between runs.
    KINDS = [
        "eq_chain/16",
        "ex111/6",
        "dense_dag/16",
        "dense_chain/16",
        "bool_b1/12",
        "sep/4",
        "eq_chain/32",
        *["dense_chain/32"] * 5,
        "dense_dag/32",
        "redundant/32",
        "sep/6",
        "dense_dag/48",
        "dense_chain/64",
        "dense_chain/64",
    ]

    def __post_init__(self) -> None:
        self.block = len(self.KINDS)

    def setup(self) -> None:
        self.order = DenseOrderTheory()
        self.equality = EqualityTheory()
        self.boolean = BooleanTheory(FreeBooleanAlgebra.with_generators(1))
        algebra = self.boolean.algebra
        self.elements = [
            frozenset(m for m in range(2**algebra.m) if k & (1 << m))
            for k in range(algebra.size)
        ]
        warm = random.Random(self.seed ^ 0x5EED)
        for kind in ("dense_chain/16", "eq_chain/16", "bool_b1/12", "sep/4",
                     "ex111/6", "redundant/32"):
            op = self._request(kind, warm)
            if not op.check(op.run(self.tracer)):
                raise RuntimeError(f"warm-up {kind} answered wrong")

    def theories(self) -> list[Any]:
        return [self.order, self.equality, self.boolean]

    def stream(self) -> Iterator[Op]:
        rng = random.Random(self.seed)
        for kind in inputs.shuffled_blocks(rng, self.KINDS):
            yield self._request(kind, rng)

    def _request(self, kind: str, rng: random.Random) -> Op:
        """One request's inputs and oracle answer, drawn from ``rng``."""
        family, size = kind.split("/")
        n = int(size)
        if family in ("dense_chain", "dense_dag", "eq_chain", "redundant"):
            edges = inputs.dag(n, rng) if family == "dense_dag" else inputs.chain(n, rng)[1]
            theory = self.equality if family == "eq_chain" else self.order
            expected = oracles.closure(edges)
            return self._op(
                kind, theory, REDUNDANT if family == "redundant" else TC, "T",
                lambda: _point_db(theory, {"E": edges}), edges,
                lambda rel: oracles.pairs(rel) == expected,
            )
        if family == "sep":
            labels, edges = inputs.chain(n, rng)
            expected = oracles.separated(edges, labels)
            return self._op(
                kind, self.order, SEP, "Sep",
                lambda: _point_db(self.order, {"E": edges, "V": [(v,) for v in labels]}),
                edges, lambda rel: oracles.pairs(rel) == expected,
            )
        if family == "bool_b1":
            return self._boolean(kind, rng, n)
        return self._ex111(kind, inputs.intervals(n, rng))

    def _op(self, kind: str, theory: Any, text: str, target: str,
            load: Callable[[], GeneralizedDatabase], data: Any,
            check: Callable[[Any], bool]) -> Op:
        """EDB load -> parse -> cqlint -> cqlopt -> evaluate, then ``target``."""

        def run(tr: Tracer) -> Any:
            with tr.span("core.generalized"):
                db = load()
            program = self._program(text, theory)
            return self._evaluate(program, db).relation(target)

        return Op("request", kind, data, run, check)

    def _boolean(self, kind: str, rng: random.Random, n: int) -> Op:
        theory, elements = self.boolean, self.elements
        walk = [rng.randrange(len(elements)) for _ in range(n + 1)]
        edges = list(zip(walk, walk[1:]))
        expected = oracles.closure(edges)

        def load() -> GeneralizedDatabase:
            db = GeneralizedDatabase(theory)
            relation = db.create_relation("E", ("x", "y"))
            for a, b in edges:
                relation.add_tuple(
                    [theory.equality("x", elements[a]), theory.equality("y", elements[b])]
                )
            return db

        def check(rel: Any) -> bool:
            # B_1 atoms are Boolean terms, so membership is read back through
            # the relation's own point test over all 4 x 4 element pairs
            found = {
                (a, b)
                for a in range(len(elements))
                for b in range(len(elements))
                if rel.contains_values([elements[a], elements[b]])
            }
            return found == expected

        return self._op(kind, theory, TC, "T", load, edges, check)

    def _ex111(self, kind: str, spans: list[tuple[int, int]]) -> Op:
        samples = oracles.interval_samples(spans)
        grid = [(x, y) for x in samples for y in samples]
        expected = {p for p in grid if oracles.interval_reach(spans, *p)}

        def load() -> GeneralizedDatabase:
            db = GeneralizedDatabase(self.order)
            relation = db.create_relation("E", ("x", "y"))
            for a, b in spans:
                relation.add_tuple([le(a, "x"), lt("x", "y"), le("y", b)])
            return db

        def check(rel: Any) -> bool:
            return {p for p in grid if oracles.holds(rel, p)} == expected

        return self._op(kind, self.order, TC, "T", load, spans, check)


# ------------------------------------------------------------ bound_queries


class BoundQueries(Workload):
    NODES = 256
    #: edges stay inside 32-node segments, so every cone is bounded
    SEGMENT = 32
    #: point goals sit in the first 20 positions of a segment (cones of
    #: 12-31): 160 goals against the 64-entry QueryCache, so about a quarter
    #: of them hit and each miss scans a full cache
    BAND = 20
    ZIPF = 0.4

    def __post_init__(self) -> None:
        self.block = 20
        rng = random.Random(self.seed)
        self.edges = inputs.dag(self.NODES, rng, segment=self.SEGMENT)
        band = [
            start + k
            for start in range(0, self.NODES, self.SEGMENT)
            for k in range(self.BAND)
        ]
        self.pool = rng.sample(band, len(band))
        succ = oracles.successors(self.edges)
        self.reach = {v: oracles.reachable_from(succ, v) for v in range(self.NODES)}
        self._engine: Engine | None = None

    def setup(self) -> None:
        self.order = DenseOrderTheory()
        tr = self.tracer
        with tr.span("core.generalized"):
            db = _point_db(self.order, {"E": self.edges})
        with tr.span("logic.parser"):
            rules = parse_rules(TC, self.order)
        with tr.span("core.query.setup"):
            self._engine = Engine(rules, self.order, database=db)
        for op in (self._point(self.pool[0]), self._interval(self.BAND, self.BAND + 3)):
            if not op.check(op.run(tr)):
                raise RuntimeError(f"warm-up {op.label} answered wrong")
        self._engine.cache.clear()

    def theories(self) -> list[Any]:
        return [self.order]

    def engine(self) -> Engine | None:
        return self._engine

    def stream(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        issued: list[tuple[int, int]] = []
        kinds = ["point"] * 16 + ["interval", "nested"] * 2
        for kind in inputs.shuffled_blocks(rng, kinds):
            if kind == "point":
                rank = inputs.zipf_index(rng, len(self.pool), self.ZIPF)
                yield self._point(self.pool[rank])
            elif kind == "interval" or not issued:
                # intervals sit past the point band, so no point goal is
                # answered by containment in an interval
                low = rng.randrange(0, self.NODES, self.SEGMENT) + self.BAND + rng.randrange(4)
                issued.append((low, low + rng.randint(3, 4)))
                yield self._interval(*issued[-1])
            else:
                low, high = rng.choice(issued[-16:])
                yield self._interval(low, high - 1) if rng.random() < 0.5 else (
                    self._interval(low + 1, high)
                )

    def _point(self, node: int) -> Op:
        expected = {(node, y) for y in self.reach[node]}
        return Op(
            "query",
            f"T({node}, y)",
            node,
            lambda tr: self._query(self._engine, f"T({node}, y)", self.order),
            lambda rel: oracles.pairs(rel) == expected,
        )

    def _interval(self, low: int, high: int) -> Op:
        expected = {
            (x, y) for x in range(low + 1, high) for y in self.reach.get(x, ())
        }
        text = f"T(x, y), {low} < x, x < {high}"
        return Op(
            "query",
            text,
            (low, high),
            lambda tr: self._query(self._engine, text, self.order),
            lambda rel: oracles.pairs(rel) == expected,
        )


# ---------------------------------------------------------------- live_view


class LiveView(Workload):
    NODES = 48
    #: edges stay inside 12-node segments, so a retract's overdeletion is bounded
    SEGMENT = 12
    WINDOW = 4

    def __post_init__(self) -> None:
        self.block = 20
        rng = random.Random(self.seed)
        self.initial = inputs.dag(self.NODES, rng, window=self.WINDOW, segment=self.SEGMENT)
        # 32 goals from the first 8 positions of each segment
        self.pool = [s + k for s in range(0, self.NODES, self.SEGMENT) for k in range(8)]
        #: the oracle's model of the current edge set
        self.edges = set(self.initial)
        self.view: MaterializedView | None = None
        self._engine: Engine | None = None

    def setup(self) -> None:
        self.close()
        self.order = DenseOrderTheory()
        tr = self.tracer
        self.edges = set(self.initial)
        with tr.span("core.generalized"):
            db = _point_db(self.order, {"E": self.initial})
        program = self._program(TC, self.order)
        with tr.span("core.ivm.setup"):
            self.view = MaterializedView(program, db)
        self._engine = Engine.from_view(self.view)
        absent = next(
            (i, j) for i in range(self.SEGMENT) for j in range(i + 2, self.SEGMENT)
            if (i, j) not in self.edges
        )
        for op in (self._goal(self.pool[0]), self._write("insert", absent),
                   self._write("retract", absent)):
            if not op.check(op.run(tr)):
                raise RuntimeError(f"warm-up {op.label} answered wrong")
        self._engine.cache.clear()

    def close(self) -> None:
        if self.view is not None:
            self.view.close()
            self.view = None

    def theories(self) -> list[Any]:
        return [self.order]

    def engine(self) -> Engine | None:
        return self._engine

    def stream(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        # as many inserts as retracts, so every block ends on the initial edge count
        kinds = ["query"] * 12 + ["insert"] * 4 + ["retract"] * 4
        for kind in inputs.shuffled_blocks(rng, kinds):
            if kind == "query":
                yield self._goal(rng.choice(self.pool))
            elif kind == "insert":
                while True:
                    i = rng.randrange(self.NODES)
                    last = min(i + self.WINDOW, (i // self.SEGMENT + 1) * self.SEGMENT - 1)
                    edge = (i, rng.randint(i, last))
                    if edge[1] > i and edge not in self.edges:
                        break
                yield self._write("insert", edge)
            else:
                yield self._write("retract", rng.choice(sorted(self.edges)))

    def _goal(self, node: int) -> Op:
        def check(rel: Any) -> bool:
            succ = oracles.successors(self.edges)
            reach = oracles.reachable_from(succ, node)
            return oracles.pairs(rel) == {(node, y) for y in reach}

        text = f"T({node}, y)"
        return Op(
            "query", text, node,
            lambda tr: self._query(self._engine, text, self.order), check,
        )

    def _write(self, kind: str, edge: tuple[int, int]) -> Op:
        """An EDB delta; the stream's edge model moves with it at once."""
        (self.edges.add if kind == "insert" else self.edges.discard)(edge)
        expected = oracles.closure(self.edges)

        def run(tr: Tracer) -> Any:
            a, b = edge
            with tr.span(f"core.ivm.{kind}") as span:
                stats = getattr(self.view, kind)("E", [eq("x", a), eq("y", b)])
                if tr.enabled:
                    span.attrs.update(stats_attrs(stats))
                return self.view.relation("T")

        return Op(kind, f"{kind} E{edge}", edge, run,
                  lambda rel: oracles.pairs(rel) == expected)


# ----------------------------------------------------------- paper_calculus


class PaperCalculus(Workload):
    #: Three light kinds, the 12-user checkbook three times as the middle
    #: mode (its cost barely depends on the ledger values), and four heavy
    #: ones with the largest Fig. 2 twice, for the same reason as in
    #: ProgramBatch.KINDS.
    KINDS = [
        "fig2/16",
        "checkbook/8",
        "fig2/24",
        *["checkbook/12"] * 3,
        "fig2/32",
        "checkbook/16",
        "fig2/40",
        "fig2/40",
    ]

    def __post_init__(self) -> None:
        self.block = len(self.KINDS)

    def setup(self) -> None:
        self.order = DenseOrderTheory()
        self.poly = RealPolynomialTheory()
        warm = random.Random(self.seed ^ 0x5EED)
        for kind in ("fig2/16", "checkbook/8"):
            op = self._request(kind, warm)
            if not op.check(op.run(self.tracer)):
                raise RuntimeError(f"warm-up {kind} answered wrong")

    def theories(self) -> list[Any]:
        return [self.order, self.poly]

    def stream(self) -> Iterator[Op]:
        rng = random.Random(self.seed)
        for kind in inputs.shuffled_blocks(rng, self.KINDS):
            yield self._request(kind, rng)

    def _request(self, kind: str, rng: random.Random) -> Op:
        family, size = kind.split("/")
        if family == "fig2":
            return self._fig2(kind, inputs.rectangles(int(size), rng))
        return self._checkbook(kind, inputs.ledgers(int(size), rng))

    def _fig2(self, kind: str, rects: list[inputs.Rectangle]) -> Op:
        expected = oracles.intersecting(rects)

        def run(tr: Tracer) -> Any:
            theory = self.order
            with tr.span("core.generalized"):
                db = GeneralizedDatabase(theory)
                relation = db.create_relation("Rect", ("n", "x", "y"))
                for r in rects:
                    relation.add_tuple(
                        [eq("n", r.name), le(r.x1, "x"), le("x", r.x2),
                         le(r.y1, "y"), le("y", r.y2)]
                    )
            with tr.span("logic.parser"):
                query = parse_query(FIG2, theory)
            with tr.span("core.calculus") as span:
                result = evaluate_calculus(query, db, output=("n1", "n2"))
                span.attrs["calculus_answers"] = len(result)
                return result

        return Op("request", kind, rects, run, lambda rel: oracles.pairs(rel) == expected)

    def _checkbook(self, kind: str, rows: list[inputs.Ledger]) -> Op:
        expected = oracles.balanced_users(rows)

        def run(tr: Tracer) -> Any:
            with tr.span("core.generalized"):
                db = GeneralizedDatabase(self.poly)
                expenses = db.create_relation("Expenses", ("z", "f", "r", "m"))
                savings = db.create_relation("Savings", ("z", "s", "d1", "d2"))
                income = db.create_relation("Income", ("z", "w", "i", "d3"))
                for r in rows:
                    expenses.add_point([r.user, r.food, r.rent, r.misc])
                    savings.add_point([r.user, r.savings, 0, 0])
                    income.add_point([r.user, r.wages, r.interest, 0])
            with tr.span("tableaux"):
                return evaluate_tableau(checkbook_query(), db)

        def check(rel: Any) -> bool:
            # real_poly answers are polynomial atoms, read back by point test
            found = {r.user for r in rows if rel.contains_values([Fraction(r.user)])}
            return found == expected and len(rel) == len(expected)

        return Op("request", kind, rows, run, check)


WORKLOADS: dict[str, type[Workload]] = {
    "program_batch": ProgramBatch,
    "bound_queries": BoundQueries,
    "live_view": LiveView,
    "paper_calculus": PaperCalculus,
}
