"""Resource budgets and the cooperative execution supervisor.

The paper's closed-form evaluation theorems (Thm 2.3, 3.14, 4.11) bound *data*
complexity, but the worst cases are still brutal: Tarski-style QE blow-up,
Example 1.12 divergence, |adom|-exponential boolean joins (Thm 5.11).  A
production evaluator therefore runs every query under an enforceable
:class:`Budget` -- wall-clock deadline, QE step budget, fixpoint round budget,
tuple/constraint-count budget, and a cooperative :class:`CancellationToken`.

Design: budgets are *ambient*.  A frozen :class:`Budget` travels in
``EngineOptions``; the engine (or any caller, via :func:`supervised`) installs
a mutable :class:`BudgetMeter` into a :class:`contextvars.ContextVar`, and the
hot loops call the module-level :func:`tick` at their natural tick points:

- each Datalog(not) round (``core/datalog.py``, site ``"round"``);
- each eliminated variable / QE branch (``qe/*.py``, site ``"qe_step"``);
- each tuple admitted by the algebra (``relational/algebra.py`` and
  ``core/algebra.py``, site ``"tuple"``);
- each join extension step (``core/datalog.py``, site ``"join"``).

:func:`tick` is a no-op when no meter is installed, so unsupervised callers
pay one ContextVar read and nothing else.  When a limit trips the meter
raises :class:`repro.errors.BudgetExceededError` carrying a structured
:class:`ResourceReport` (which budget, limit vs. observed, elapsed seconds,
per-site counts).

Per-rung QE sub-budgets chain meters: a child meter forwards every tick to
its parent (so global limits still apply inside a rung) while enforcing its
own step cap with ``scope="qe_rung"`` -- the degradation ladder in
``constraints/real_poly.py`` catches exactly that scope and falls through to
the next elimination backend.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import BudgetExceededError

#: tick sites recognized by the supervisor (chaos uses the same vocabulary)
SITES = ("round", "qe_step", "tuple", "join", "sat", "canonicalize")


class CancellationToken:
    """Cooperative cancellation: flip once, observed at every tick point.

    Thread-safe in the only way that matters (a single boolean store); a
    caller on another thread -- a signal handler, a server timeout -- calls
    :meth:`cancel` and the supervised evaluation raises
    :class:`BudgetExceededError` at its next tick.
    """

    def __init__(self) -> None:
        self._cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str | None = None) -> None:
        self.reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


@dataclass(frozen=True)
class ResourceReport:
    """Structured account of a budget trip (carried by BudgetExceededError).

    ``budget_kind`` names the limit that tripped (``"deadline"``,
    ``"qe_steps"``, ``"rounds"``, ``"tuples"``, ``"joins"``, ``"cancelled"``);
    ``scope`` distinguishes a global budget (``"global"``) from a QE-ladder
    rung sub-budget (``"qe_rung"``); ``counts`` has the per-site tick totals
    observed so far -- the "partial progress" of the run.
    """

    budget_kind: str
    limit: float
    used: float
    elapsed_seconds: float
    counts: dict[str, int] = field(default_factory=dict)
    scope: str = "global"
    note: str | None = None

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "budget_kind": self.budget_kind,
            "limit": self.limit,
            "used": self.used,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "counts": dict(self.counts),
            "scope": self.scope,
        }
        if self.note:
            payload["note"] = self.note
        return payload


@dataclass(frozen=True)
class Budget:
    """Immutable resource limits for one supervised evaluation.

    ``None`` disables the corresponding limit.  ``partial_results`` selects
    the failure mode of a budget-killed *fixpoint*: ``"raise"`` propagates
    :class:`BudgetExceededError`; ``"fringe"`` makes the Datalog evaluator
    return the last sound stage tagged ``incomplete=True`` (see
    ``DatalogProgram.evaluate`` for the soundness argument).
    """

    #: wall-clock limit in seconds, measured from :meth:`start`
    deadline_seconds: float | None = None
    #: total QE elimination steps (branches/candidates/cells) across the run
    qe_steps: int | None = None
    #: Datalog fixpoint rounds (applies on top of ``max_iterations``)
    rounds: int | None = None
    #: generalized/finite tuples admitted by the algebra operators
    tuples: int | None = None
    #: join extension steps inside the Datalog join
    joins: int | None = None
    #: per-rung QE step cap for the degradation ladder (FM and VS rungs)
    qe_rung_steps: int | None = None
    #: cooperative cancellation token (shared, mutable by design)
    token: CancellationToken | None = None
    #: "raise" | "fringe"
    partial_results: str = "raise"

    def __post_init__(self) -> None:
        if self.partial_results not in ("raise", "fringe"):
            raise ValueError(
                f"partial_results must be 'raise' or 'fringe', "
                f"not {self.partial_results!r}"
            )

    def start(self) -> "BudgetMeter":
        """Begin metering against this budget (starts the deadline clock)."""
        return BudgetMeter(self)

    def as_dict(self) -> dict[str, Any]:
        return {
            "deadline_seconds": self.deadline_seconds,
            "qe_steps": self.qe_steps,
            "rounds": self.rounds,
            "tuples": self.tuples,
            "joins": self.joins,
            "qe_rung_steps": self.qe_rung_steps,
            "partial_results": self.partial_results,
        }


#: maps tick sites onto the budget limit they consume
_SITE_LIMITS = {
    "round": ("rounds", "rounds"),
    "qe_step": ("qe_steps", "qe_steps"),
    "tuple": ("tuples", "tuples"),
    "join": ("joins", "joins"),
}


class BudgetMeter:
    """Mutable per-run counters enforcing one :class:`Budget`.

    Created by :meth:`Budget.start`; installed ambiently by
    :func:`supervised` (or by the Datalog engine).  ``parent`` chains a
    QE-rung sub-meter onto the run's global meter: ticks forward to the
    parent first (global limits win), then the child enforces its own cap
    with ``scope="qe_rung"``.
    """

    def __init__(
        self,
        budget: Budget,
        parent: "BudgetMeter | None" = None,
        scope: str = "global",
    ) -> None:
        self.budget = budget
        self.parent = parent
        self.scope = scope
        self.started = time.monotonic()
        self.counts: dict[str, int] = {site: 0 for site in SITES}
        # a meter may be ticked from more than one thread (a supervised
        # caller can share it); the lock keeps the read-modify-write lossless
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ ticks
    def tick(self, site: str, amount: int = 1) -> None:
        """Record ``amount`` units of work at ``site``; raise if over budget."""
        if self.parent is not None:
            self.parent.tick(site, amount)
        with self._lock:
            self.counts[site] = self.counts.get(site, 0) + amount
        self.check(site)

    def check(self, site: str = "tick") -> None:
        """Enforce the deadline/cancellation and the limit tied to ``site``."""
        budget = self.budget
        token = budget.token
        if token is not None and token.cancelled:
            self._trip("cancelled", 1, 1, note=token.reason)
        deadline = budget.deadline_seconds
        elapsed = time.monotonic() - self.started
        if deadline is not None and elapsed > deadline:
            self._trip("deadline", deadline, elapsed)
        mapped = _SITE_LIMITS.get(site)
        if mapped is not None:
            kind, attr = mapped
            limit = getattr(budget, attr)
            used = self.counts.get(site, 0)
            if limit is not None and used > limit:
                self._trip(kind, limit, used)

    def _trip(
        self, kind: str, limit: float, used: float, note: str | None = None
    ) -> None:
        report = self.report(kind, limit, used, note=note)
        raise BudgetExceededError(
            f"{kind} budget exceeded ({used} > {limit}, scope={self.scope})",
            report=report,
        )

    def report(
        self,
        kind: str = "snapshot",
        limit: float = 0,
        used: float = 0,
        note: str | None = None,
    ) -> ResourceReport:
        """A :class:`ResourceReport` describing this meter's progress."""
        return ResourceReport(
            budget_kind=kind,
            limit=limit,
            used=used,
            elapsed_seconds=time.monotonic() - self.started,
            counts={k: v for k, v in self.counts.items() if v},
            scope=self.scope,
            note=note,
        )

    # ------------------------------------------------------------- sub-budgets
    def rung_meter(self, steps: int | None = None) -> "BudgetMeter":
        """A child meter capping one QE-ladder rung at ``steps`` qe_steps.

        The child forwards every tick here first, so global budgets still
        apply inside a rung; its own trip carries ``scope="qe_rung"`` which
        the ladder catches to fall through to the next backend.
        """
        cap = steps if steps is not None else self.budget.qe_rung_steps
        child_budget = Budget(qe_steps=cap)
        return BudgetMeter(child_budget, parent=self, scope="qe_rung")


#: the ambient meter: None means unsupervised (every tick is a cheap no-op)
_ACTIVE_METER: ContextVar[BudgetMeter | None] = ContextVar(
    "repro_budget_meter", default=None
)


def active_meter() -> BudgetMeter | None:
    """The currently installed :class:`BudgetMeter`, if any."""
    return _ACTIVE_METER.get()


def tick(site: str, amount: int = 1) -> None:
    """Module-level tick: charge the ambient meter (no-op when none)."""
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.tick(site, amount)


@contextmanager
def metered(meter: BudgetMeter | None) -> Iterator[BudgetMeter | None]:
    """Install ``meter`` as the ambient meter for the dynamic extent."""
    saved = _ACTIVE_METER.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE_METER.reset(saved)


def raise_if_incomplete(stats: Any) -> None:
    """Raise :class:`BudgetExceededError` if an evaluation stopped at its fringe.

    ``stats`` is the evaluation's ``EvaluationStats``.  A helper that
    returns only the answer relation drops the stats, and with them the
    ``incomplete`` tag, so it calls this instead: a fringe answer must never
    read as the complete one.  The error carries the trip's report.
    """
    if not stats.incomplete:
        return
    report = ResourceReport(**stats.budget) if stats.budget else None
    kind = report.budget_kind if report is not None else "a"
    raise BudgetExceededError(
        f"{kind} budget exceeded; the fringe answer is partial", report=report
    )


@contextmanager
def supervised(budget: Budget | None) -> Iterator[BudgetMeter | None]:
    """Run a block under a fresh meter for ``budget`` (``None``: unchanged).

    The primary entry point for callers outside the engine (the conformance
    runner, the shell, tests)::

        with supervised(Budget(deadline_seconds=0.05)):
            program.evaluate(database)
    """
    if budget is None:
        yield _ACTIVE_METER.get()
        return
    meter = budget.start()
    saved = _ACTIVE_METER.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE_METER.reset(saved)


def parse_budget_spec(tokens: str | list[str]) -> Budget:
    """Parse ``key=value`` budget tokens (CLI / shell syntax).

    Accepts a single string (``"deadline=0.05 rounds=10 fringe"``) or a token
    list.  Keys: ``deadline`` (seconds, float), ``qe_steps``, ``rounds``,
    ``tuples``, ``joins``, ``qe_rung_steps`` (ints); the bare word ``fringe``
    (or ``partial=fringe``) selects partial-result mode.
    """
    if isinstance(tokens, str):
        tokens = tokens.split()
    fields: dict[str, Any] = {}
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        if token in ("fringe", "partial=fringe", "partial_results=fringe"):
            fields["partial_results"] = "fringe"
            continue
        if token in ("raise", "partial=raise", "partial_results=raise"):
            fields["partial_results"] = "raise"
            continue
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"bad budget token {token!r} (expected key=value)")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key in ("deadline", "deadline_seconds"):
                fields["deadline_seconds"] = float(value)
            elif key in ("qe_steps", "qe"):
                fields["qe_steps"] = int(value)
            elif key == "rounds":
                fields["rounds"] = int(value)
            elif key == "tuples":
                fields["tuples"] = int(value)
            elif key == "joins":
                fields["joins"] = int(value)
            elif key in ("qe_rung_steps", "rung"):
                fields["qe_rung_steps"] = int(value)
            else:
                raise ValueError(f"unknown budget key {key!r}")
        except ValueError as error:
            if "unknown budget key" in str(error):
                raise
            raise ValueError(f"bad budget value in {token!r}") from error
    return Budget(**fields)
