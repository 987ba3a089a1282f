"""Seeded fault injection for constraint theories (the chaos harness).

The supervisor's promise is *predictable degradation*: under resource
pressure or solver faults the engine may slow down, retry, or give up with a
structured error -- but it must never return a wrong answer.  This module
provides the adversary that proves it:

- :class:`ChaosPolicy` -- a seeded, probabilistic fault plan over named
  injection sites (``sat``, ``canonicalize``, ``qe_step``, ``join``);
- :class:`ChaosTheory` -- wraps any :class:`ConstraintTheory` and fires
  injections at those sites before delegating to the real solver;
- :class:`ResilientTheory` -- retry-with-exponential-backoff for the
  transient fault class (:class:`repro.errors.TransientTheoryError`);
- :func:`chaos_scope` -- arms a policy for a dynamic extent.  Outside the
  scope a wrapped theory is inert, so differential oracles can re-examine
  relations produced under chaos without re-triggering faults.

Faults are modeled after failpoint-style harnesses: every injection is drawn
from one seeded :class:`random.Random`, so a run is reproducible from
``(seed, p)`` alone.  A *fairness bound* (``max_consecutive``, kept at or
below ``max_retries``) guarantees a site never fails more than that many
times in a row, which makes retry success deterministic -- the conformance
runner's zero-mismatch acceptance test is therefore non-flaky.

Injected fault kinds:

``transient``
    raises :class:`TransientTheoryError`; the retry wrapper recovers.
``spurious_unsat``
    raises :class:`SpuriousUnsatError` -- a certificate-less UNSAT is a
    protocol violation surfaced as a retryable error, never a silent tuple
    drop (which would corrupt answers and defeat the differential oracles).
``latency``
    sleeps ``latency_seconds`` (exercises deadlines).
``memory_spike``
    allocates and immediately drops ``memory_spike_bytes``.
``theory_error``
    raises a hard, non-retryable :class:`TheoryError` (off by default).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.constraints.base import ConjunctionContext, Conjunction, ConstraintTheory
from repro.errors import SpuriousUnsatError, TheoryError, TransientTheoryError
from repro.logic.syntax import Atom, Formula

T = TypeVar("T")

#: sites a policy may target (the theory-facing subset of the budget sites)
CHAOS_SITES = ("sat", "canonicalize", "qe_step", "join")

#: fault kinds that abort the call (subject to the fairness bound)
RAISING_FAULTS = frozenset({"transient", "spurious_unsat", "theory_error"})

#: fault kinds enabled by default (hard theory_error is opt-in)
DEFAULT_FAULTS = ("transient", "latency", "spurious_unsat", "memory_spike")


@dataclass(frozen=True)
class ChaosPolicy:
    """A reproducible fault plan: everything derives from ``(seed, p)``."""

    seed: int = 0
    #: per-call injection probability at each targeted site
    p: float = 0.05
    sites: tuple[str, ...] = CHAOS_SITES
    faults: tuple[str, ...] = DEFAULT_FAULTS
    latency_seconds: float = 0.001
    memory_spike_bytes: int = 1 << 20
    #: retries granted to the transient class (used by :func:`harden`)
    max_retries: int = 3
    backoff_base_seconds: float = 0.0005
    #: fairness bound: never raise more than this many times in a row per
    #: site; keep <= max_retries so retried operations always succeed
    max_consecutive: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"injection probability must be in [0,1], got {self.p}")
        if self.max_consecutive > self.max_retries:
            raise ValueError(
                "max_consecutive must not exceed max_retries "
                f"({self.max_consecutive} > {self.max_retries}): retries could "
                "be exhausted by back-to-back injections"
            )
        unknown = set(self.sites) - set(CHAOS_SITES)
        if unknown:
            raise ValueError(f"unknown chaos sites: {sorted(unknown)}")
        unknown = set(self.faults) - (RAISING_FAULTS | {"latency", "memory_spike"})
        if unknown:
            raise ValueError(f"unknown chaos faults: {sorted(unknown)}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "p": self.p,
            "sites": list(self.sites),
            "faults": list(self.faults),
            "max_retries": self.max_retries,
            "max_consecutive": self.max_consecutive,
        }


@dataclass
class ChaosStats:
    """Injection/retry accounting for one :class:`ChaosRuntime`."""

    calls: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    by_site: dict[str, int] = field(default_factory=dict)
    suppressed_by_fairness: int = 0
    retries: int = 0
    retry_successes: int = 0

    def record(self, site: str, fault: str) -> None:
        self.injected[fault] = self.injected.get(fault, 0) + 1
        self.by_site[site] = self.by_site.get(site, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "total_injected": self.total_injected,
            "injected_by_fault": dict(sorted(self.injected.items())),
            "injected_by_site": dict(sorted(self.by_site.items())),
            "suppressed_by_fairness": self.suppressed_by_fairness,
            "retries": self.retries,
            "retry_successes": self.retry_successes,
        }


class ChaosRuntime:
    """A policy armed with its seeded RNG, stats, and fairness counters."""

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy
        self.rng = random.Random(policy.seed)
        self.stats = ChaosStats()
        self._consecutive: dict[str, int] = {}

    def fire(self, site: str) -> None:
        """Maybe inject one fault at ``site`` (called from wrapped theories)."""
        policy = self.policy
        if site not in policy.sites:
            return
        self.stats.calls += 1
        if self.rng.random() >= policy.p:
            # a clean pass-through resets the consecutive-failure streak
            self._consecutive[site] = 0
            return
        fault = self.rng.choice(policy.faults)
        if fault in RAISING_FAULTS:
            if self._consecutive.get(site, 0) >= policy.max_consecutive:
                # fairness bound: let the retry succeed deterministically
                self._consecutive[site] = 0
                self.stats.suppressed_by_fairness += 1
                return
            self._consecutive[site] = self._consecutive.get(site, 0) + 1
        self.stats.record(site, fault)
        if fault == "latency":
            time.sleep(policy.latency_seconds)
        elif fault == "memory_spike":
            spike = bytearray(policy.memory_spike_bytes)
            del spike
        elif fault == "transient":
            raise TransientTheoryError(
                f"chaos: injected transient solver fault at site {site!r}"
            )
        elif fault == "spurious_unsat":
            raise SpuriousUnsatError(
                f"chaos: solver claimed UNSAT without a certificate at "
                f"site {site!r}"
            )
        elif fault == "theory_error":
            raise TheoryError(
                f"chaos: injected hard theory fault at site {site!r}"
            )


#: the ambient armed runtime; None means chaos is disarmed
_ACTIVE_CHAOS: ContextVar[ChaosRuntime | None] = ContextVar(
    "repro_chaos_runtime", default=None
)


def current_chaos() -> ChaosRuntime | None:
    """The armed :class:`ChaosRuntime`, if any."""
    return _ACTIVE_CHAOS.get()


@contextmanager
def chaos_scope(policy: ChaosPolicy | ChaosRuntime | None) -> Iterator[ChaosRuntime | None]:
    """Arm ``policy`` for the dynamic extent (``None``: leave disarmed).

    Pass an existing :class:`ChaosRuntime` to continue its RNG stream and
    stats across several scopes (the conformance runner arms one runtime per
    strategy execution but keeps a single stream per case).
    """
    if policy is None:
        yield None
        return
    runtime = policy if isinstance(policy, ChaosRuntime) else ChaosRuntime(policy)
    saved = _ACTIVE_CHAOS.set(runtime)
    try:
        yield runtime
    finally:
        _ACTIVE_CHAOS.reset(saved)


def _inject(site: str) -> None:
    runtime = _ACTIVE_CHAOS.get()
    if runtime is not None:
        runtime.fire(site)


def unwrap_theory(theory: ConstraintTheory) -> ConstraintTheory:
    """Strip chaos/retry wrappers down to the underlying theory.

    Call sites that dispatch on the concrete theory class (boolean algebra
    access, spec decoding) must unwrap first -- ``isinstance`` checks do not
    see through the delegating wrappers.
    """
    while isinstance(theory, _TheoryWrapper):
        theory = theory.inner
    return theory


class _TheoryWrapper(ConstraintTheory):
    """Shared delegation plumbing for :class:`ChaosTheory`/:class:`ResilientTheory`.

    The wrapper shares the inner theory's :class:`TheoryCache` object (the
    reference evaluator flips ``theory.cache.enabled`` off for its run, which
    sends every conjunction through the theory's solver -- both layers must
    observe it) and delegates every operation; subclasses interpose on the
    public entry points only.
    """

    def __init__(self, inner: ConstraintTheory) -> None:
        self.inner = inner
        self.cache = inner.cache

    # identity follows the wrapped theory
    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def canonical_decides_sat(self) -> bool:  # type: ignore[override]
        return self.inner.canonical_decides_sat

    # ------------------------------------------------------- pure delegation
    def validate_atom(self, atom: Atom) -> None:
        self.inner.validate_atom(atom)

    def negate_atom(self, atom: Atom) -> Formula:
        return self.inner.negate_atom(atom)

    def equality(self, left: object, right: object) -> Atom:
        return self.inner.equality(left, right)

    def constant(self, value: object) -> object:
        return self.inner.constant(value)

    def atom_constants(self, atom: Atom) -> frozenset:
        return self.inner.atom_constants(atom)

    def pinned_constants(self, atoms: Sequence[Atom]) -> Mapping[str, Any]:
        return self.inner.pinned_constants(atoms)

    def conjunction_bounds(
        self, context: ConjunctionContext | Sequence[Atom], name: str
    ) -> tuple[Any, Any] | None:
        return self.inner.conjunction_bounds(context, name)

    def _is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        return self.inner._is_satisfiable(atoms)

    def _canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        return self.inner._canonicalize(atoms)

    # public entry points (overridden by subclasses to interpose)
    def is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        return self.inner.is_satisfiable(atoms)

    def canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        return self.inner.canonicalize(atoms)

    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        return self.inner.eliminate(atoms, drop)

    def sample_point(
        self, atoms: Sequence[Atom], variables: Sequence[str]
    ) -> dict[str, Any] | None:
        return self.inner.sample_point(atoms, variables)

    def begin_conjunction(self, atoms: Sequence[Atom]) -> ConjunctionContext:
        return self.inner.begin_conjunction(atoms)

    def extend_conjunction(
        self, context: ConjunctionContext, new_atoms: Sequence[Atom]
    ) -> ConjunctionContext:
        return self.inner.extend_conjunction(context, new_atoms)


class ChaosTheory(_TheoryWrapper):
    """Fire ambient chaos injections before delegating to the real solver.

    Inert unless a :func:`chaos_scope` is armed, so wrapped theories can be
    built once and reused; relations holding a reference to this wrapper are
    safe to inspect after the scope exits.
    """

    def is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        _inject("sat")
        return self.inner.is_satisfiable(atoms)

    def canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        _inject("canonicalize")
        return self.inner.canonicalize(atoms)

    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        _inject("qe_step")
        return self.inner.eliminate(atoms, drop)

    def begin_conjunction(self, atoms: Sequence[Atom]) -> ConjunctionContext:
        _inject("join")
        return self.inner.begin_conjunction(atoms)

    def extend_conjunction(
        self, context: ConjunctionContext, new_atoms: Sequence[Atom]
    ) -> ConjunctionContext:
        _inject("join")
        return self.inner.extend_conjunction(context, new_atoms)


class ResilientTheory(_TheoryWrapper):
    """Retry the transient fault class with exponential backoff.

    Wraps (typically) a :class:`ChaosTheory`; any
    :class:`TransientTheoryError` raised below is retried up to
    ``max_retries`` times, sleeping ``backoff_base * 2**attempt`` between
    attempts.  Hard :class:`TheoryError`\\ s propagate immediately.
    """

    def __init__(
        self,
        inner: ConstraintTheory,
        max_retries: int = 3,
        backoff_base_seconds: float = 0.0005,
    ) -> None:
        super().__init__(inner)
        self.max_retries = max_retries
        self.backoff_base_seconds = backoff_base_seconds

    def _with_retry(self, operation: Callable[[], T]) -> T:
        runtime = _ACTIVE_CHAOS.get()
        attempt = 0
        while True:
            try:
                result = operation()
            except TransientTheoryError:
                if attempt >= self.max_retries:
                    raise
                if runtime is not None:
                    runtime.stats.retries += 1
                time.sleep(self.backoff_base_seconds * (2**attempt))
                attempt += 1
            else:
                if attempt and runtime is not None:
                    runtime.stats.retry_successes += 1
                return result

    def is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        return self._with_retry(lambda: self.inner.is_satisfiable(atoms))

    def canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        return self._with_retry(lambda: self.inner.canonicalize(atoms))

    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        frozen = tuple(drop)
        return self._with_retry(lambda: self.inner.eliminate(atoms, frozen))

    def sample_point(
        self, atoms: Sequence[Atom], variables: Sequence[str]
    ) -> dict[str, Any] | None:
        return self._with_retry(lambda: self.inner.sample_point(atoms, variables))

    def begin_conjunction(self, atoms: Sequence[Atom]) -> ConjunctionContext:
        return self._with_retry(lambda: self.inner.begin_conjunction(atoms))

    def extend_conjunction(
        self, context: ConjunctionContext, new_atoms: Sequence[Atom]
    ) -> ConjunctionContext:
        return self._with_retry(
            lambda: self.inner.extend_conjunction(context, new_atoms)
        )


def harden(
    theory: ConstraintTheory, policy: ChaosPolicy | None = None
) -> ConstraintTheory:
    """The standard chaos stack: retry wrapper over an injection wrapper.

    ``policy`` only supplies the retry parameters here; injection itself is
    governed by whichever policy is armed via :func:`chaos_scope` at call
    time.
    """
    retries = policy.max_retries if policy is not None else 3
    backoff = policy.backoff_base_seconds if policy is not None else 0.0005
    return ResilientTheory(
        ChaosTheory(theory), max_retries=retries, backoff_base_seconds=backoff
    )


def parse_chaos_spec(tokens: str | list[str]) -> ChaosPolicy:
    """Parse ``--chaos`` tokens like ``p=0.05 seed=7 latency=0.002``."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    fields: dict[str, Any] = {}
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"bad chaos token {token!r} (expected key=value)")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "p":
                fields["p"] = float(value)
            elif key == "seed":
                fields["seed"] = int(value)
            elif key in ("latency", "latency_seconds"):
                fields["latency_seconds"] = float(value)
            elif key == "retries":
                fields["max_retries"] = int(value)
            elif key == "sites":
                fields["sites"] = tuple(s for s in value.split(",") if s)
            elif key == "faults":
                fields["faults"] = tuple(s for s in value.split(",") if s)
            else:
                raise ValueError(f"unknown chaos key {key!r}")
        except ValueError as error:
            if "unknown chaos key" in str(error):
                raise
            raise ValueError(f"bad chaos value in {token!r}") from error
    return ChaosPolicy(**fields)
