"""Exception hierarchy for the ``repro`` constraint-query-language library.

Every error raised deliberately by the library derives from :class:`ReproError`
so that callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ParseError(ReproError):
    """A textual query or constraint could not be parsed.

    Carries the offending position so callers can report useful diagnostics.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ArityError(ReproError):
    """A relation was used with the wrong number of arguments."""


class UnknownRelationError(ReproError):
    """A query referenced a relation that is not in the database."""


class TheoryError(ReproError):
    """A constraint atom does not belong to the active constraint theory."""


class UnsupportedEliminationError(ReproError):
    """Quantifier elimination is not available for the given input.

    Raised by the real-polynomial engine when the eliminated variable occurs
    with degree > 2 and the formula has more than two variables (outside the
    fragment covered by Fourier-Motzkin, virtual substitution, and the
    bivariate CAD -- see DESIGN.md section 4).
    """


class NotClosedError(ReproError):
    """A language/recursion combination that is not closed was requested.

    The paper shows (Example 1.12) that Datalog with real polynomial
    constraints is not closed: least fixpoints need not be finitely
    representable.  The Datalog engine refuses such programs up front unless
    the caller explicitly opts in to bounded iteration.
    """


class FixpointDivergenceError(ReproError):
    """Bounded fixpoint iteration exhausted its budget without converging.

    Carries the iteration count and, when the evaluator can provide it, the
    relation sizes of the last completed stage (``relation_sizes``: relation
    name -> number of generalized tuples), so callers can see *how far* the
    runaway fixpoint got before the bound tripped.
    """

    def __init__(
        self,
        iterations: int,
        message: str | None = None,
        relation_sizes: dict[str, int] | None = None,
    ) -> None:
        self.iterations = iterations
        self.relation_sizes = dict(relation_sizes or {})
        if message is None:
            message = f"fixpoint did not converge within {iterations} iterations"
            if self.relation_sizes:
                rendered = ", ".join(
                    f"{name}={size}"
                    for name, size in sorted(self.relation_sizes.items())
                )
                message += f" (last stage sizes: {rendered})"
        super().__init__(message)


class BudgetExceededError(ReproError):
    """A supervised evaluation ran past one of its resource budgets.

    Raised by the cooperative tick points (:mod:`repro.runtime.budget`) inside
    the fixpoint, QE, and algebra loops.  ``report`` is a structured
    :class:`repro.runtime.budget.ResourceReport` describing which budget
    tripped, by how much, and the partial progress observed at that moment.
    """

    def __init__(self, message: str, report=None) -> None:
        self.report = report
        super().__init__(message)


class TransientTheoryError(TheoryError):
    """A theory operation failed for a (presumed) transient reason.

    The chaos layer (:mod:`repro.runtime.chaos`) injects these to model
    recoverable faults -- the retry wrapper backs off and re-invokes the
    solver, and the conformance runner counts exhausted retries as degraded
    runs rather than differential mismatches.
    """


class SpuriousUnsatError(TransientTheoryError):
    """A solver returned UNSAT without a certificate (chaos injection).

    Modeled as a protocol violation of the transient class: a well-behaved
    theory must be able to justify unsatisfiability, so a certificate-less
    UNSAT is surfaced as a retryable error instead of being allowed to
    silently drop tuples (which would corrupt answers).
    """


class EvaluationError(ReproError):
    """A query could not be evaluated against the given database."""


class StaleViewError(EvaluationError):
    """A materialized view was used while tagged stale.

    A maintenance pass that trips its budget in ``partial_results="fringe"``
    mode (or dies mid-flight on a fault) leaves the view's relations in an
    intermediate state that is neither the old nor the new fixpoint, so the
    view is *tagged stale* instead of hanging or corrupting silently.  Stale
    views still answer reads (callers see the tag via ``view.stale``), but
    refuse further deltas until :meth:`repro.core.ivm.MaterializedView.refresh`
    rebuilds them from scratch.
    """


class StaticAnalysisError(ReproError):
    """The opt-in engine pre-flight found error-severity diagnostics.

    Raised by :class:`repro.core.datalog.DatalogProgram` when constructed
    with ``EngineOptions(analyze=True)`` and :mod:`repro.analysis` reports
    unsuppressed errors.  ``diagnostics`` holds the offending
    :class:`repro.analysis.Diagnostic` records.
    """

    def __init__(self, diagnostics) -> None:
        self.diagnostics = list(diagnostics)
        rendered = "; ".join(d.render() for d in self.diagnostics[:3])
        if len(self.diagnostics) > 3:
            rendered += f"; ... ({len(self.diagnostics) - 3} more)"
        super().__init__(
            f"static analysis found {len(self.diagnostics)} error(s): {rendered}"
        )
