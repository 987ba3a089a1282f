"""Execution supervisor: budgets, deadlines, degradation, fault injection.

See DESIGN.md section 9.  :mod:`repro.runtime.budget` provides the ambient
:class:`Budget`/:class:`BudgetMeter` machinery and the module-level
:func:`tick` used by the fixpoint/QE/algebra loops;
:mod:`repro.runtime.chaos` provides the seeded fault-injection wrappers used
by the conformance runner's ``--chaos`` mode.
"""

from repro.runtime.budget import (
    Budget,
    BudgetMeter,
    CancellationToken,
    ResourceReport,
    active_meter,
    metered,
    parse_budget_spec,
    supervised,
    tick,
)
from repro.runtime.chaos import (
    ChaosPolicy,
    ChaosRuntime,
    ChaosStats,
    ChaosTheory,
    ResilientTheory,
    chaos_scope,
    current_chaos,
    harden,
    parse_chaos_spec,
    unwrap_theory,
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "CancellationToken",
    "ResourceReport",
    "active_meter",
    "metered",
    "parse_budget_spec",
    "supervised",
    "tick",
    "ChaosPolicy",
    "ChaosRuntime",
    "ChaosStats",
    "ChaosTheory",
    "ResilientTheory",
    "chaos_scope",
    "current_chaos",
    "harden",
    "parse_chaos_spec",
    "unwrap_theory",
]
