"""The CQL framework itself (Sections 1, 3, 4 of the paper).

* :mod:`repro.core.generalized` -- generalized tuples, relations, databases
  (Definitions 1.3/1.4);
* :mod:`repro.core.calculus` -- bottom-up closed-form evaluation of
  relational calculus + constraints (the Figure 1 pipeline);
* :mod:`repro.core.datalog` -- Datalog and inflationary Datalog with
  constraints (naive/semi-naive, inflationary negation, closure guards);
* :mod:`repro.core.rconfig` -- r-configurations and the EVAL-phi algorithm of
  Section 3.1 (Lemmas 3.6-3.13), implemented verbatim;
* :mod:`repro.core.econfig` -- e-configurations (Section 4);
* :mod:`repro.core.herbrand` -- generalized Herbrand atoms and the T_P
  operator of Section 3.2 (Theorems 3.19/3.20);
* :mod:`repro.core.fringe` -- generalized derivation trees, the polynomial
  fringe property and round-synchronous parallel evaluation (Section 3.3,
  Theorem 3.21);
* :mod:`repro.core.ivm` -- incremental view maintenance: live fixpoints
  under insert/retract deltas (DRed over the same engine).
"""

from repro.core import algebra
from repro.core.calculus import evaluate_calculus
from repro.core.datalog import DatalogProgram, Rule
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
    GeneralizedTuple,
)
from repro.core.ivm import MaterializedView

__all__ = [
    "DatalogProgram",
    "MaterializedView",
    "algebra",
    "GeneralizedDatabase",
    "GeneralizedRelation",
    "GeneralizedTuple",
    "Rule",
    "evaluate_calculus",
]
