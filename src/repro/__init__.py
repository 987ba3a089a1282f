"""repro: a full reproduction of "Constraint Query Languages"
(Kanellakis, Kuper, Revesz; PODS 1990).

Quick start::

    from repro import DenseOrderTheory, GeneralizedDatabase, evaluate_calculus
    from repro.logic.parser import parse_query

    order = DenseOrderTheory()
    db = GeneralizedDatabase(order)
    rect = db.create_relation("R", ("n", "x", "y"))
    rect.add_tuple([order.eq("n", 1), order.le(0, "x"), order.le("x", 2),
                    order.le(0, "y"), order.le("y", 2)])
    query = parse_query("exists x, y . R(n1, x, y) and R(n2, x, y) and n1 != n2",
                        theory=order)
    result = evaluate_calculus(query, db, output=("n1", "n2"))

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction of every table and figure of the paper.
"""

from repro.constraints import (
    BooleanTheory,
    DenseOrderTheory,
    EqualityTheory,
    RealPolynomialTheory,
)
from repro.core import algebra
from repro.core.calculus import evaluate_boolean_query, evaluate_calculus
from repro.core.datalog import DatalogProgram, Rule
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
    GeneralizedTuple,
)
from repro.core.magic import MagicQuery, answer_magic_query

__version__ = "1.0.0"

__all__ = [
    "BooleanTheory",
    "DatalogProgram",
    "DenseOrderTheory",
    "EqualityTheory",
    "GeneralizedDatabase",
    "GeneralizedRelation",
    "GeneralizedTuple",
    "RealPolynomialTheory",
    "MagicQuery",
    "Rule",
    "algebra",
    "answer_magic_query",
    "evaluate_boolean_query",
    "evaluate_calculus",
    "__version__",
]
