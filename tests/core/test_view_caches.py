"""A materialized view's join caches stay bounded by its live content.

A :class:`MaterializedView` keeps its join caches (its own, plus one per
delta-expansion program) across maintenance steps.  Every write bumps the
written relation's content version and replaces tuples, so caches keyed by
version or holding tuples strongly would grow with every write.  Each cache
keeps only what the live relations can still hit: probe results of the
current version, and the entry records of tuples that are still alive.
"""

import gc
import random
import weakref
from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core import DatalogProgram, GeneralizedDatabase, MaterializedView
from repro.core.generalized import GeneralizedTuple
from repro.logic.parser import parse_rules

#: a recursive stratum and a non-recursive one, both maintained by DRed
RULES = """
T(x, y) :- E(x, y).
T(x, z) :- E(x, y), T(y, z).
R(x, z) :- E(x, y), E(y, z).
"""

NODES = 6
PAIRS = 500
#: cached items allowed per live tuple, for each cache of the view
MULTIPLE = 4


def _point(theory, a, b):
    return GeneralizedTuple(
        ("x", "y"),
        (
            theory.equality("x", theory.constant(Fraction(a))),
            theory.equality("y", theory.constant(Fraction(b))),
        ),
    )


def _view():
    theory = DenseOrderTheory()
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(NODES - 1):
        edges.add_point([Fraction(i), Fraction(i + 1)])
    program = DatalogProgram(parse_rules(RULES, theory=theory), theory)
    return theory, MaterializedView(program, db)


def _cache_sizes(caches):
    """(name, items held) for each join cache of one ``_EvalCaches``."""
    yield "centries", sum(len(records) for records in caches.centries.values())
    yield "cscan", sum(len(records) for _, records in caches.cscan.values())
    yield "cprobe", sum(len(by_bounds) for _, by_bounds in caches.cprobe.values())


def _all_caches(view):
    yield "view", view._caches
    for index, stratum in enumerate(view._strata):
        if stratum.caches is not None:
            yield f"expansion {index}", stratum.caches


def test_caches_stay_bounded_by_live_tuples():
    theory, view = _view()
    rng = random.Random(7)
    for _ in range(PAIRS):
        a = rng.randrange(NODES - 2)
        b = rng.randrange(a + 2, NODES)
        edge = _point(theory, a, b)
        view.insert("E", edge)
        view.retract("E", edge)
    live = sum(len(view.relation(name)) for name in view.world.names())
    assert live > 0
    for label, caches in _all_caches(view):
        for name, size in _cache_sizes(caches):
            assert size <= MULTIPLE * live, (label, name, size, live)


def test_retracted_tuple_is_collected():
    theory, view = _view()
    view.insert("E", _point(theory, 0, 5))
    stored = view.relation("E").lookup(frozenset(_point(theory, 0, 5).atoms))
    assert stored is not None
    collected = weakref.ref(stored)
    del stored
    view.retract("E", _point(theory, 0, 5))
    # one more write moves the expansion's delta relations past the
    # retraction, so only a cache could still hold the tuple
    view.insert("E", _point(theory, 2, 7))
    view.retract("E", _point(theory, 2, 7))
    gc.collect()
    assert collected() is None
