"""A flag-free reference Datalog evaluator: the oracle for the engine's join.

:func:`reference_fixpoint` is the paper's rule firing (Section 1.2;
Theorems 3.14.2 / 4.11.2) written as plainly as it reads: a depth-first
join over the positive body atoms in program order with one
``is_satisfiable`` per level, the negated atoms' complements conjoined at
the leaf, and ``eliminate`` of the body-only variables there.  Rounds
follow :meth:`repro.core.datalog.DatalogProgram.evaluate`'s ``semantics``:
semi-naive for positive programs, stratum by stratum for stratifiable
negation, inflationary otherwise (or on request).

It shares no join code with the engine it checks: no planner, indexes,
pin maps, rename/complement caches or compiled closures, and the theories'
:class:`~repro.constraints.base.TheoryCache` is off for the run.  The
complement of every negated atom is recomputed at every firing.  What it
does share is not join code: the theory API, ``relation_complement_dnf``,
``GeneralizedRelation.add_canonical`` and the dependency graph of
:mod:`repro.analysis.graph`.  Derived tuples are stored canonically, so
the result is compared with the engine's through
:func:`repro.conformance.oracles.compare_relations`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.graph import build_dependency_graph
from repro.constraints.base import ConstraintTheory
from repro.core.calculus import relation_complement_dnf
from repro.core.generalized import GeneralizedDatabase, GeneralizedTuple
from repro.errors import EvaluationError

if TYPE_CHECKING:
    from repro.core.datalog import Rule

Derived = list[tuple[str, GeneralizedTuple]]


def reference_fixpoint(
    rules: Sequence[Rule],
    theory: ConstraintTheory,
    database: GeneralizedDatabase,
    semantics: str = "auto",
) -> GeneralizedDatabase:
    """The fixpoint of ``rules`` over ``database``, as a new database.

    ``semantics`` is ``"auto"``, ``"stratified"`` or ``"inflationary"``,
    exactly as :meth:`repro.core.datalog.DatalogProgram.evaluate` defines
    them.  ``database`` is not modified: input relations the rules derive
    into are copied, the others are shared read-only.
    """
    if semantics not in ("auto", "stratified", "inflationary"):
        raise EvaluationError(f"unknown semantics {semantics!r}")
    caches = []
    for cache in (theory.cache, database.theory.cache):
        if cache is not None and all(cache is not c for c in caches):
            caches.append(cache)
    prior = [cache.enabled for cache in caches]
    for cache in caches:
        cache.enabled = False
    try:
        world = _prepare(rules, database)
        if not any(rule.negative_atoms for rule in rules):
            _semi_naive(rules, theory, world)
        elif semantics == "inflationary":
            _rounds(rules, theory, world)
        else:
            graph = build_dependency_graph(rules)
            if graph.is_stratifiable():
                # SCCs come callees first: each negated predicate is complete
                # before the stratum that negates it runs
                for component in graph.sccs:
                    stratum = [r for r in rules if r.head.name in component]
                    _rounds(stratum, theory, world)
            elif semantics == "stratified":
                raise EvaluationError(
                    "program is not stratifiable (negation through recursion)"
                )
            else:
                _rounds(rules, theory, world)
    finally:
        for cache, enabled in zip(caches, prior):
            cache.enabled = enabled
    return world


def _prepare(
    rules: Sequence[Rule], database: GeneralizedDatabase
) -> GeneralizedDatabase:
    heads = {rule.head.name: len(rule.head.args) for rule in rules}
    world = GeneralizedDatabase(database.theory)
    for relation in database.relations():
        if relation.name in heads:
            relation = relation.copy()
        world.add_relation(relation)
    for name, arity in sorted(heads.items()):
        if name not in world:
            world.create_relation(name, tuple(f"_{i}" for i in range(arity)))
    return world


def _fire(
    rule: Rule,
    theory: ConstraintTheory,
    world: GeneralizedDatabase,
    sources: Sequence[Iterable[GeneralizedTuple]],
) -> Derived:
    """Every head tuple one firing derives, body atom ``i`` drawing from
    ``sources[i]``."""
    positives = rule.positive_atoms
    complements = [
        relation_complement_dnf(world.relation(atom.name), atom.args, theory)
        for atom in rule.negative_atoms
    ]
    head = rule.head
    drop = tuple(v for v in rule.variables() if v not in head.args)
    derived: Derived = []

    def join(level: int, conjunction: tuple) -> None:
        if not theory.is_satisfiable(conjunction):
            return
        if level < len(positives):
            atom = positives[level]
            for item in sources[level]:
                renamed = tuple(item.rename(atom.args).atoms)
                join(level + 1, conjunction + renamed)
            return
        for parts in itertools.product(*complements):
            full = conjunction + tuple(a for part in parts for a in part)
            if parts and not theory.is_satisfiable(full):
                continue
            for eliminated in theory.eliminate(full, drop):
                item = GeneralizedTuple(head.args, eliminated)
                derived.append((head.name, item))

    join(0, tuple(rule.constraint_atoms))
    return derived


def _admit(
    world: GeneralizedDatabase, derived: Derived
) -> dict[str, list[GeneralizedTuple]]:
    """Add a round's derivations; the tuples that were new, per relation."""
    new: dict[str, list[GeneralizedTuple]] = {}
    for name, item in derived:
        stored = world.relation(name).add_canonical(item)
        if stored is not None:
            new.setdefault(name, []).append(stored)
    return new


def _full(
    rule: Rule, world: GeneralizedDatabase
) -> list[Iterable[GeneralizedTuple]]:
    return [world.relation(atom.name) for atom in rule.positive_atoms]


def _fire_all(
    rules: Sequence[Rule], theory: ConstraintTheory, world: GeneralizedDatabase
) -> Derived:
    return [d for r in rules for d in _fire(r, theory, world, _full(r, world))]


def _rounds(
    rules: Sequence[Rule], theory: ConstraintTheory, world: GeneralizedDatabase
) -> None:
    """Fire every rule against the current state until a round adds nothing."""
    while _admit(world, _fire_all(rules, theory, world)):
        pass


def _semi_naive(
    rules: Sequence[Rule], theory: ConstraintTheory, world: GeneralizedDatabase
) -> None:
    """Rounds after the first fire each rule once per body position holding
    a derived predicate, that position drawing from the last round's new
    tuples."""
    delta = _admit(world, _fire_all(rules, theory, world))
    while delta:
        derived: Derived = []
        for rule in rules:
            for position, atom in enumerate(rule.positive_atoms):
                if atom.name in delta:
                    sources = _full(rule, world)
                    sources[position] = delta[atom.name]
                    derived.extend(_fire(rule, theory, world, sources))
        delta = _admit(world, derived)
