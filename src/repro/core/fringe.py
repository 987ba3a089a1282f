"""Generalized derivation trees and parallel evaluation (Section 3.3).

A generalized derivation tree witnesses one way to derive a generalized
Herbrand atom; the paper's parallel evaluation fires every rule in every
round, so the number of rounds needed to derive an atom equals its
minimum-depth generalized derivation tree, and programs with the
*generalized polynomial fringe property* (every derivable atom has a tree
with polynomially many leaves) evaluate in NC (Theorem 3.21) by the
Ullman-van Gelder argument.

This module provides:

* :func:`is_piecewise_linear` -- the syntactic class that always has the
  polynomial fringe property: every rule body contains at most one
  occurrence of a predicate mutually recursive with the head;
* :class:`RoundSynchronousEvaluator` -- naive all-rules-per-round evaluation
  tracking, per derived tuple, the minimum derivation depth and minimum
  fringe (leaf count), i.e. the quantities the theorem bounds;
* :func:`squared_closure_rules` -- the classical recursive-doubling
  transformation of a linear transitive closure, turning O(N) rounds into
  O(log N) rounds, the executable content of the NC claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.graph import strongly_connected_components
from repro.constraints.base import ConstraintTheory
from repro.core.datalog import Rule
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedTuple,
    positional_variables,
)
from repro.errors import EvaluationError
from repro.logic.syntax import Atom, RelationAtom


def mutually_recursive_groups(rules: Sequence[Rule]) -> list[set[str]]:
    """Strongly connected components of the positive IDB dependency graph."""
    idbs = {rule.head.name for rule in rules}
    edges = {
        (rule.head.name, atom.name)
        for rule in rules
        for atom in rule.positive_atoms
        if atom.name in idbs
    }
    return [
        set(component)
        for component in strongly_connected_components(sorted(idbs), edges)
    ]


def is_piecewise_linear(rules: Sequence[Rule]) -> bool:
    """Whether every rule has at most one body atom mutually recursive with
    its head (the Ullman-van Gelder piecewise linear class)."""
    groups = mutually_recursive_groups(rules)
    group_of: dict[str, set[str]] = {}
    for group in groups:
        for name in group:
            group_of[name] = group
    for rule in rules:
        head_group = group_of.get(rule.head.name, {rule.head.name})
        recursive_atoms = [
            atom for atom in rule.positive_atoms if atom.name in head_group
        ]
        # a self-loop-free singleton SCC is not recursive at all
        if rule.head.name not in {
            a.name for r in rules for a in r.positive_atoms
        } and len(head_group) == 1:
            continue
        if len(recursive_atoms) > 1:
            return False
    return True


@dataclass
class DerivationInfo:
    """Minimum derivation-tree statistics for one derived tuple."""

    depth: int
    fringe: int
    round_derived: int


class RoundSynchronousEvaluator:
    """Naive parallel-rounds evaluation with derivation-tree bookkeeping.

    Every round fires every rule against the full current state ("an obvious
    parallel evaluation method tries all possible ways of firing each rule in
    every iteration step").  For each derived generalized tuple we track the
    minimum depth and minimum fringe over its derivations so far; the number
    of rounds to fixpoint equals the maximum minimum-depth, the quantity
    bounded by Theorem 3.21.
    """

    def __init__(self, rules: Sequence[Rule], theory: ConstraintTheory) -> None:
        for rule in rules:
            if rule.has_negation():
                raise EvaluationError("round-synchronous evaluation is for positive programs")
        self.rules = list(rules)
        self.theory = theory

    def evaluate(
        self, database: GeneralizedDatabase, max_rounds: int = 10_000
    ) -> tuple[GeneralizedDatabase, dict[str, dict[frozenset[Atom], DerivationInfo]], int]:
        """Returns (world, per-predicate derivation info, rounds to fixpoint)."""
        world = database.copy()
        idbs = {rule.head.name for rule in self.rules}
        arities: dict[str, int] = {}
        for rule in self.rules:
            arities[rule.head.name] = len(rule.head.args)
        for name in sorted(idbs):
            if name not in world:
                world.create_relation(name, positional_variables(arities[name]))
        info: dict[str, dict[frozenset[Atom], DerivationInfo]] = {
            name: {} for name in idbs
        }
        rounds = 0
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise EvaluationError("round limit exceeded")
            new_entries: list[tuple[str, GeneralizedTuple, int, int]] = []
            for rule in self.rules:
                new_entries.extend(self._fire(rule, world, info))
            changed = False
            for name, item, depth, fringe in new_entries:
                relation = world.relation(name)
                canonical = self.theory.canonicalize(
                    item.rename(relation.variables).atoms
                )
                if canonical is None:
                    continue
                key = frozenset(canonical)
                existing = info[name].get(key)
                if existing is None:
                    relation.add(item)
                    info[name][key] = DerivationInfo(depth, fringe, rounds)
                    changed = True
                else:
                    if depth < existing.depth:
                        existing.depth = depth
                        changed = True
                    if fringe < existing.fringe:
                        existing.fringe = fringe
                        changed = True
            if not changed:
                return world, info, rounds - 1

    def _fire(
        self,
        rule: Rule,
        world: GeneralizedDatabase,
        info: dict[str, dict[frozenset[Atom], DerivationInfo]],
    ) -> list[tuple[str, GeneralizedTuple, int, int]]:
        import itertools

        idbs = set(info.keys())
        choices = []
        for atom in rule.positive_atoms:
            relation = world.relation(atom.name)
            options = []
            for item in relation:
                key = frozenset(
                    self.theory.canonicalize(item.atoms) or ()
                )
                if atom.name in idbs:
                    meta = info[atom.name].get(key)
                    depth = meta.depth if meta else 1
                    fringe = meta.fringe if meta else 1
                else:
                    depth, fringe = 0, 1
                options.append((atom, item, depth, fringe))
            choices.append(options)
        head_vars = rule.head.args
        body_vars = rule.variables()
        drop = tuple(v for v in body_vars if v not in head_vars)
        results = []
        for combo in itertools.product(*choices):
            atoms: list[Atom] = list(rule.constraint_atoms)
            depth = 0
            fringe = 0
            for atom, item, item_depth, item_fringe in combo:
                atoms.extend(item.rename(atom.args).atoms)
                depth = max(depth, item_depth)
                fringe += item_fringe
            if not self.theory.is_satisfiable(tuple(atoms)):
                continue
            for eliminated in self.theory.eliminate(tuple(atoms), drop):
                results.append(
                    (
                        rule.head.name,
                        GeneralizedTuple(head_vars, eliminated),
                        depth + 1,
                        max(fringe, 1),
                    )
                )
        return results


def squared_closure_rules(
    edge_predicate: str, closure_predicate: str, theory: ConstraintTheory
) -> list[Rule]:
    """Recursive-doubling rules for transitive closure.

    ``T(x,y) :- E(x,y)`` and ``T(x,y) :- T(x,z), T(z,y)``: paths double per
    round, so an N-node chain closes in O(log N) rounds instead of the O(N)
    of the right-linear program -- the measurable content of the NC bound for
    polynomial-fringe programs (the squared program is *not* piecewise
    linear, but its derivation trees are balanced: depth O(log N)).
    """
    return [
        Rule(
            RelationAtom(closure_predicate, ("x", "y")),
            (RelationAtom(edge_predicate, ("x", "y")),),
        ),
        Rule(
            RelationAtom(closure_predicate, ("x", "y")),
            (
                RelationAtom(closure_predicate, ("x", "z")),
                RelationAtom(closure_predicate, ("z", "y")),
            ),
        ),
    ]


def linear_closure_rules(
    edge_predicate: str, closure_predicate: str, theory: ConstraintTheory
) -> list[Rule]:
    """The right-linear transitive closure (piecewise linear, O(N) rounds)."""
    return [
        Rule(
            RelationAtom(closure_predicate, ("x", "y")),
            (RelationAtom(edge_predicate, ("x", "y")),),
        ),
        Rule(
            RelationAtom(closure_predicate, ("x", "y")),
            (
                RelationAtom(closure_predicate, ("x", "z")),
                RelationAtom(edge_predicate, ("z", "y")),
            ),
        ),
    ]
