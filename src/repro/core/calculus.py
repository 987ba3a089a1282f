"""Bottom-up, closed-form evaluation of relational calculus + constraints.

This is the Figure 1 pipeline: a query program phi with database atoms is
interpreted by treating each atom R(z1..zk) as a shorthand for the input
relation's DNF formula (Remark D), and the resulting constraint-theory
formula is evaluated to a *generalized relation* -- quantifiers are
eliminated by the theory, so the output is closed form (Definitions 1.6-1.8).

Evaluation is structural recursion producing DNFs of constraint atoms:

* a constraint atom is a one-conjunct DNF;
* a database atom contributes one conjunct per input generalized tuple
  (variables renamed to the atom's arguments);
* a negated database atom contributes the *complement* of the input
  relation, computed by De Morgan expansion with satisfiability pruning and
  canonical deduplication (polynomially many cells for a fixed arity);
* conjunction distributes (with satisfiability pruning), disjunction unions;
* ``exists`` calls the theory's quantifier elimination per conjunct;
* ``forall`` is rewritten as not-exists-not during the NNF pass, so general
  negation only ever applies to database atoms and theory atoms.

A positive existential conjunctive block skips the distribution: the
outermost ``exists``/``and`` node whose subtree holds only relation atoms
and theory atoms under ``exists`` -- at least one relation atom, at least
two conjuncts once nested ``and``/``exists`` are flattened and bound
variables renamed apart -- is the nonrecursive rule ``Ans(free) :- body``,
evaluated by the Datalog engine's one compiled join
(:mod:`repro.core.compile`).  The join extends one tuple at a time, prunes
by pins, and probes each relation's generalized 1-d index (Section 1.1(3))
where ``conjoin_dnf`` would canonicalize every pair: Figure 2 is
``Ans(n1, n2) :- Rect(n1, x, y), Rect(n2, x, y), n1 != n2``.  Disjunction,
negation, universal quantifiers, lone relation atoms and constraint-only
blocks stay on the DNF route.  The join's satisfiability checks decide
every partial conjunction, where ``canonicalize`` tolerates conjunctions
outside the quantifier-elimination fragment; a block whose join raises
:class:`UnsupportedEliminationError` is evaluated by the DNF route
instead.  A budget trip raises :class:`BudgetExceededError`, even under a
``partial_results="fringe"`` budget: a query answer has no fringe tag.

For a fixed query the whole computation is polynomial in the database size,
which is the data-complexity discipline of Definition 1.13 (the sharper
LOGSPACE bound of Theorem 3.14 is realized by the verbatim EVAL-phi
implementation in :mod:`repro.core.rconfig`).
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.base import Conjunction, ConstraintTheory
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
)
from repro.errors import ArityError, EvaluationError, UnsupportedEliminationError
from repro.logic.syntax import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    free_variables,
)
from repro.logic.transform import to_nnf
from repro.runtime.budget import raise_if_incomplete

Dnf = list[Conjunction]


def evaluate_calculus(
    query: Formula,
    database: GeneralizedDatabase,
    output: Sequence[str] | None = None,
    name: str = "result",
) -> GeneralizedRelation:
    """Evaluate a relational calculus + constraints query program.

    ``output`` fixes the result relation's variable order; it must equal the
    query's free variables as a set (default: sorted free variables).
    Returns a generalized relation -- the closed-form requirement of the CQL
    design principles.
    """
    free = free_variables(query)
    if output is None:
        output = tuple(sorted(free))
    if set(output) != set(free):
        raise EvaluationError(
            f"output variables {tuple(output)} differ from the query's free "
            f"variables {tuple(sorted(free))}"
        )
    _validate_arities(query, database)
    theory = database.theory
    nnf = to_nnf(query, theory.negate_atom)
    dnf = _eval(nnf, database, theory)
    result = GeneralizedRelation(name, tuple(output), theory)
    for conjunction in dnf:
        result.add_tuple(conjunction)
    return result


def _validate_arities(query: Formula, database: GeneralizedDatabase) -> None:
    from repro.logic.syntax import all_relation_atoms

    for atom in all_relation_atoms(query):
        relation = database.relation(atom.name)
        if relation.arity != len(atom.args):
            raise ArityError(
                f"{atom.name} has arity {relation.arity}, used with "
                f"{len(atom.args)} arguments"
            )


def _eval(
    formula: Formula,
    database: GeneralizedDatabase,
    theory: ConstraintTheory,
    join: bool = True,
) -> Dnf:
    """The formula as a DNF over its free variables.

    ``join`` is False inside a block whose join fell back, so the whole
    block takes the DNF route.
    """
    if join and isinstance(formula, (And, Exists)):
        try:
            joined = _join(formula, database, theory)
        except UnsupportedEliminationError:
            joined, join = None, False
        if joined is not None:
            return joined
    if isinstance(formula, RelationAtom):
        relation = database.relation(formula.name)
        return [
            tuple(t.rename(formula.args).atoms) for t in relation
        ]
    if isinstance(formula, Atom):
        canonical = theory.canonicalize((formula,))
        return [] if canonical is None else [canonical]
    if isinstance(formula, Not):
        child = formula.child
        if not isinstance(child, RelationAtom):
            raise EvaluationError(
                f"negation of {child} survived NNF; this is a bug"
            )
        return relation_complement_dnf(
            database.relation(child.name), child.args, theory
        )
    if isinstance(formula, And):
        result: Dnf = [()]
        for part in formula.children:
            part_dnf = _eval(part, database, theory, join=join)
            result = conjoin_dnf(result, part_dnf, theory)
            if not result:
                return []
        return result
    if isinstance(formula, Or):
        merged: Dnf = []
        seen: set[frozenset[Atom]] = set()
        for part in formula.children:
            for conjunction in _eval(part, database, theory, join=join):
                key = frozenset(conjunction)
                if key not in seen:
                    seen.add(key)
                    merged.append(conjunction)
        return merged
    if isinstance(formula, Exists):
        inner = _eval(formula.child, database, theory, join=join)
        result = []
        seen = set()
        for conjunction in inner:
            for eliminated in theory.eliminate(conjunction, formula.variables_bound):
                canonical = theory.canonicalize(eliminated)
                if canonical is None:
                    continue
                key = frozenset(canonical)
                if key not in seen:
                    seen.add(key)
                    result.append(canonical)
        return result
    if isinstance(formula, ForAll):
        # forall v . psi  ==  not exists v . not psi.  The inner complement
        # works on the evaluated DNF of psi.
        inner = _eval(formula.child, database, theory, join=join)
        complemented = complement_dnf(inner, theory)
        eliminated: Dnf = []
        seen = set()
        for conjunction in complemented:
            for reduced in theory.eliminate(conjunction, formula.variables_bound):
                canonical = theory.canonicalize(reduced)
                if canonical is None:
                    continue
                key = frozenset(canonical)
                if key not in seen:
                    seen.add(key)
                    eliminated.append(canonical)
        return complement_dnf(eliminated, theory)
    raise EvaluationError(f"cannot evaluate {formula!r}")


def _join(
    formula: Formula,
    database: GeneralizedDatabase,
    theory: ConstraintTheory,
) -> Dnf | None:
    """A conjunctive block's DNF by the compiled rule join, or None.

    None when ``formula`` is not a positive existential conjunctive block
    with a relation atom and two conjuncts (see the module docstring).
    """
    free = free_variables(formula)
    relations: list[RelationAtom] = []
    constraints: list[Atom] = []
    if not _flatten(formula, {}, set(free), relations, constraints):
        return None
    if not relations or len(relations) + len(constraints) < 2:
        return None
    # deferred: the engine's rule compiler imports this module
    from repro.core.datalog import DatalogProgram, Rule

    head = tuple(sorted(free))
    answer = "_calculus_answer"
    while answer in database:
        answer += "_"
    rule = Rule(RelationAtom(answer, head), (*relations, *constraints))
    world, stats = DatalogProgram([rule], theory).evaluate(database)
    raise_if_incomplete(stats)
    return [tuple(t.rename(head).atoms) for t in world.relation(answer)]


def _flatten(
    formula: Formula,
    renaming: dict[str, str],
    used: set[str],
    relations: list[RelationAtom],
    constraints: list[Atom],
) -> bool:
    """Collect a conjunctive block's atoms, renaming bound variables apart.

    ``used`` holds the block's free variables and every bound variable met
    so far; a bound variable already in it is renamed to a fresh name.
    False when the block holds anything but relation atoms, theory atoms,
    ``and`` and ``exists``.
    """
    if isinstance(formula, RelationAtom):
        relations.append(formula.rename(renaming))
        return True
    if isinstance(formula, Atom):
        constraints.append(formula.rename(renaming))
        return True
    if isinstance(formula, And):
        return all(
            _flatten(part, renaming, used, relations, constraints)
            for part in formula.children
        )
    if isinstance(formula, Exists):
        inner = dict(renaming)
        for variable in formula.variables_bound:
            name, suffix = variable, 0
            while name in used:
                suffix += 1
                name = f"{variable}_{suffix}"
            if name != variable:
                inner[variable] = name
            used.add(name)
        return _flatten(formula.child, inner, used, relations, constraints)
    return False


def conjoin_dnf(left: Dnf, right: Dnf, theory: ConstraintTheory) -> Dnf:
    """Distribute a conjunction of two DNFs, pruning unsatisfiable conjuncts."""
    result: Dnf = []
    seen: set[frozenset[Atom]] = set()
    for a in left:
        for b in right:
            merged = a + b
            canonical = theory.canonicalize(merged)
            if canonical is None:
                continue
            key = frozenset(canonical)
            if key not in seen:
                seen.add(key)
                result.append(canonical)
    return result


def relation_complement_dnf(
    relation: GeneralizedRelation,
    args: Sequence[str],
    theory: ConstraintTheory,
) -> Dnf:
    """The complement of a generalized relation, renamed onto ``args``.

    This is the De Morgan expansion a negated database atom denotes; the
    Datalog engine caches the result per (relation name, args, content
    version), so stratified/inflationary rounds stop recomplementing
    relations that did not change.
    """
    renamed = [tuple(t.rename(tuple(args)).atoms) for t in relation]
    return complement_dnf(renamed, theory)


def complement_dnf(dnf: Dnf, theory: ConstraintTheory) -> Dnf:
    """The complement of a DNF of constraint atoms, as a DNF.

    ``not (t1 or ... or tN) = and_i (not t_i)``; each ``not t_i`` is a
    disjunction of negated atoms (theory-level negation), and the big
    conjunction is expanded incrementally with satisfiability pruning and
    canonical deduplication.  For a fixed arity the distinct canonical cells
    are polynomial in the constraint count, so the expansion stays
    polynomial despite the naive 2^N bound.
    """
    from repro.logic.transform import to_dnf

    result: Dnf = [()]
    for conjunction in dnf:
        negated_branches: list[tuple[Atom, ...]] = []
        for atom in conjunction:
            negation = theory.negate_atom(atom)
            for branch in to_dnf(negation):
                negated_branches.append(tuple(branch))  # type: ignore[arg-type]
        if not conjunction:
            return []  # complement of "true" is "false"
        step: Dnf = []
        seen: set[frozenset[Atom]] = set()
        for existing in result:
            for branch in negated_branches:
                canonical = theory.canonicalize(existing + branch)
                if canonical is None:
                    continue
                key = frozenset(canonical)
                if key not in seen:
                    seen.add(key)
                    step.append(canonical)
        result = _prune_subsumed(step)
        if not result:
            return []
    return result


def _prune_subsumed(dnf: Dnf) -> Dnf:
    """Drop conjunctions whose atom set strictly contains another's.

    A superset conjunction denotes a subset of points, so removing it keeps
    the union unchanged; this keeps the complement expansion at the minimal
    covers instead of all 2^N branch combinations.
    """
    keyed = sorted(
        ((frozenset(conj), conj) for conj in dnf), key=lambda kv: len(kv[0])
    )
    kept: list[tuple[frozenset[Atom], tuple[Atom, ...]]] = []
    for key, conj in keyed:
        if any(other <= key for other, _ in kept):
            continue
        kept.append((key, conj))
    return [conj for _, conj in kept]


def evaluate_boolean_query(
    query: Formula, database: GeneralizedDatabase
) -> bool:
    """Evaluate a closed query program to true/false."""
    free = free_variables(query)
    if free:
        raise EvaluationError(
            f"boolean query must be closed; free variables {sorted(free)}"
        )
    result = evaluate_calculus(query, database, output=())
    return len(result) > 0
