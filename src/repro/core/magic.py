"""Magic-set rewriting for Datalog + constraints.

The paper cites Ramakrishnan's magic templates [44] as prior work on
constraint-aware evaluation and asks in Section 6(3) how "various
optimization methods combine with our framework".  This module implements
the magic-set transformation in the generalized setting and is the engine's
demand-driven query front end (see :mod:`repro.core.query` for the
``Engine`` facade): given a query ``q(args)`` with some argument positions
*bound*, the program is rewritten so that bottom-up evaluation only derives
facts *relevant* to those bindings.

Bindings are **constraint bindings**, not just constants: a bound position
carries an arbitrary satisfiable conjunction of single-variable constraint
atoms of the active theory -- a dense-order interval (``3 < x and x < 5``),
an equality with a constant, a boolean element equation.  The bindings are
seeded into the query's magic predicate as one *generalized tuple*, so the
same engine evaluates the rewritten program unchanged: sideways information
passing is the ordinary constraint join, which conjoins the seed's atoms
onto every derivation it guards (projection/propagation happen through
``theory.canonicalize`` and are probed via ``theory.conjunction_bounds``
exactly like any other conjunction on the fast path).

Construction (left-to-right sideways information passing):

* every IDB predicate occurrence gets an *adornment* -- a b/f string marking
  which argument positions are bound;
* each rule for an adorned predicate ``p^a`` is guarded by a body atom
  ``magic_p^a(bound args)``;
* for each IDB atom ``r`` in a rule body, a *magic rule* derives
  ``magic_r^b`` from the guard plus the literals to its left;
* the query's bindings seed the magic predicate of the query.

**Negation.**  The classical transformation is defined for positive
programs; :func:`magic_rewrite` still raises on any negation.  The planner
:func:`magic_plan` instead *restricts the rewrite to the negation-free
part*: every predicate whose derivation cone contains a negated literal
(equivalently: every predicate in a stratum at or above a negation) is
evaluated in full -- its rules are carried over untouched and it is treated
as an EDB relation by the adornment -- while the negation-free cone above
it is still magic-restricted.  When the query predicate itself sits in a
negation stratum (or the part of the program the query reaches is not
stratifiable, or has negation and inflationary semantics was requested)
the plan degrades to full evaluation.  Rules the query cannot reach are
dropped first, so they never force a fallback; the plan is still evaluated
under the semantics the whole program resolves to, or refused where full
evaluation refuses the program.  Either way the answers
are exactly the full-fixpoint answers filtered by the bindings -- the
fallback is never wrong, and it is tagged in ``EvaluationStats``
(``magic_fallback_predicates`` / ``magic_full_fallback``).

Soundness/completeness relative to the unrewritten program restricted to
the query bindings is the classical theorem, lifted tuple-for-tuple to
generalized relations: the magic guard conjoins the seed's constraint atoms
onto every guarded derivation, so the adorned fixpoint contains a canonical
tuple for every full-fixpoint tuple satisfiable with the bindings, and the
final binding selection (:func:`select_answers`) canonicalizes both sides
onto the same forms.  The differential conformance strategy (``magic``) and
the hypothesis property suite check it by direct comparison against the
plain engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Any, Iterable, Sequence, cast

from repro.analysis.graph import build_dependency_graph
from repro.constraints.base import ConstraintTheory
from repro.core.datalog import DatalogProgram, Rule
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
    GeneralizedTuple,
    positional_variables,
)
from repro.errors import EvaluationError
from repro.logic.syntax import (
    And,
    Atom,
    Exists,
    Formula,
    Not,
    RelationAtom,
)
from repro.runtime.budget import raise_if_incomplete

#: the placeholder variable a :class:`Binding`'s atoms constrain
SLOT = "__q"


def _slot(position: int) -> str:
    """The per-position placeholder variable used by residual constraints."""
    return f"__q{position}"


@dataclass(frozen=True)
class Binding:
    """A per-position constraint binding: atoms over the :data:`SLOT` variable.

    A binding is any satisfiable conjunction of constraint atoms mentioning
    only one variable -- an equality with a constant (the classical magic
    binding), a dense-order interval, a boolean element equation, or raw
    theory atoms supplied through :meth:`of`.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        for atom in self.atoms:
            loose = atom.variables() - {SLOT}
            if loose:
                raise EvaluationError(
                    f"binding atom {atom} mentions variables {sorted(loose)}; "
                    f"bindings constrain the single placeholder {SLOT!r}"
                )

    @classmethod
    def equal(cls, theory: ConstraintTheory, value: object) -> "Binding":
        """Bind the position to one constant (the classical magic binding)."""
        return cls((theory.equality(SLOT, theory.constant(value)),))

    @classmethod
    def interval(
        cls,
        low: object | None = None,
        high: object | None = None,
        *,
        strict_low: bool = False,
        strict_high: bool = False,
    ) -> "Binding":
        """A dense-order interval binding ``low (<|<=) x (<|<=) high``."""
        from repro.constraints.dense_order import le, lt

        atoms: list[Atom] = []
        if low is not None:
            bound = Fraction(cast(Any, low))
            atoms.append(lt(bound, SLOT) if strict_low else le(bound, SLOT))
        if high is not None:
            bound = Fraction(cast(Any, high))
            atoms.append(lt(SLOT, bound) if strict_high else le(SLOT, bound))
        if not atoms:
            raise EvaluationError("an interval binding needs at least one endpoint")
        return cls(tuple(atoms))

    @classmethod
    def of(cls, variable: str, atoms: Iterable[Atom]) -> "Binding":
        """Wrap single-variable atoms over ``variable`` as a binding."""
        mapping = {variable: SLOT}
        return cls(tuple(atom.rename(mapping) for atom in atoms))

    def atoms_for(self, variable: str) -> tuple[Atom, ...]:
        """The binding atoms renamed onto a concrete variable."""
        mapping = {SLOT: variable}
        return tuple(atom.rename(mapping) for atom in self.atoms)

    def canonical_key(self, theory: ConstraintTheory) -> frozenset[Atom] | None:
        """Canonical identity of the binding; ``None`` when unsatisfiable."""
        canonical = theory.canonicalize(self.atoms)
        return None if canonical is None else frozenset(canonical)

    def bounds(self, theory: ConstraintTheory) -> tuple[Any, Any] | None:
        """The ``(low, high)`` interval the binding pins, where decidable.

        Sideways information passing in the reuse cache and the stats
        reports read the projected constraint off the theory's
        ``conjunction_bounds`` -- the same sound probing interface the
        index-backed join uses.
        """
        return theory.conjunction_bounds(self.atoms, SLOT)


def as_binding(theory: ConstraintTheory, value: object) -> Binding:
    """Coerce a raw constant (the seed module's calling convention) or pass
    a :class:`Binding` through unchanged."""
    if isinstance(value, Binding):
        return value
    return Binding.equal(theory, value)


@dataclass(frozen=True)
class MagicQuery:
    """A query ``predicate(args)`` with some positions bound.

    ``bindings`` maps argument positions (0-based) to either a
    :class:`Binding` or a raw domain constant (coerced to an equality
    binding).  ``equalities`` lists position pairs the query forces equal
    (a goal atom with a repeated variable, e.g. ``T(x, x)``); bound
    positions propagate their bindings across these pairs, so repeated
    variables *strengthen* the adornment instead of mis-adorning it.
    ``residual`` holds goal constraints relating several positions (atoms
    over the :func:`_slot` placeholder variables); they do not adorn but
    are applied by the final selection.
    """

    predicate: str
    arity: int
    bindings: dict[int, Any]
    equalities: tuple[tuple[int, int], ...] = ()
    residual: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        for position in self.bindings:
            if not 0 <= position < self.arity:
                raise EvaluationError(
                    f"binding position {position} out of range for "
                    f"{self.predicate}/{self.arity}"
                )
        for left, right in self.equalities:
            if not (0 <= left < self.arity and 0 <= right < self.arity):
                raise EvaluationError(
                    f"equality positions ({left}, {right}) out of range for "
                    f"{self.predicate}/{self.arity}"
                )
        slots = {_slot(i) for i in range(self.arity)}
        for atom in self.residual:
            loose = atom.variables() - slots
            if loose:
                raise EvaluationError(
                    f"residual atom {atom} mentions {sorted(loose)}; residual "
                    "constraints range over the positional slot variables"
                )

    # ------------------------------------------------------------ adornment
    def _position_classes(self) -> list[set[int]]:
        """Union-find closure of the equality pairs over positions."""
        parent = list(range(self.arity))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for left, right in self.equalities:
            parent[find(left)] = find(right)
        classes: dict[int, set[int]] = {}
        for i in range(self.arity):
            classes.setdefault(find(i), set()).add(i)
        return list(classes.values())

    def bound_positions(self) -> tuple[int, ...]:
        """Positions the rewrite adorns bound: explicit bindings plus every
        position forced equal to a bound one."""
        bound = set(self.bindings)
        for cls_ in self._position_classes():
            if cls_ & bound:
                bound |= cls_
        return tuple(sorted(bound))

    @property
    def adornment(self) -> str:
        bound = set(self.bound_positions())
        return "".join("b" if i in bound else "f" for i in range(self.arity))

    # ------------------------------------------------------- normalization
    def normalized_bindings(self, theory: ConstraintTheory) -> dict[int, Binding]:
        """Per-position bindings with equality propagation applied.

        Positions in one equality class share the *conjunction* of every
        binding in the class -- sound (the answers satisfy all of them) and
        strictly more restrictive than adorning only the explicit bindings.
        """
        explicit = {
            position: as_binding(theory, value)
            for position, value in self.bindings.items()
        }
        merged: dict[int, Binding] = dict(explicit)
        for cls_ in self._position_classes():
            atoms: tuple[Atom, ...] = ()
            for position in sorted(cls_):
                if position in explicit:
                    atoms = atoms + explicit[position].atoms
            if atoms:
                for position in cls_:
                    merged[position] = Binding(atoms)
        return merged

    def selection_atoms(self, variables: Sequence[str], theory: ConstraintTheory) -> tuple[Atom, ...]:
        """The selection the query applies to answer tuples over ``variables``:
        every binding's atoms, the equality pairs, and the residual."""
        if len(variables) != self.arity:
            raise EvaluationError(
                f"selection arity mismatch: {self.predicate}/{self.arity} "
                f"vs variables {tuple(variables)}"
            )
        atoms: list[Atom] = []
        for position, binding in sorted(self.normalized_bindings(theory).items()):
            atoms.extend(binding.atoms_for(variables[position]))
        for left, right in self.equalities:
            atoms.append(theory.equality(variables[left], variables[right]))
        slot_map = {_slot(i): variables[i] for i in range(self.arity)}
        for atom in self.residual:
            atoms.append(atom.rename(slot_map))
        return tuple(atoms)


def _magic_name(predicate: str, adornment: str) -> str:
    return f"_magic_{predicate}_{adornment}"


def _adorned_name(predicate: str, adornment: str) -> str:
    return f"{predicate}__{adornment}"


# -------------------------------------------------------------- goal parsing
def _split_goal_conjuncts(text: str) -> str:
    """Rewrite rule-body comma syntax (``T(x, y), x < 5``) into the calculus
    parser's ``and`` syntax, respecting parenthesis depth."""
    out: list[str] = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(" and ")
        else:
            out.append(ch)
    return "".join(out)


def parse_goal(text: str, theory: ConstraintTheory) -> MagicQuery:
    """Parse a textual goal -- ``T(0, y)``, ``T(x, y), 3 < x, x < 5``,
    ``T(x, x)`` -- into a :class:`MagicQuery`.

    The goal is one relation atom plus optional constraint atoms.  Constants
    and repeated variables in the atom become equality constraints (the
    parser's Definition 1.6 convention), which this function folds back into
    per-position bindings and position equalities; single-variable
    constraints become constraint bindings on their position; constraints
    relating several positions go to the residual selection.
    """
    from repro.logic.parser import parse_query

    formula = parse_query(_split_goal_conjuncts(text), theory)
    conjuncts: list[Formula] = []

    def flatten(node: Formula) -> None:
        if isinstance(node, Exists):
            flatten(node.child)
        elif isinstance(node, And):
            for child in node.children:
                flatten(child)
        else:
            conjuncts.append(node)

    flatten(formula)
    relation_atoms = [c for c in conjuncts if isinstance(c, RelationAtom)]
    if len(relation_atoms) != 1:
        raise EvaluationError(
            f"a goal is one relation atom plus constraints; got {text!r}"
        )
    if any(isinstance(c, Not) for c in conjuncts):
        raise EvaluationError("goals cannot be negated")
    goal_atom = relation_atoms[0]
    positions = {var: i for i, var in enumerate(goal_atom.args)}
    bindings: dict[int, list[Atom]] = {}
    equalities: list[tuple[int, int]] = []
    residual: list[Atom] = []
    for conjunct in conjuncts:
        if conjunct is goal_atom:
            continue
        if not isinstance(conjunct, Atom):
            raise EvaluationError(
                f"unsupported goal constraint {conjunct} (no quantifiers or "
                "disjunction in goals)"
            )
        used = conjunct.variables()
        loose = used - set(positions)
        if loose:
            raise EvaluationError(
                f"goal constraint {conjunct} mentions {sorted(loose)}, which "
                f"are not arguments of {goal_atom.name}"
            )
        if len(used) == 1:
            (variable,) = used
            bindings.setdefault(positions[variable], []).append(conjunct)
            continue
        if len(used) == 2:
            left, right = sorted(used)
            if conjunct in (
                theory.equality(left, right),
                theory.equality(right, left),
            ):
                equalities.append((positions[left], positions[right]))
                continue
        slot_map = {var: _slot(positions[var]) for var in used}
        residual.append(conjunct.rename(slot_map))
    return MagicQuery(
        predicate=goal_atom.name,
        arity=len(goal_atom.args),
        bindings={
            position: Binding.of(goal_atom.args[position], atoms)
            for position, atoms in bindings.items()
        },
        equalities=tuple(equalities),
        residual=tuple(residual),
    )


# ------------------------------------------------------------------ planning
@dataclass
class MagicPlan:
    """The rewrite decision for one query against one program.

    ``rules`` is the program to evaluate, ``answer`` the predicate holding
    the (pre-selection) answers.  ``seed_name``/``seed_positions`` describe
    the magic seed relation (``None`` when nothing is seeded -- the all-free
    query or a full fallback), and ``adorned`` pairs each predicate the
    rewrite adorns with its adorned relation, which :func:`seed_world`
    starts from the input's tuples of that predicate.
    ``fallback_predicates`` lists predicates
    evaluated without magic restriction because their derivation cone
    contains negation; ``full_fallback`` marks plans that degrade to plain
    full evaluation.  ``semantics`` is what ``rules`` are evaluated under:
    the one the whole program resolves to, which under ``"auto"`` is
    inflationary when a negative cycle lies anywhere in it, even where the
    query cannot reach (under ``"stratified"`` such a program is refused,
    as :meth:`DatalogProgram.evaluate` refuses it).
    """

    rules: list[Rule]
    answer: str
    adornment: str
    seed_name: str | None = None
    seed_positions: tuple[int, ...] = ()
    adorned: tuple[tuple[str, str], ...] = ()
    magic_rules: int = 0
    fallback_predicates: tuple[str, ...] = ()
    full_fallback: bool = False
    semantics: str = "auto"


def magic_plan(
    rules: Sequence[Rule],
    query: MagicQuery,
    theory: ConstraintTheory,
    semantics: str = "auto",
) -> MagicPlan:
    """Plan the demand-driven evaluation of ``query`` against ``rules``.

    Restricts the magic rewrite to the negation-free part of the program
    (see the module docstring); degrades to a tagged full-evaluation plan
    whenever the rewrite would not be sound.  Reachability, the negation
    cone and stratifiability are read off one dependency graph.  Only the
    predicates the query reaches decide a fallback; the whole program
    decides the semantics the plan runs under, and a program that
    :meth:`DatalogProgram.evaluate` refuses under ``"stratified"`` is
    refused here too.
    """
    graph = build_dependency_graph(rules)
    if query.predicate not in graph.idb:
        raise EvaluationError(f"{query.predicate} is not an IDB predicate")
    # full evaluation judges the whole program: a negative cycle anywhere,
    # even where the query cannot reach, makes it inflationary under
    # "auto" and refused under "stratified", so the plan is evaluated or
    # refused alike (its magic rules are positive and answer alike under
    # either semantics)
    evaluation = semantics
    if not graph.is_stratifiable():
        if semantics == "stratified":
            raise EvaluationError(
                "program is not stratifiable (negation through recursion)"
            )
        evaluation = "inflationary"
    bound = query.bound_positions()
    adornment = query.adornment
    if not bound:
        # an all-free query *is* full evaluation; no renames, no seed --
        # and sharing the original rule list verbatim lets the plan cache
        # share one compiled plan with plain ``evaluate`` calls
        return MagicPlan(
            rules=list(rules),
            answer=query.predicate,
            adornment=adornment,
            semantics=evaluation,
        )
    # only the subprogram reachable from the query matters; negation, or a
    # negative cycle, in an unreachable rule must not force a fallback
    reachable = graph.reachable_from(query.predicate) & graph.idb
    relevant = [rule for rule in rules if rule.head.name in reachable]
    full = MagicPlan(
        rules=relevant,
        answer=query.predicate,
        adornment=adornment,
        full_fallback=True,
        fallback_predicates=tuple(sorted(reachable)),
        semantics=evaluation,
    )
    negated = {head for head, _ in graph.negative_edges if head in reachable}
    if negated and (
        semantics == "inflationary"
        or any(head in reachable for head, _ in graph.recursive_negative_edges())
    ):
        return full
    # the heads of negated-body rules and everything they depend on, through
    # either polarity, are evaluated in full
    cone = graph.reachable_from(*negated) & graph.idb
    if query.predicate in cone:
        return full
    rewritten, magic_count, adorned = _rewrite(relevant, query, reachable - cone)
    for rule in relevant:
        if rule.head.name in cone:
            rewritten.append(rule)
    return MagicPlan(
        rules=rewritten,
        answer=_adorned_name(query.predicate, adornment),
        adornment=adornment,
        seed_name=_magic_name(query.predicate, adornment),
        seed_positions=bound,
        adorned=adorned,
        magic_rules=magic_count,
        fallback_predicates=tuple(sorted(cone)),
        semantics=evaluation,
    )


def magic_rewrite(
    rules: Sequence[Rule], query: MagicQuery, theory: ConstraintTheory
) -> tuple[list[Rule], str]:
    """Rewrite ``rules`` for the given query; returns (rules, answer predicate).

    Negation is not supported here (the classical transformation is defined
    for positive programs) and raises; :func:`magic_plan` is the
    negation-aware front end.  An all-free query returns the original
    program unchanged -- there is nothing to restrict, so renaming every
    predicate would only defeat plan-cache sharing with full evaluation.
    """
    for rule in rules:
        if rule.has_negation():
            raise EvaluationError("magic sets are defined for positive programs")
    idbs = {rule.head.name for rule in rules}
    if query.predicate not in idbs:
        raise EvaluationError(f"{query.predicate} is not an IDB predicate")
    if not query.bound_positions():
        return list(rules), query.predicate
    rewritten, _count, _adorned = _rewrite(rules, query, idbs)
    return rewritten, _adorned_name(query.predicate, query.adornment)


def _rewrite(
    rules: Sequence[Rule], query: MagicQuery, idbs: AbstractSet[str]
) -> tuple[list[Rule], int, tuple[tuple[str, str], ...]]:
    """The adornment-driven rewrite over ``idbs``; returns (rules, magic
    rules, (predicate, adorned relation) pairs)."""
    rules_by_head: dict[str, list[Rule]] = {}
    for rule in rules:
        rules_by_head.setdefault(rule.head.name, []).append(rule)
    rewritten: list[Rule] = []
    magic_count = 0
    processed: set[tuple[str, str]] = set()
    adorned: list[tuple[str, str]] = []
    pending: list[tuple[str, str]] = [(query.predicate, query.adornment)]
    while pending:
        predicate, adornment = pending.pop()
        if (predicate, adornment) in processed:
            continue
        processed.add((predicate, adornment))
        adorned.append((predicate, _adorned_name(predicate, adornment)))
        for rule in rules_by_head.get(predicate, []):
            new_rules, new_magic = _rewrite_rule(rule, adornment, idbs, pending)
            rewritten.extend(new_rules)
            magic_count += new_magic
    return rewritten, magic_count, tuple(adorned)


def _rewrite_rule(
    rule: Rule,
    adornment: str,
    idbs: AbstractSet[str],
    pending: list[tuple[str, str]],
) -> tuple[list[Rule], int]:
    head_vars = rule.head.args
    bound_positions = [i for i, mark in enumerate(adornment) if mark == "b"]
    bound_vars = {head_vars[i] for i in bound_positions}
    guard = RelationAtom(
        _magic_name(rule.head.name, adornment),
        tuple(head_vars[i] for i in bound_positions),
    ) if bound_positions else None

    new_rules: list[Rule] = []
    magic_count = 0
    prefix: list[object] = [guard] if guard else []
    known = set(bound_vars)
    body_out: list[object] = list(prefix)
    for literal in rule.body:
        if isinstance(literal, RelationAtom) and literal.name in idbs:
            # adorn by currently-known variables (left-to-right SIP)
            sub_adornment = "".join(
                "b" if arg in known else "f" for arg in literal.args
            )
            sub_bound = [
                arg for arg, mark in zip(literal.args, sub_adornment) if mark == "b"
            ]
            if sub_bound:
                magic_head = RelationAtom(
                    _magic_name(literal.name, sub_adornment), tuple(sub_bound)
                )
                new_rules.append(
                    Rule(magic_head, tuple(body_out) or _seed_body(magic_head))
                )
                magic_count += 1
            pending.append((literal.name, sub_adornment))
            body_out.append(
                RelationAtom(_adorned_name(literal.name, sub_adornment), literal.args)
            )
            known |= set(literal.args)
        elif isinstance(literal, RelationAtom):
            body_out.append(literal)
            known |= set(literal.args)
        else:
            assert isinstance(literal, Atom)
            body_out.append(literal)
            known |= literal.variables()
    adorned_head = RelationAtom(
        _adorned_name(rule.head.name, adornment), head_vars
    )
    new_rules.append(Rule(adorned_head, tuple(body_out)))
    return new_rules, magic_count


def _seed_body(magic_head: RelationAtom) -> tuple[object, ...]:
    raise EvaluationError(
        f"magic rule for {magic_head.name} has an empty body; "
        "a fully-free sub-adornment should not generate a magic rule"
    )


# ------------------------------------------------------------------- seeding
def seed_world(
    database: GeneralizedDatabase,
    plan: MagicPlan,
    query: MagicQuery,
) -> GeneralizedDatabase:
    """A copy of ``database`` with the plan's magic seed installed.

    The seed is one *generalized tuple* over the bound positions: the
    conjunction of every bound position's binding atoms plus the equality
    atoms linking bound positions forced equal by the query.  The tuple is
    canonicalized on insertion; an unsatisfiable binding leaves the seed
    relation empty, so the guarded cone (and hence the answer) is empty
    without evaluating anything.  Like every relation the engine creates
    for a predicate, the seed is over the positional ``_0, _1, ...``, the
    variables the magic rules derive over, so their admissions rename
    nothing.

    An adorned relation ``P__a`` stands for ``P`` in the rewritten rules,
    which derive only what the rules derive, so it starts with the input's
    own tuples of ``P``, if the input has any: every one of them is a
    tuple of ``P``'s full fixpoint, and the final selection keeps those the
    bindings meet.

    The source relations are *shared*, not copied -- ``evaluate`` never
    writes the relations a program only reads and copies the ones it
    derives, so only the seed and those adorned relations are created
    here, the source database is not mutated, and the join indexes on its
    relations serve every query over it.
    """
    world = GeneralizedDatabase(database.theory)
    for relation in database.relations():
        world.add_relation(relation)
    if plan.seed_name is None:
        return world
    theory = database.theory
    positions = plan.seed_positions
    variables = positional_variables(len(positions))
    by_position = dict(zip(positions, variables))
    seed = world.create_relation(plan.seed_name, variables)
    atoms: list[Atom] = []
    bindings = query.normalized_bindings(theory)
    for position, variable in zip(positions, variables):
        binding = bindings.get(position)
        if binding is not None:
            atoms.extend(binding.atoms_for(variable))
    for left, right in query.equalities:
        if left in by_position and right in by_position:
            atoms.append(theory.equality(by_position[left], by_position[right]))
    seed.add_tuple(tuple(atoms))
    for predicate, adorned in plan.adorned:
        if predicate in database:
            given = database.relation(predicate)
            start = world.create_relation(adorned, positional_variables(given.arity))
            for item in given:
                start.add(item)
    return world


def select_answers(
    answer: GeneralizedRelation,
    query: MagicQuery,
    theory: ConstraintTheory,
    name: str | None = None,
    candidates: Iterable[GeneralizedTuple] | None = None,
) -> GeneralizedRelation:
    """Apply the query's binding selection to an answer relation.

    The magic guard guarantees *relevance*, not selection: every derived
    tuple overlaps the bindings, but its constraint may extend beyond them.
    Conjoining the selection atoms and re-canonicalizing lands the answers
    on exactly the canonical forms of full-fixpoint-then-filter.
    ``candidates`` narrows the tuples of ``answer`` the selection is
    conjoined to (default: all of them); it must hold every tuple whose
    conjunction with the selection is satisfiable.
    """
    selected = GeneralizedRelation(
        name or f"{query.predicate}_answers", answer.variables, theory
    )
    selection = query.selection_atoms(answer.variables, theory)
    for item in answer if candidates is None else candidates:
        selected.add_tuple(tuple(item.atoms) + selection)
    return selected


def answer_magic_query(
    rules: Sequence[Rule],
    query: MagicQuery,
    database: GeneralizedDatabase,
    max_iterations: int = 100_000,
) -> GeneralizedRelation:
    """Evaluate a bound query with the magic-set rewriting.

    Seeds the query's magic predicate with the bindings, runs the rewritten
    (or fallback) program, and returns the answer relation with the binding
    selection applied.  This is the minimal driver; :class:`repro.core.
    query.Engine` adds options, statistics, the plan cache and the
    containment-based result-reuse cache.  With no stats to tag, a budget
    trip raises :class:`~repro.errors.BudgetExceededError` even under a
    ``partial_results="fringe"`` budget.
    """
    theory = database.theory
    plan = magic_plan(rules, query, theory)
    world = seed_world(database, plan, query)
    program = DatalogProgram(plan.rules, theory)
    result_world, stats = program.evaluate(
        world, max_iterations=max_iterations, semantics=plan.semantics
    )
    raise_if_incomplete(stats)
    answer = result_world.relation(plan.answer)
    return select_answers(answer, query, theory)
