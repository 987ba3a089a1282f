"""The strategy registry: every way the engine can evaluate one case.

Each :class:`Strategy` is an adapter from a :class:`~repro.conformance.spec.
CaseSpec` to a :class:`~repro.core.generalized.GeneralizedRelation` over the
spec's output schema.  Every run calls :func:`~repro.conformance.spec.
build_case` itself, so each strategy gets a *fresh* theory instance and no
solver caches are shared between the strategies under comparison -- cache
correctness is one of the properties being tested.

Registered adapters (per applicable kind/theory):

* ``calculus`` -- the Figure 1 pipeline (:func:`evaluate_calculus`);
* ``algebra`` -- an independent structural evaluator composed from the
  Section 2.1 generalized relational algebra operators (join/union/
  project/complement), *not* sharing the calculus evaluator's NNF pass;
* ``rconfig`` / ``econfig`` -- the paper-verbatim EVAL-phi procedures
  (dense order / equality only);
* ``datalog[reference]`` -- the flag-free reference evaluator
  (:func:`repro.conformance.reference.reference_fixpoint`), which shares no
  join code with the engine: the first Datalog route, so every engine route
  is compared against it;
* ``datalog[...]`` -- the semi-naive engine under ``EngineOptions.all_on``
  and ``all_off``, plus a naive-order run;
* ``boole_lemma`` -- the Section 5.2 boolean Datalog engine (Theorem 5.6),
  for positive boolean programs;
* ``qe:calculus`` / ``qe:fourier_motzkin`` / ``qe:virtual_substitution`` --
  the QE-backend pair on bare existential linear blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.boolean_algebra.datalog_bool import (
    BodyAtom,
    BooleanDatalogProgram,
    BooleanRule,
    canonical_variables,
    table_as_term,
)
from repro.boolean_algebra.terms import BoolTerm, BOr, BVar, BZero
from repro.conformance.spec import (
    BuiltCase,
    CaseSpec,
    SpecError,
    build_case,
    decode_atom,
)
from repro.conformance.oracles import compare_relations
from repro.conformance.reference import reference_fixpoint
from repro.conformance.updates import IncrementalMismatchError, update_sequence
from repro.constraints.boolean import BooleanConstraintAtom, BooleanTheory
from repro.constraints.real_poly import PolyAtom
from repro.core import algebra as ra
from repro.core.calculus import evaluate_calculus
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.econfig import evaluate_query_econfig
from repro.core.generalized import GeneralizedDatabase, GeneralizedRelation
from repro.core.ivm import MaterializedView
from repro.core.magic import Binding, MagicQuery, select_answers
from repro.core.query import Engine
from repro.core.rconfig import evaluate_query_rconfig
from repro.logic.syntax import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
)
from repro.qe.fourier_motzkin import fourier_motzkin_eliminate
from repro.qe.signs import SignCond
from repro.qe.virtual_substitution import vs_eliminate
from repro.runtime.chaos import unwrap_theory


@dataclass(frozen=True)
class Strategy:
    """A named evaluation route for conformance cases."""

    name: str
    run: Callable[[CaseSpec], GeneralizedRelation]
    #: the engine-options config this strategy exercises (datalog routes)
    options: EngineOptions | None = None


#: the EngineOptions ablation grid, one entry per distinct configuration --
#: each one must be exercised by at least one strategy pair.  With one flag,
#: ``optimize_semantic``, everything off is its single-flag-off entry:
#: ``all_off`` is the semantic optimizer's differential oracle, and any
#: fixpoint difference against ``all_on`` means a containment rewrite
#: changed program semantics
ABLATION_GRID: tuple[tuple[str, EngineOptions], ...] = (
    ("all_on", EngineOptions.all_on()),
    ("all_off", EngineOptions.all_off()),
)


def strategies_for(spec: CaseSpec) -> list[Strategy]:
    """All applicable strategies for a spec; the first is the reference."""
    if spec.kind == "calculus":
        routes = [
            Strategy("calculus", _run_calculus),
            Strategy("algebra", _run_algebra),
        ]
        if spec.theory == "dense_order":
            routes.append(Strategy("rconfig", _run_rconfig))
        elif spec.theory == "equality":
            routes.append(Strategy("econfig", _run_econfig))
        return routes
    if spec.kind == "datalog":
        routes = [Strategy("datalog[reference]", _run_reference)]
        routes.extend(
            Strategy(
                f"datalog[{label}]",
                _datalog_runner(options, semi_naive=True),
                options=options,
            )
            for label, options in ABLATION_GRID
        )
        routes.append(
            Strategy(
                "datalog[naive]",
                _datalog_runner(EngineOptions.all_on(), semi_naive=False),
                options=EngineOptions.all_on(),
            )
        )
        if spec.theory == "boolean":
            routes.append(Strategy("boole_lemma", _run_boole_lemma))
        # incremental maintenance: replay the EDB as an update stream,
        # asserting maintained == from-scratch after every step; the chaos
        # variant adds retract/reinsert churn (DRed over-deletion and
        # re-derivation)
        routes.append(Strategy("incremental", _incremental_runner(churn=0)))
        routes.append(
            Strategy("incremental_chaos", _incremental_runner(churn=2))
        )
        # demand-driven magic-set queries: derive bound queries from the
        # target's own fixpoint and demand answers identical to the filtered
        # full fixpoint; the chaos variant keeps the containment-based
        # result-reuse cache warm across the queries
        routes.append(Strategy("magic", _magic_runner(reuse=False)))
        routes.append(Strategy("magic_chaos", _magic_runner(reuse=True)))
        return routes
    if spec.kind == "qe":
        return [
            Strategy("qe:calculus", _run_calculus),
            Strategy("qe:fourier_motzkin", _qe_runner(fourier_motzkin_eliminate)),
            Strategy("qe:virtual_substitution", _qe_runner(vs_eliminate)),
        ]
    raise SpecError(f"unknown case kind {spec.kind!r}")


# ---------------------------------------------------------------- calculus
def _run_calculus(spec: CaseSpec) -> GeneralizedRelation:
    case = build_case(spec)
    return evaluate_calculus(case.query, case.database, output=case.output)


def _run_rconfig(spec: CaseSpec) -> GeneralizedRelation:
    case = build_case(spec)
    return evaluate_query_rconfig(case.query, case.database, output=case.output)


def _run_econfig(spec: CaseSpec) -> GeneralizedRelation:
    case = build_case(spec)
    return evaluate_query_econfig(case.query, case.database, output=case.output)


# ----------------------------------------------------------------- algebra
def _run_algebra(spec: CaseSpec) -> GeneralizedRelation:
    """Structural evaluation by generalized-relational-algebra composition.

    Unlike the calculus evaluator this never normalizes to NNF: negation is
    the algebra's unrestricted ``complement`` operator applied to the
    subformula's relation, disjunction pads both sides onto the union schema
    (joining with the universal relation over the missing attributes), and
    ``forall`` is complement-project-complement.
    """
    case = build_case(spec)
    result = _algebra_eval(case.query, case)
    missing = [v for v in case.output if v not in result.variables]
    if missing:
        raise SpecError(
            f"algebra evaluation lost output variables {missing}"
        )
    return ra.project(result, case.output, name="result")


def _algebra_eval(formula: Formula, case: BuiltCase) -> GeneralizedRelation:
    theory = case.theory
    if isinstance(formula, RelationAtom):
        source = case.database.relation(formula.name)
        if len(set(formula.args)) != len(formula.args):
            raise SpecError(f"repeated arguments in {formula}")
        return ra.rename(
            source, dict(zip(source.variables, formula.args)), name="atom"
        )
    if isinstance(formula, Atom):
        schema = tuple(sorted(formula.variables()))
        relation = GeneralizedRelation("constraint", schema, theory)
        relation.add_tuple((formula,))
        return relation
    if isinstance(formula, Not):
        return ra.complement(_algebra_eval(formula.child, case))
    if isinstance(formula, And):
        parts = [_algebra_eval(child, case) for child in formula.children]
        result = parts[0]
        for part in parts[1:]:
            result = ra.join(result, part)
        return result
    if isinstance(formula, Or):
        parts = [_algebra_eval(child, case) for child in formula.children]
        schema: tuple[str, ...] = ()
        for part in parts:
            schema = schema + tuple(
                v for v in part.variables if v not in schema
            )
        result = _pad(parts[0], schema, theory)
        for part in parts[1:]:
            result = ra.union(
                result, ra.project(_pad(part, schema, theory), result.variables)
            )
        return result
    if isinstance(formula, Exists):
        inner = _algebra_eval(formula.child, case)
        keep = [v for v in inner.variables if v not in formula.variables_bound]
        return ra.project(inner, keep)
    if isinstance(formula, ForAll):
        # forall v. psi == not exists v. not psi, as algebra operators
        inner = _algebra_eval(formula.child, case)
        complemented = ra.complement(inner)
        keep = [
            v for v in complemented.variables if v not in formula.variables_bound
        ]
        return ra.complement(ra.project(complemented, keep))
    raise SpecError(f"algebra evaluator cannot handle {formula!r}")


def _pad(
    relation: GeneralizedRelation, schema: Sequence[str], theory
) -> GeneralizedRelation:
    """Extend onto a superset schema by joining with the universal relation
    over the missing attributes (one tuple with an empty conjunction)."""
    missing = [v for v in schema if v not in relation.variables]
    if not missing:
        return relation
    universal = GeneralizedRelation("_universe", tuple(missing), theory)
    universal.add_tuple(())
    return ra.join(relation, universal, name="pad")


# ----------------------------------------------------------------- datalog
def _target_relation(
    world: GeneralizedDatabase, spec: CaseSpec, case: BuiltCase
) -> GeneralizedRelation:
    result = GeneralizedRelation("result", case.output, case.theory)
    for item in world.relation(spec.target):
        result.add(item)
    return result


def _run_reference(spec: CaseSpec) -> GeneralizedRelation:
    case = build_case(spec)
    world = reference_fixpoint(
        case.rules, case.theory, case.database, semantics=spec.semantics
    )
    return _target_relation(world, spec, case)


def _datalog_runner(
    options: EngineOptions, semi_naive: bool
) -> Callable[[CaseSpec], GeneralizedRelation]:
    def run(spec: CaseSpec) -> GeneralizedRelation:
        case = build_case(spec)
        program = DatalogProgram(case.rules, case.theory, options=options)
        world, _stats = program.evaluate(
            case.database, semi_naive=semi_naive, semantics=spec.semantics
        )
        return _target_relation(world, spec, case)

    return run


def _incremental_runner(churn: int) -> Callable[[CaseSpec], GeneralizedRelation]:
    """Differentially-tested incremental maintenance over an update stream.

    Starts a :class:`MaterializedView` on an *empty* EDB, replays the spec's
    seeded update sequence one step at a time, and after every step compares
    the maintained world against a from-scratch evaluation of the current
    EDB state (canonical key sets, over the same theory instance, so the
    comparison is exact).  The first divergence raises
    :class:`IncrementalMismatchError`, which the runner reports as a
    discrepancy of oracle ``"incremental"``.  The stream's net effect is the
    spec's full EDB, so the returned target relation is comparable against
    every other datalog strategy through the ordinary semantic oracles.
    """

    def run(spec: CaseSpec) -> GeneralizedRelation:
        case = build_case(spec)
        program = DatalogProgram(
            case.rules, case.theory, options=EngineOptions.all_on()
        )
        initial = GeneralizedDatabase(case.theory)
        for name, variables, _tuples in spec.relations:
            initial.create_relation(name, variables)
        tuple_atoms = {
            (name, index): encoded
            for name, _variables, tuples in spec.relations
            for index, encoded in enumerate(tuples)
        }
        view = MaterializedView(program, initial, semantics=spec.semantics)
        try:
            for step, (op, name, index) in enumerate(
                update_sequence(spec, churn=churn)
            ):
                atoms = [
                    decode_atom(a, case.theory)
                    for a in tuple_atoms[(name, index)]
                ]
                if op == "insert":
                    view.insert(name, atoms)
                else:
                    view.retract(name, atoms)
                _check_against_scratch(view, case, spec, step, (op, name, index))
            result = GeneralizedRelation("result", case.output, case.theory)
            for item in view.relation(spec.target):
                result.add(item)
            return result
        finally:
            view.close()

    return run


class MagicMismatchError(Exception):
    """A demand-driven query's answers diverged from the filtered fixpoint."""


def _magic_runner(reuse: bool) -> Callable[[CaseSpec], GeneralizedRelation]:
    """Demand-driven (magic-set) query evaluation, differentially checked.

    Evaluates the full fixpoint once (the oracle), then derives a small
    deterministic family of queries from the target's first sample point --
    the all-free query, a constant binding on the first position, an
    all-positions point query, a repeated-variable query (positions 0 and 1
    forced equal), and for dense order an interval binding -- and demands
    that :meth:`repro.core.query.Engine.query` answers every one of them
    with exactly the oracle's answers filtered by the same bindings
    (:func:`repro.core.magic.select_answers`, compared with the semantic
    oracles -- canonical keys are only unique up to the mentioned-variable
    set, e.g. for boolean tables).  A divergence raises
    :class:`MagicMismatchError`, which the runner reports as a discrepancy
    of oracle ``"magic"``.

    With ``reuse`` the engine's containment-based result cache stays warm
    across the queries -- the all-free query runs first, so every later
    bound query may legally be answered by cache containment, which is
    exactly the path under test; without it the cache is cleared before
    every query so the rewrite-and-evaluate path itself is exercised.  The
    returned relation is the engine's own all-free answer, comparable
    against every other datalog strategy through the standard oracles.
    """

    def normalized(
        relation: GeneralizedRelation, output: Sequence[str], theory
    ) -> GeneralizedRelation:
        over_output = GeneralizedRelation("cmp", output, theory)
        for item in relation:
            over_output.add(item)
        return over_output

    def run(spec: CaseSpec) -> GeneralizedRelation:
        case = build_case(spec)
        theory = case.theory
        oracle = DatalogProgram(
            case.rules, theory, options=EngineOptions.all_on()
        )
        world, _stats = oracle.evaluate(case.database, semantics=spec.semantics)
        full = world.relation(spec.target)
        result = GeneralizedRelation("result", case.output, theory)
        for item in full:
            result.add(item)
        if spec.target not in {rule.head.name for rule in case.rules}:
            return result  # EDB-only target: nothing for a rewrite to do
        arity = len(case.output)
        engine = Engine(
            case.rules,
            theory,
            options=EngineOptions.all_on(),
            database=case.database,
        )
        queries = [MagicQuery(spec.target, arity, {})]
        points = full.sample_points() if arity else []
        if points:
            values = [points[0][v] for v in full.variables]
            queries.append(MagicQuery(spec.target, arity, {0: values[0]}))
            queries.append(
                MagicQuery(spec.target, arity, dict(enumerate(values)))
            )
            if arity >= 2:
                queries.append(
                    MagicQuery(
                        spec.target,
                        arity,
                        {0: values[0]},
                        equalities=((0, 1),),
                    )
                )
            if spec.theory == "dense_order":
                queries.append(
                    MagicQuery(
                        spec.target,
                        arity,
                        {0: Binding.interval(values[0] - 1, values[0] + 1)},
                    )
                )
        answers: GeneralizedRelation | None = None
        for query in queries:
            if not reuse:
                engine.cache.clear()
            answered = engine.query(query, semantics=spec.semantics)
            got = normalized(answered.relation, case.output, theory)
            expected = normalized(
                select_answers(full, query, theory), case.output, theory
            )
            found = compare_relations(
                expected, got, "full-filter", "magic", spec.theory, spec.m
            )
            if found is not None:
                raise MagicMismatchError(
                    f"magic answers diverged from the filtered fixpoint on "
                    f"{spec.target}^{query.adornment}"
                    + (" (via reuse cache)" if answered.reused else "")
                    + f": {found.detail}"
                )
            if not query.bindings:
                answers = answered.relation
        if answers is not None:
            result = GeneralizedRelation("result", case.output, theory)
            for item in answers:
                result.add(item)
        return result

    return run


def _check_against_scratch(
    view: MaterializedView,
    case: BuiltCase,
    spec: CaseSpec,
    step: int,
    op: tuple[str, str, int],
) -> None:
    """Assert the maintained world equals from-scratch over the current EDB."""
    scratch_db = GeneralizedDatabase(case.theory)
    for name, variables, _tuples in spec.relations:
        relation = scratch_db.create_relation(name, variables)
        for _key, item in view.relation(name).entries():
            relation.adopt_canonical(item)
    program = DatalogProgram(
        case.rules, case.theory, options=EngineOptions.all_on()
    )
    world, _stats = program.evaluate(scratch_db, semantics=spec.semantics)
    for name in world.names():
        expected = frozenset(world.relation(name).keys())
        maintained = frozenset(view.relation(name).keys())
        if expected != maintained:
            raise IncrementalMismatchError(step, op, name)


def _run_boole_lemma(spec: CaseSpec) -> GeneralizedRelation:
    """The Section 5.2 engine: facts as canonical tables, Boole's lemma QE."""
    case = build_case(spec)
    theory = unwrap_theory(case.theory)
    assert isinstance(theory, BooleanTheory)
    program = BooleanDatalogProgram(theory.algebra)
    for rule in case.rules:
        if rule.negative_atoms:
            raise SpecError("boolean Datalog is positive only (Section 5)")
        constraint: BoolTerm = BZero()
        for atom in rule.constraint_atoms:
            assert isinstance(atom, BooleanConstraintAtom)
            constraint = BOr(constraint, atom.term)
        program.add_rule(
            BooleanRule(
                rule.head.name,
                tuple(rule.head.args),
                tuple(
                    BodyAtom(a.name, tuple(a.args)) for a in rule.positive_atoms
                ),
                constraint,
            )
        )
    for name, variables, _tuples in spec.relations:
        relation = case.database.relation(name)
        for item in relation:
            term: BoolTerm = BZero()
            for atom in item.atoms:
                assert isinstance(atom, BooleanConstraintAtom)
                term = BOr(term, atom.term)
            program.add_fact(name, item.variables, term)
    facts = program.evaluate()
    result = GeneralizedRelation("result", case.output, theory)
    renaming = {
        canonical: target
        for canonical, target in zip(
            canonical_variables(len(case.output)), case.output
        )
    }
    for fact in facts.get(spec.target, set()):
        term = table_as_term(
            fact.table, fact.variable_names(), theory.algebra
        )
        renamed = term.substitute(
            {old: BVar(new) for old, new in renaming.items()}
        )
        result.add_tuple((BooleanConstraintAtom(renamed, theory.algebra),))
    return result


# ---------------------------------------------------------------------- qe
def _qe_runner(
    eliminate: Callable[[Sequence[SignCond], str], list],
) -> Callable[[CaseSpec], GeneralizedRelation]:
    """Run one QE backend directly on the spec's existential block."""

    def run(spec: CaseSpec) -> GeneralizedRelation:
        case = build_case(spec)
        query = case.query
        if not isinstance(query, Exists) or not isinstance(query.child, And):
            raise SpecError("qe cases must be exists-over-conjunction")
        conds = []
        for atom in query.child.children:
            if not isinstance(atom, PolyAtom):
                raise SpecError("qe cases must contain poly atoms only")
            conds.append(atom.as_cond())
        dnf: list[tuple[SignCond, ...]] = [tuple(conds)]
        for variable in query.variables_bound:
            step: list[tuple[SignCond, ...]] = []
            seen: set[frozenset[SignCond]] = set()
            for conjunction in dnf:
                for reduced in eliminate(conjunction, variable):
                    key = frozenset(reduced)
                    if key not in seen:
                        seen.add(key)
                        step.append(tuple(reduced))
            dnf = step
        result = GeneralizedRelation("result", case.output, case.theory)
        for conjunction in dnf:
            result.add_tuple(tuple(PolyAtom.from_cond(c) for c in conjunction))
        return result

    return run
