"""Tableau containment: symbol mappings, homomorphisms, Theorem 2.6/2.8.

``phi1 contained in phi2`` iff for every input generalized database d, all
points of ``phi1[d]`` are points of ``phi2[d]``.  Lemma 2.5 characterizes
this as ``C1 implies h1(C2) or ... or hm(C2)`` over all symbol mappings; for
*linear equation* constraints the affine-union fact ("an affine space
contained in a finite union of affine spaces is contained in one member")
collapses the disjunction to a single homomorphism, giving the NP procedure
of Theorem 2.6: guess a symbol mapping, check affine containment in
polynomial time.

Theorem 2.8's counterexample (the homomorphism property fails for
semiinterval inequality tableaux) is provided as a constructor pair plus the
two witness databases from the proof.

Evaluation (:func:`evaluate_tableau`) runs the tableau as one nonrecursive
rule through the Datalog engine's compiled join, after folding the normal
form's ``x - y = 0`` links into shared variables
(:func:`shared_variable_rule`): the rows then meet on one variable, and the
join's pin filter rejects mismatched values -- Figure 3's users -- without
a solver call.  The answer-only helpers raise
:class:`~repro.errors.BudgetExceededError` on a budget trip rather than
return an untagged fringe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.real_poly import PolyAtom, RealPolynomialTheory
from repro.core.datalog import DatalogProgram, Rule
from repro.core.generalized import GeneralizedDatabase, GeneralizedRelation
from repro.errors import ArityError
from repro.logic.syntax import RelationAtom
from repro.runtime.budget import raise_if_incomplete, tick
from repro.tableaux.affine import Equation, LinearSystem, contains, equation
from repro.tableaux.tableau import TableauQuery, TableauRow

SymbolMapping = dict[str, str]


def symbol_mappings(
    target: TableauQuery, source: TableauQuery
) -> Iterator[SymbolMapping]:
    """All symbol mappings from the symbols of ``target`` into ``source``.

    Per Section 2.2: the summary row of ``target`` maps positionally onto the
    summary row of ``source``, constants map to themselves (constants live in
    the constraints here, so only variables are mapped), and each tagged row
    of ``target`` maps onto a *similarly tagged* row of ``source``.  In
    normal form the cells are distinct variables, so a choice of row images
    determines the mapping with no clashes (Lemma 2.5's proof).

    The enumeration is lazy -- one recursive row choice at a time, one
    ambient budget ``tick("join")`` per candidate row -- so a consumer that
    stops early (``find_homomorphism`` returning its first witness) never
    pays for the full product, and adversarial tableaux with many
    similarly-tagged rows degrade gracefully under a supervisor budget
    instead of materializing an exponential choice list.
    """
    if len(target.summary) != len(source.summary):
        return
    source_rows_by_tag = source.tags()
    choices: list[list[TableauRow]] = []
    for row in target.rows:
        candidates = [
            candidate
            for candidate in source_rows_by_tag.get(row.tag, [])
            if len(candidate.symbols) == len(row.symbols)
        ]
        if not candidates:
            return
        choices.append(candidates)

    base: SymbolMapping = dict(zip(target.summary, source.summary))

    def extend(index: int, mapping: SymbolMapping) -> Iterator[SymbolMapping]:
        if index == len(choices):
            yield dict(mapping)
            return
        row = target.rows[index]
        for image in choices[index]:
            tick("join")
            extended = dict(mapping)
            for symbol, image_symbol in zip(row.symbols, image.symbols):
                extended[symbol] = image_symbol
            yield from extend(index + 1, extended)

    yield from extend(0, base)


def _apply_mapping(
    constraints: Sequence[PolyAtom], mapping: SymbolMapping
) -> list[PolyAtom]:
    return [atom.rename(mapping) for atom in constraints]


def find_homomorphism(
    container: TableauQuery, contained: TableauQuery
) -> SymbolMapping | None:
    """A homomorphism witnessing ``contained subseteq container`` (Thm 2.6).

    A symbol mapping h from ``container`` to ``contained`` is a homomorphism
    when ``C_contained`` implies ``h(C_container)``; for linear equation
    constraints the implication is exact affine containment.
    """
    system = LinearSystem(contained.constraint_equations())
    for mapping in symbol_mappings(container, contained):
        mapped_equations: list[Equation] = []
        ok = True
        for atom in _apply_mapping(container.constraints, mapping):
            if atom.op != "=":
                ok = False
                break
            linear = atom.poly.as_linear()
            if linear is None:
                ok = False
                break
            coeffs, constant = linear
            mapped_equations.append(equation(coeffs, -constant))
        if not ok:
            continue
        if contains(system, mapped_equations):
            return mapping
    return None


def contained_linear(phi1: TableauQuery, phi2: TableauQuery) -> bool:
    """Decide ``phi1 subseteq phi2`` for linear-equation tableaux (Thm 2.6).

    By the homomorphism property, containment holds iff some symbol mapping
    from ``phi2`` to ``phi1`` is a homomorphism.  (If ``C1`` is inconsistent
    ``phi1`` is empty and trivially contained.)
    """
    system = LinearSystem(phi1.constraint_equations())
    if not system.consistent:
        return True
    return find_homomorphism(phi2, phi1) is not None


# ------------------------------------------------------------------ evaluation
def evaluate_tableau(
    query: TableauQuery, database: GeneralizedDatabase
) -> GeneralizedRelation:
    """Evaluate a tableau query over a generalized database.

    The tableau is one nonrecursive Datalog rule (:func:`shared_variable_rule`,
    the normal form with its variable links folded away); evaluation goes
    through the standard engine.  A budget trip raises
    :class:`~repro.errors.BudgetExceededError`, as for :func:`rule_output`.
    """
    return rule_output(shared_variable_rule(query, "_tableau_out"), database)


def shared_variable_rule(query: TableauQuery, head_name: str | None = None) -> Rule:
    """The tableau's rule with the normal form's ``x - y = 0`` links folded.

    The normal form gives each row its own copy of a shared symbol (Figure
    3's rows each link their ``z`` column to the summary's by an equation),
    so every pair of rows is a candidate the solver must refute.  Each
    equation ``x - y = 0`` (unit coefficients, no constant) is folded into
    one shared variable by union-find, a summary variable representing its
    class, so the join meets the rows on it and the pin filter rejects
    mismatched values.  An equation stays an atom when both sides are
    summary variables or when the merge would put one variable twice in
    one row.  The rule is equivalent to :meth:`TableauQuery.as_rule`, the
    literal translation.
    """
    summary = set(query.summary)
    parent: dict[str, str] = {}

    def find(symbol: str) -> str:
        while symbol in parent:
            symbol = parent[symbol]
        return symbol

    kept: list[PolyAtom] = []
    for atom in query.constraints:
        link = _variable_link(atom)
        if link is None:
            kept.append(atom)
            continue
        left, right = find(link[0]), find(link[1])
        if left == right:
            continue
        if left in summary and right in summary or any(
            {left, right} <= {find(symbol) for symbol in row.symbols}
            for row in query.rows
        ):
            kept.append(atom)
            continue
        if right in summary:
            left, right = right, left
        parent[right] = left
    mapping = {symbol: find(symbol) for symbol in parent}
    body: list[object] = [
        RelationAtom(row.tag, tuple(mapping.get(s, s) for s in row.symbols))
        for row in query.rows
    ]
    body.extend(atom.rename(mapping) for atom in kept)
    return Rule(RelationAtom(head_name or query.name, query.summary), tuple(body))


def _variable_link(atom: PolyAtom) -> tuple[str, str] | None:
    """``(x, y)`` for the equation ``x - y = 0``, else None."""
    if atom.op != "=":
        return None
    linear = atom.poly.as_linear()
    if linear is None or linear[1] or len(linear[0]) != 2:
        return None
    (left, a), (right, b) = linear[0].items()
    if {a, b} != {1, -1}:
        return None
    return left, right


# ---------------------------------------------------------------- Theorem 2.8
def semiinterval_counterexample() -> (
    "tuple[Rule, Rule, GeneralizedDatabase, GeneralizedDatabase]"
):
    """The two semiinterval queries of the Theorem 2.8 proof.

    phi1:  R''(u) :- R'(u), R(x, y), R(y, z), x < 4, z > 4
    phi2:  R''(u) :- R'(u), R(v, w), v < 4, w > 4

    ``phi1 subseteq phi2`` holds, yet no single symbol mapping is a
    homomorphism -- the homomorphism property fails for semiinterval
    inequality tableaux.  Returns (phi1, phi2) built over the dense-order
    theory as Datalog rules, plus the two witness databases of the proof.
    """
    from repro.constraints.dense_order import gt, lt

    phi1 = Rule(
        RelationAtom("Rpp", ("u",)),
        (
            RelationAtom("Rp", ("u",)),
            RelationAtom("R", ("x", "y")),
            RelationAtom("R", ("y2", "z")),
            lt("x", 4),
            gt("z", 4),
            DenseOrderTheory().equality("y", "y2"),
        ),
    )
    phi2 = Rule(
        RelationAtom("Rpp", ("u",)),
        (
            RelationAtom("Rp", ("u",)),
            RelationAtom("R", ("v", "w")),
            lt("v", 4),
            gt("w", 4),
        ),
    )
    order = DenseOrderTheory()
    witness1 = GeneralizedDatabase(order)
    r1 = witness1.create_relation("R", ("a", "b"))
    r1.add_point([1, 3])
    r1.add_point([3, 5])
    witness1.create_relation("Rp", ("a",)).add_point([7])
    witness2 = GeneralizedDatabase(order)
    r2 = witness2.create_relation("R", ("a", "b"))
    r2.add_point([1, 5])
    r2.add_point([5, 9])
    witness2.create_relation("Rp", ("a",)).add_point([7])
    return phi1, phi2, witness1, witness2


def rule_output(rule: Rule, database: GeneralizedDatabase) -> GeneralizedRelation:
    """Evaluate a single nonrecursive rule over a database.

    Only the answer is returned, so a budget trip raises
    :class:`~repro.errors.BudgetExceededError` even under a
    ``partial_results="fringe"`` budget: the fringe's ``incomplete`` tag
    would be lost with the stats.
    """
    program = DatalogProgram([rule], database.theory)
    world, stats = program.evaluate(database)
    raise_if_incomplete(stats)
    return world.relation(rule.head.name)


def canonical_database(
    query: TableauQuery, theory: RealPolynomialTheory | None = None
) -> tuple[GeneralizedDatabase, dict[str, Fraction]] | None:
    """The *frozen* canonical database of a tableau (the Lemma 2.5 witness).

    Solve the constraint system C for one satisfying valuation theta, and
    build the database whose relations contain exactly the frozen rows
    theta(row).  The classical fact: phi1 is contained in phi2 iff phi2
    applied to freeze(phi1) yields theta(summary of phi1) -- the tests use
    this to cross-validate the Theorem 2.6 homomorphism decision.

    Returns None when C is inconsistent (the query is empty).
    """
    theory = theory or RealPolynomialTheory()
    system = LinearSystem(query.constraint_equations())
    if not system.consistent:
        return None
    # generic freeze: free variables get distinct, spread-out values so that
    # frozen symbols only coincide when the constraints force them to
    valuation = system.solve_generic(
        query.all_symbols(), lambda index: Fraction(10_007 * (index + 1), 1)
    )
    for symbol in query.all_symbols():
        valuation.setdefault(symbol, Fraction(0))
    db = GeneralizedDatabase(theory)
    arities: dict[str, int] = {}
    for row in query.rows:
        arities.setdefault(row.tag, len(row.symbols))
        if arities[row.tag] != len(row.symbols):
            raise ArityError(f"tag {row.tag} used with two arities")
    for tag, arity in arities.items():
        db.create_relation(tag, tuple(f"_c{i}" for i in range(arity)))
    for row in query.rows:
        db.relation(row.tag).add_point([valuation[s] for s in row.symbols])
    return db, valuation


def contained_by_canonical_database(
    phi1: TableauQuery, phi2: TableauQuery
) -> bool:
    """Decide containment by the freeze technique (cross-validation only).

    ``phi1 subseteq phi2`` iff evaluating phi2 over freeze(phi1) produces
    phi1's frozen summary row.  Exact for equation constraints whose
    canonical valuation is generic; the tests use it against
    :func:`contained_linear` on random instances.
    """
    frozen = canonical_database(phi1)
    if frozen is None:
        return True  # empty query contained everywhere
    db, valuation = frozen
    # phi2 must mention only tags/arities present in the frozen database
    for row in phi2.rows:
        if row.tag not in db:
            return False
        if db.relation(row.tag).arity != len(row.symbols):
            return False
    output = evaluate_tableau(phi2, db)
    summary_values = [valuation[s] for s in phi1.summary]
    if len(phi2.summary) != len(summary_values):
        return False
    return output.contains_values(summary_values)
