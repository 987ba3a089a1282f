"""Real polynomial inequality constraints (Definition 1.2.1, Section 2).

Atoms are ``p(x1, ..., xk) op 0`` with rational-coefficient polynomials and
``op`` among ``=, !=, <, <=`` (``>``/``>=`` are normalized away).  The domain
is the real numbers; by Tarski the theory admits quantifier elimination, so
relational calculus + these constraints is closed (Theorem 2.3).

Elimination ladder (DESIGN.md section 4): per eliminated variable we try

1. Fourier-Motzkin -- atoms linear in the variable with constant coefficient;
2. Loos-Weispfenning virtual substitution -- atoms of degree <= 2 in the
   variable, parametric coefficients allowed;
3. bivariate cylindrical algebraic decomposition -- any degrees, but the
   conjunction may involve at most two variables in total;

and raise :class:`UnsupportedEliminationError` beyond that fragment, which
covers every example in the paper.  Datalog recursion over this theory is
*rejected* by the engine (Example 1.12: not closed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.constraints.base import Conjunction, ConstraintTheory
from repro.errors import BudgetExceededError, TheoryError, UnsupportedEliminationError
from repro.logic.syntax import Atom, Formula
from repro.poly.polynomial import Polynomial
from repro.qe.fourier_motzkin import FMNotApplicableError, fourier_motzkin_eliminate
from repro.qe.signs import Conj, Dnf, SignCond, negate_cond, simplify_conj
from repro.qe.virtual_substitution import vs_eliminate
from repro.runtime.budget import active_meter, metered

_OPS = ("=", "!=", "<", "<=")


def _capped_rung(
    runner: "Callable[[Conj, str], Dnf]", conj: Conj, var: str
) -> Dnf:
    """Run one QE-ladder rung under its per-rung step cap (if configured).

    The child meter forwards every tick to the run's global meter first, so
    deadlines and run-wide budgets still apply inside the rung; only the
    child's own ``qe_steps`` cap trips with ``scope="qe_rung"``.
    """
    meter = active_meter()
    if meter is None or meter.budget.qe_rung_steps is None:
        return runner(conj, var)
    with metered(meter.rung_meter()):
        return runner(conj, var)


def _is_rung_trip(error: BudgetExceededError) -> bool:
    report = error.report
    return report is not None and report.scope == "qe_rung"


@dataclass(frozen=True, slots=True)
class PolyAtom(Atom):
    """The constraint ``poly op 0``."""

    poly: Polynomial
    op: str

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise TheoryError(
                f"bad polynomial operator {self.op!r}; >/>= must be normalized"
            )

    def variables(self) -> frozenset[str]:
        return self.poly.variables()

    def rename(self, mapping: Mapping[str, str]) -> "PolyAtom":
        return PolyAtom(self.poly.rename(mapping), self.op)

    def holds(self, assignment: Mapping[str, Any]) -> bool:
        return self.as_cond().evaluate(assignment)

    def as_cond(self) -> SignCond:
        return SignCond(self.poly, self.op)

    @staticmethod
    def from_cond(cond: SignCond) -> "PolyAtom":
        return PolyAtom(cond.poly, cond.op)

    def __str__(self) -> str:
        return f"{self.poly} {self.op} 0"


def _as_poly(value: object) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, str):
        return Polynomial.variable(value)
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    if isinstance(value, float):
        return Polynomial.constant(Fraction(value).limit_denominator(10**12))
    raise TheoryError(f"cannot interpret {value!r} as a polynomial")


def poly_eq(left: object, right: object = 0) -> PolyAtom:
    """``left = right``"""
    return PolyAtom(_as_poly(left) - _as_poly(right), "=")


def poly_ne(left: object, right: object = 0) -> PolyAtom:
    """``left != right``"""
    return PolyAtom(_as_poly(left) - _as_poly(right), "!=")


def poly_lt(left: object, right: object = 0) -> PolyAtom:
    """``left < right``"""
    return PolyAtom(_as_poly(left) - _as_poly(right), "<")


def poly_le(left: object, right: object = 0) -> PolyAtom:
    """``left <= right``"""
    return PolyAtom(_as_poly(left) - _as_poly(right), "<=")


def poly_gt(left: object, right: object = 0) -> PolyAtom:
    """``left > right``"""
    return PolyAtom(_as_poly(right) - _as_poly(left), "<")


def poly_ge(left: object, right: object = 0) -> PolyAtom:
    """``left >= right``"""
    return PolyAtom(_as_poly(right) - _as_poly(left), "<=")


class RealPolynomialTheory(ConstraintTheory):
    """The theory of real closed fields, restricted to the QE ladder fragment."""

    name = "real_poly"

    # normal forms outside the QE fragment are sound but do not decide
    # satisfiability, so a canonicalize hit must not imply sat (see base)
    canonical_decides_sat = False

    eq = staticmethod(poly_eq)
    ne = staticmethod(poly_ne)
    lt = staticmethod(poly_lt)
    le = staticmethod(poly_le)
    gt = staticmethod(poly_gt)
    ge = staticmethod(poly_ge)
    var = staticmethod(Polynomial.variable)
    const = staticmethod(Polynomial.constant)

    def validate_atom(self, atom: Atom) -> None:
        if not isinstance(atom, PolyAtom):
            raise TheoryError(f"{atom!r} is not a polynomial atom")

    def negate_atom(self, atom: Atom) -> Formula:
        self.validate_atom(atom)
        assert isinstance(atom, PolyAtom)
        return PolyAtom.from_cond(negate_cond(atom.as_cond()))

    def equality(self, left: object, right: object) -> PolyAtom:
        return poly_eq(left, right)

    def constant(self, value: object) -> Polynomial:
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(value)  # type: ignore[arg-type]

    def atom_constants(self, atom: Atom) -> frozenset:
        self.validate_atom(atom)
        assert isinstance(atom, PolyAtom)
        return frozenset(atom.poly.terms.values())

    def pinned_constants(self, atoms: Sequence[Atom]) -> Mapping[str, Any]:
        """``a*x + b = 0`` pins ``x`` to the exact ``-b/a``.

        Only an equation linear in exactly one variable pins it: ``x - y =
        0``, ``x^2 - 4 = 0`` and ``x*y - 1 = 0`` do not, nor does any
        inequality, so a point tuple pins every coordinate and nothing else
        is claimed.  The join's pin filter then rejects two tuples pinning
        one variable to different values without a solver call.
        """
        pins: dict[str, Any] = {}
        for atom in atoms:
            if not isinstance(atom, PolyAtom) or atom.op != "=":
                continue
            linear = atom.poly.as_linear()
            if linear is not None and len(linear[0]) == 1:
                ((name, coefficient),) = linear[0].items()
                pins[name] = -linear[1] / coefficient
        return pins

    # ---------------------------------------------------------------- solver
    def _is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        conds = self._as_conds(atoms)
        simplified = simplify_conj(conds)
        if simplified is None:
            return False
        dnf: Dnf = [simplified]
        variables = sorted({v for c in simplified for v in c.poly.variables()})
        for var in variables:
            dnf = self._eliminate_var_dnf(dnf, var)
            if not dnf:
                return False
        # fully ground now: any surviving branch is satisfiable
        return any(simplify_conj(conj) is not None for conj in dnf)

    def _point_form(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """A conjunction of equations ``a*x + b = 0``, each linear in one
        variable and one per variable, in :meth:`_canonicalize`'s normal
        form: primitive, sorted.

        Such a conjunction is satisfiable by inspection (at ``x = -b/a``
        for each), so the elimination ladder that :meth:`_canonicalize`
        would run on it is skipped.  A variable with two different
        equations, or any other atom, is left to :meth:`_canonicalize`.
        An equation ``x - c = 0`` with an integer ``c`` (every integer
        ``add_point`` pin) is primitive with a positive lead already, so it
        is kept as it is.
        """
        pins: dict[str, tuple[PolyAtom, bool]] = {}
        for atom in atoms:
            if type(atom) is not PolyAtom or atom.op != "=":
                return None
            linear = atom.poly.as_linear()
            if linear is None or len(linear[0]) != 1:
                return None
            ((name, coefficient),) = linear[0].items()
            primitive = coefficient == 1 and linear[1].denominator == 1
            seen = pins.setdefault(name, (atom, primitive))[0]
            if seen is not atom and seen != atom:
                return None
        return tuple(
            sorted(
                (
                    atom if primitive else PolyAtom(atom.poly.primitive(), "=")
                    for atom, primitive in pins.values()
                ),
                key=str,
            )
        )

    def _canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """Normalized form: primitive polynomials, deduplicated, sorted.

        Detects unsatisfiability when the conjunction lies inside the QE
        fragment; outside it the normalized conjunction is returned as-is
        (sound: an unsatisfiable generalized tuple denotes the empty set and
        is harmless in a generalized relation).
        """
        normalized: list[PolyAtom] = []
        for atom in self._checked(atoms):
            poly = atom.poly
            if poly.is_constant():
                cond = SignCond(poly, atom.op)
                if not cond.evaluate({}):
                    return None
                continue
            if atom.op in ("=", "!="):
                normalized.append(PolyAtom(poly.primitive(), atom.op))
            else:
                # preserve the sign for order comparisons: scale by the
                # positive content only.  primitive() forces a positive
                # leading coefficient, so undo its flip if the original
                # leading coefficient was negative.
                primitive = poly.primitive()
                _, lead = poly.leading_term()
                normalized.append(
                    PolyAtom(-primitive if lead < 0 else primitive, atom.op)
                )
        unique = sorted(set(normalized), key=str)
        try:
            if not self.is_satisfiable(tuple(unique)):
                return None
        except UnsupportedEliminationError:
            pass
        return tuple(unique)

    # ---------------------------------------------------- quantifier elimination
    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        conds = self._as_conds(atoms)
        simplified = simplify_conj(conds)
        if simplified is None:
            return []
        dnf: Dnf = [simplified]
        for var in drop:
            dnf = self._eliminate_var_dnf(dnf, var)
            if not dnf:
                return []
        return [
            tuple(PolyAtom.from_cond(c) for c in conj)
            for conj in dnf
            if simplify_conj(conj) is not None
        ]

    def _eliminate_var_dnf(self, dnf: Dnf, var: str) -> Dnf:
        result: Dnf = []
        for conj in dnf:
            result.extend(self._eliminate_var_conj(conj, var))
        # dedup
        seen: set[frozenset[SignCond]] = set()
        unique: Dnf = []
        for conj in result:
            key = frozenset(conj)
            if key not in seen:
                seen.add(key)
                unique.append(conj)
        return unique

    def _eliminate_var_conj(self, conj: Conj, var: str) -> Dnf:
        """The QE degradation ladder: FM -> VS -> bivariate CAD.

        Each rung is tried cheapest-first and falls through to the next both
        on *inapplicability* (the input is outside the rung's fragment) and
        -- when the active budget sets ``qe_rung_steps`` -- on *rung budget
        exhaustion*: the rung runs under a child meter capped at that many
        ``qe_step`` ticks, so a combinatorial blow-up in one backend degrades
        to the next instead of consuming the whole run's budget.  The final
        CAD rung runs uncapped (only the run-global budgets apply): it is the
        last resort, so giving up there means giving up entirely.
        """
        if all(var not in c.poly.variables() for c in conj):
            return [conj]
        try:
            return _capped_rung(fourier_motzkin_eliminate, conj, var)
        except FMNotApplicableError:
            pass
        except BudgetExceededError as error:
            if not _is_rung_trip(error):
                raise
        try:
            return _capped_rung(vs_eliminate, conj, var)
        except UnsupportedEliminationError:
            pass
        except BudgetExceededError as error:
            if not _is_rung_trip(error):
                raise
        all_vars = {v for c in conj for v in c.poly.variables()}
        if len(all_vars) <= 2:
            from repro.qe.cad import cad_eliminate

            return cad_eliminate(conj, var)
        raise UnsupportedEliminationError(
            f"cannot eliminate {var}: degree > 2 and more than two variables "
            f"({sorted(all_vars)}); see DESIGN.md section 4"
        )

    # ----------------------------------------------------------- sample points
    def sample_point(
        self, atoms: Sequence[Atom], variables: Sequence[str]
    ) -> dict[str, Any] | None:
        """A *rational* satisfying point, or None.

        Found by successive elimination and back-substitution through
        rational candidates; conjunctions whose solutions are exclusively
        irrational (e.g. ``x^2 = 2``) yield None even though they are
        satisfiable -- callers needing exact algebraic witnesses should use
        :mod:`repro.qe.cad` directly.
        """
        conds = self._as_conds(atoms)
        simplified = simplify_conj(conds)
        if simplified is None:
            return None
        mentioned = sorted({v for c in simplified for v in c.poly.variables()})
        order = [v for v in mentioned]
        # projections[i] constrains order[:i+1]
        projections: list[Dnf] = [None] * len(order)  # type: ignore[list-item]
        dnf: Dnf = [simplified]
        for i in range(len(order) - 1, -1, -1):
            projections[i] = dnf
            dnf = self._eliminate_var_dnf(dnf, order[i])
            if not dnf:
                return None
        assignment: dict[str, Any] = {}
        for i, var in enumerate(order):
            substituted = _substitute_dnf(projections[i], assignment)
            value = _rational_witness_univariate(substituted, var)
            if value is None:
                return None
            assignment[var] = value
        for name in variables:
            assignment.setdefault(name, Fraction(0))
        return {name: assignment[name] for name in set(variables) | set(order)}

    # -------------------------------------------------------------- internals
    def _checked(self, atoms: Sequence[Atom]) -> tuple[PolyAtom, ...]:
        for atom in atoms:
            self.validate_atom(atom)
        return tuple(atoms)  # type: ignore[arg-type]

    def _as_conds(self, atoms: Sequence[Atom]) -> tuple[SignCond, ...]:
        return tuple(atom.as_cond() for atom in self._checked(atoms))


def _substitute_dnf(dnf: Dnf, assignment: Mapping[str, Fraction]) -> Dnf:
    """Substitute rational values into a DNF, simplifying ground conditions."""
    substitution = {
        name: Polynomial.constant(value) for name, value in assignment.items()
    }
    result: Dnf = []
    for conj in dnf:
        new_conds = [
            SignCond(c.poly.substitute(substitution), c.op) for c in conj
        ]
        simplified = simplify_conj(new_conds)
        if simplified is not None:
            result.append(simplified)
    return result


def _rational_witness_univariate(dnf: Dnf, var: str) -> Fraction | None:
    """A rational value of ``var`` satisfying some branch of a univariate DNF."""
    from repro.poly.univariate import SturmContext, UPoly, rational_roots

    for conj in dnf:
        if not conj:
            return Fraction(0)
        candidates: list[Fraction] = [Fraction(0)]
        bound = Fraction(1)
        separators: list[Fraction] = []
        for cond in conj:
            coeffs = cond.poly.coefficients_in(var)
            rational_coeffs = []
            ok = True
            for c in coeffs:
                if not c.is_constant():
                    ok = False
                    break
                rational_coeffs.append(c.constant_value())
            if not ok:
                continue
            upoly = UPoly.from_fractions(rational_coeffs)
            if upoly.degree() < 1:
                continue
            candidates.extend(rational_roots(upoly))
            context = SturmContext(upoly)
            roots = context.isolate_roots()
            for root in roots:
                if root.is_exact:
                    candidates.append(root.low)
                separators.extend([root.low, root.high])
            poly_bound = upoly.cauchy_root_bound()
            if poly_bound > bound:
                bound = poly_bound
        separators.sort()
        candidates.extend([-bound - 1, bound + 1])
        for left, right in zip(separators, separators[1:]):
            if left < right:
                candidates.append((left + right) / 2)
        candidates.extend(separators)
        for value in candidates:
            if all(cond.evaluate({var: value}) for cond in conj):
                return value
    return None
