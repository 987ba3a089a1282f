"""The point lane: a conjunction of ``var = const`` pins canonicalized by
inspection must equal what each theory's solver derives for it.

``ConstraintTheory._point_form`` answers ``canonicalize`` and
``is_satisfiable`` for point tuples (Example 1.5) before the memo; every
form it returns is checked here against the solver's ``_canonicalize``,
both as atoms and as printed text, and the conjunctions it must leave to
the solver are listed explicitly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.constraints import dense_order, equality
from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.constraints.real_poly import PolyAtom, RealPolynomialTheory, poly_lt
from repro.errors import TheoryError
from repro.poly.polynomial import Polynomial

# names that are prefixes of one another, so a sort by name and a sort by
# the printed atom could disagree if the lane sorted by the wrong key
NAMES = st.sampled_from(["x", "x1", "x_", "x10", "y", "y1"])
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
NONZERO = RATIONALS.filter(bool)
# ints and strs, plus values equal across types (1, 1.0, True), which the
# union-find stores as one term yet prints per pin
EQ_CONSTANTS = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.text(alphabet="ab1", max_size=2),
    st.sampled_from([1.0, True, Fraction(1)]),
)


def _linear(name: str, a: Fraction, b: Fraction) -> PolyAtom:
    """The equation ``a*name + b = 0``."""
    return PolyAtom(Polynomial.from_linear({name: a}, b), "=")


def _same_as_solver(theory, atoms) -> None:
    form = theory._point_form(atoms)
    if form is None:
        return
    solved = theory._canonicalize(atoms)
    assert form == solved
    assert [str(atom) for atom in form] == [str(atom) for atom in solved]
    # the public entry points answer from the lane, memo untouched
    before = theory.cache.stats.as_dict()
    assert theory.canonicalize(atoms) == solved
    assert theory.is_satisfiable(atoms)
    assert theory.cache.stats.as_dict() == before


def _distinct(pins) -> bool:
    names = [name for name, _ in pins]
    return len(set(names)) == len(names)


class TestAgreesWithTheSolver:
    @given(st.lists(st.tuples(NAMES, RATIONALS), max_size=6))
    def test_dense_order(self, pins):
        theory = DenseOrderTheory()
        atoms = tuple(dense_order.eq(name, value) for name, value in pins)
        _same_as_solver(theory, atoms)
        if _distinct(pins):
            assert theory._point_form(atoms) is not None

    @given(st.lists(st.tuples(NAMES, EQ_CONSTANTS), max_size=6))
    def test_equality(self, pins):
        theory = EqualityTheory()
        atoms = tuple(
            equality.eq(name, equality.const(value)) for name, value in pins
        )
        _same_as_solver(theory, atoms)
        if _distinct(pins):
            assert theory._point_form(atoms) is not None

    @given(st.lists(st.tuples(NAMES, NONZERO, RATIONALS), max_size=5))
    def test_real_poly(self, equations):
        theory = RealPolynomialTheory()
        atoms = tuple(_linear(name, a, b) for name, a, b in equations)
        _same_as_solver(theory, atoms)
        if _distinct([(name, a) for name, a, _ in equations]):
            assert theory._point_form(atoms) is not None


class TestLeftToTheSolver:
    @pytest.mark.parametrize(
        "theory, atoms",
        [
            (DenseOrderTheory(), (dense_order.eq("x", 1), dense_order.eq("x", 2))),
            (
                EqualityTheory(),
                (equality.eq("x", 1), equality.eq("x", equality.const("a"))),
            ),
            (RealPolynomialTheory(), (_linear("x", 1, -1), _linear("x", 2, -4))),
        ],
        ids=["dense_order", "equality", "real_poly"],
    )
    def test_variable_pinned_to_two_constants(self, theory, atoms):
        assert theory._point_form(atoms) is None
        assert theory.canonicalize(atoms) is None

    def test_two_equations_of_one_variable(self):
        # consistent, yet two atoms on one variable: the solver dedups them
        theory = RealPolynomialTheory()
        atoms = (_linear("x", 1, -2), _linear("x", 3, -6))
        assert theory._point_form(atoms) is None
        assert theory.canonicalize(atoms) == (_linear("x", 1, -2),)

    @pytest.mark.parametrize(
        "theory, atoms",
        [
            (DenseOrderTheory(), (dense_order.eq("x", 1), dense_order.eq("x", "y"))),
            (EqualityTheory(), (equality.eq("x", 1), equality.eq("x", "y"))),
            (
                RealPolynomialTheory(),
                (
                    _linear("x", 1, -1),
                    PolyAtom(Polynomial.from_linear({"x": 1, "y": -1}), "="),
                ),
            ),
        ],
        ids=["dense_order", "equality", "real_poly"],
    )
    def test_var_equals_var(self, theory, atoms):
        assert theory._point_form(atoms) is None

    @pytest.mark.parametrize(
        "theory, atoms",
        [
            (DenseOrderTheory(), (dense_order.eq("x", 1), dense_order.lt("y", 2))),
            (DenseOrderTheory(), (dense_order.eq("x", 1), dense_order.ne("y", 2))),
            (EqualityTheory(), (equality.eq("x", 1), equality.ne("y", 2))),
            (RealPolynomialTheory(), (_linear("x", 1, -1), poly_lt("y", 2))),
        ],
        ids=["dense_lt", "dense_ne", "equality_ne", "real_poly_lt"],
    )
    def test_inequality(self, theory, atoms):
        assert theory._point_form(atoms) is None

    def test_nonlinear_equation(self):
        x = Polynomial.variable("x")
        atoms = (PolyAtom(x * x - Polynomial.constant(4), "="),)
        assert RealPolynomialTheory()._point_form(atoms) is None

    @pytest.mark.parametrize(
        "theory, foreign",
        [
            (DenseOrderTheory(), equality.eq("x", 1)),
            (EqualityTheory(), dense_order.eq("x", 1)),
            (RealPolynomialTheory(), dense_order.eq("x", 1)),
        ],
        ids=["dense_order", "equality", "real_poly"],
    )
    def test_atom_of_another_theory(self, theory, foreign):
        assert theory._point_form((foreign,)) is None
        # it falls through to the solver, which rejects it as today
        with pytest.raises(TheoryError):
            theory.canonicalize((foreign,))
