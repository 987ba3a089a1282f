"""Tests for the real polynomial constraint theory (Section 2)."""

from fractions import Fraction

import pytest

from repro.constraints.real_poly import (
    PolyAtom,
    RealPolynomialTheory,
    poly_eq,
    poly_ge,
    poly_gt,
    poly_le,
    poly_lt,
    poly_ne,
)
from repro.core.generalized import GeneralizedDatabase
from repro.errors import TheoryError, UnsupportedEliminationError
from repro.poly.polynomial import poly_var

theory = RealPolynomialTheory()
x = poly_var("x")
y = poly_var("y")
z = poly_var("z")


class TestAtoms:
    def test_constructors_normalize(self):
        assert poly_gt(x, y) == poly_lt(y, x)
        assert poly_ge(x, 0).op == "<="

    def test_bad_op(self):
        with pytest.raises(TheoryError):
            PolyAtom(x, ">")

    def test_holds(self):
        atom = poly_lt(x * x + y * y, 1)
        assert atom.holds({"x": 0, "y": 0})
        assert not atom.holds({"x": 1, "y": 1})

    def test_rename(self):
        atom = poly_eq(x + y, 1)
        renamed = atom.rename({"x": "u"})
        assert renamed.variables() == {"u", "y"}

    def test_paper_example_generalized_tuple(self):
        # Example 1.5: (y = 2x and x != y) -- the line minus the origin
        atoms = (poly_eq(y, 2 * x), poly_ne(x, y))
        assert theory.is_satisfiable(atoms)
        assert theory.holds(atoms, {"x": 1, "y": 2})
        assert not theory.holds(atoms, {"x": 0, "y": 0})


class TestNegation:
    def test_negate_roundtrip(self):
        for atom in [poly_eq(x, 1), poly_ne(x, 1), poly_lt(x, 1), poly_le(x, 1)]:
            double = theory.negate_atom(theory.negate_atom(atom))
            assert theory.equivalent((double,), (atom,))


class TestSatisfiability:
    def test_linear(self):
        assert theory.is_satisfiable((poly_lt(x, 1), poly_lt(0, x)))
        assert not theory.is_satisfiable((poly_lt(x, 0), poly_lt(1, x)))

    def test_quadratic(self):
        assert theory.is_satisfiable((poly_eq(x * x, 2),))
        assert not theory.is_satisfiable((poly_lt(x * x, 0),))
        assert not theory.is_satisfiable((poly_le(x * x + 1, 0),))

    def test_multivariate_linear(self):
        atoms = (poly_lt(x + y + z, 1), poly_lt(0, x), poly_lt(0, y), poly_lt(0, z))
        assert theory.is_satisfiable(atoms)

    def test_circle_and_line(self):
        atoms = (poly_eq(x * x + y * y, 1), poly_eq(y, x))
        assert theory.is_satisfiable(atoms)
        atoms_far = (poly_eq(x * x + y * y, 1), poly_eq(y, x + 5))
        assert not theory.is_satisfiable(atoms_far)

    def test_quartic_bivariate_via_cad(self):
        atoms = (poly_eq(y**4, x), poly_lt(x, 0))
        assert not theory.is_satisfiable(atoms)
        atoms_ok = (poly_eq(y**4, x), poly_lt(0, x))
        assert theory.is_satisfiable(atoms_ok)

    def test_unsupported_raises(self):
        atoms = (poly_eq(x**3 + y**3 + z**3, 1),)
        with pytest.raises(UnsupportedEliminationError):
            theory.is_satisfiable(atoms)


class TestCanonicalize:
    def test_scaling_normalized(self):
        a = theory.canonicalize((poly_lt(2 * x - 4, 0),))
        b = theory.canonicalize((poly_lt(x - 2, 0),))
        assert a == b

    def test_order_sign_preserved(self):
        # -x < 0 is x > 0, not x < 0
        canonical = theory.canonicalize((poly_lt(-x, 0),))
        (atom,) = canonical
        assert atom.holds({"x": 1})
        assert not atom.holds({"x": -1})

    def test_ground_true_dropped(self):
        canonical = theory.canonicalize((poly_lt(-1, 0), poly_lt(x, 1)))
        assert len(canonical) == 1

    def test_ground_false_none(self):
        assert theory.canonicalize((poly_lt(1, 0),)) is None

    def test_unsat_detected(self):
        assert theory.canonicalize((poly_lt(x, 0), poly_lt(0, x))) is None


class TestPointForm:
    def test_integer_pin_is_kept_as_it_is(self):
        # x - 3 = 0 is already primitive with a positive lead
        atom = poly_eq(x, 3)
        (form,) = theory._point_form((atom,))
        assert form is atom
        assert theory._canonicalize((atom,)) == (atom,)

    @pytest.mark.parametrize(
        "atom, expected",
        [
            (poly_eq(x, Fraction(1, 2)), poly_eq(2 * x - 1, 0)),
            (poly_eq(2 * x, 4), poly_eq(x, 2)),
            (poly_eq(-x, 3), poly_eq(x, -3)),
        ],
        ids=["x-1/2", "2x-4", "-x-3"],
    )
    def test_any_other_pin_is_made_primitive(self, atom, expected):
        (form,) = theory._point_form((atom,))
        assert form == expected
        assert str(form) == str(expected)
        assert (form,) == theory._canonicalize((atom,))


class TestPins:
    def test_linear_equation_pins_its_variable_exactly(self):
        pins = theory.pinned_constants((poly_eq(2 * x - 1, 0),))
        assert pins == {"x": Fraction(1, 2)}
        assert isinstance(pins["x"], Fraction)

    def test_point_tuple_pins_every_variable(self):
        db = GeneralizedDatabase(theory)
        relation = db.create_relation("R", ("x", "y", "z"))
        relation.add_point([3, Fraction(-5, 2), 0])
        (item,) = relation
        assert theory.pinned_constants(item.atoms) == {
            "x": Fraction(3),
            "y": Fraction(-5, 2),
            "z": Fraction(0),
        }

    @pytest.mark.parametrize(
        "atom",
        [
            poly_eq(x, y),
            poly_eq(x * x, 4),
            poly_eq(x * y, 1),
            poly_lt(x, 3),
            poly_le(x, 3),
            poly_ne(x, 3),
        ],
        ids=["x-y=0", "x^2-4=0", "xy-1=0", "x-3<0", "x-3<=0", "x-3!=0"],
    )
    def test_other_shapes_pin_nothing(self, atom):
        assert theory.pinned_constants((atom,)) == {}

    def test_pins_never_make_a_point_entry(self):
        # the join's POINT fast path skips elimination at the leaf; the
        # polynomial theory's pins only feed the pin filter
        from repro.core.compile import GENERAL, _classify, _pointwise

        atoms = (poly_eq(x, 1), poly_eq(y, 2))
        pins = dict(theory.pinned_constants(atoms))
        assert _classify(atoms, pins, _pointwise(theory)) == GENERAL


class TestElimination:
    def test_linear_projection(self):
        result = theory.eliminate((poly_lt(x, z), poly_lt(z, y)), ["z"])
        assert result
        assert any(theory.holds(conj, {"x": 0, "y": 1}) for conj in result)
        assert not any(theory.holds(conj, {"x": 1, "y": 0}) for conj in result)

    def test_circle_projection(self):
        result = theory.eliminate((poly_eq(x * x + y * y, 1),), ["y"])
        inside = {"x": Fraction(1, 2)}
        outside = {"x": Fraction(3, 2)}
        assert any(theory.holds(conj, inside) for conj in result)
        assert not any(theory.holds(conj, outside) for conj in result)

    def test_example_19_not_closed_for_equalities_alone(self):
        # Example 1.9: exists x . y = x^2 projects to y >= 0, which needs an
        # inequality -- our theory has inequalities, so the result is exact
        result = theory.eliminate((poly_eq(y, x * x),), ["x"])
        assert any(theory.holds(conj, {"y": 4}) for conj in result)
        assert any(theory.holds(conj, {"y": 0}) for conj in result)
        assert not any(theory.holds(conj, {"y": -1}) for conj in result)


class TestSamplePoint:
    def test_full_dimensional(self):
        point = theory.sample_point((poly_lt(x * x + y * y, 1),), ["x", "y"])
        assert point is not None
        assert point["x"] ** 2 + point["y"] ** 2 < 1

    def test_linear_equality(self):
        point = theory.sample_point((poly_eq(x + y, 3), poly_lt(0, x)), ["x", "y"])
        assert point is not None
        assert point["x"] + point["y"] == 3 and point["x"] > 0

    def test_unsat(self):
        assert theory.sample_point((poly_lt(x * x, 0),), ["x"]) is None

    def test_irrational_only_returns_none(self):
        # solutions exist but are irrational; the documented limitation
        assert theory.sample_point((poly_eq(x * x, 2),), ["x"]) is None

    def test_rational_root_found(self):
        point = theory.sample_point((poly_eq(x * x, 4), poly_lt(0, x)), ["x"])
        assert point is not None and point["x"] == 2
