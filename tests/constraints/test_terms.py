"""Tests for the shared term layer of the pointwise theories."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.constraints.terms import (
    Const,
    Var,
    as_term,
    eval_term,
    rename_term,
    term_sort_key,
)


class TestCoercion:
    def test_string_is_variable(self):
        assert as_term("x") == Var("x")

    def test_numbers_are_rational_constants(self):
        assert as_term(3) == Const(Fraction(3))
        assert as_term(Fraction(1, 2)) == Const(Fraction(1, 2))

    def test_float_approximated(self):
        term = as_term(0.5)
        assert isinstance(term, Const)
        assert term.value == Fraction(1, 2)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_term(True)

    def test_unknown_rejected(self):
        with pytest.raises(TypeError):
            as_term(object())

    def test_terms_pass_through(self):
        v = Var("a")
        assert as_term(v) is v


class TestOrdering:
    def test_variables_before_constants(self):
        assert term_sort_key(Var("z")) < term_sort_key(Const(Fraction(0)))

    def test_variables_by_name(self):
        assert term_sort_key(Var("a")) < term_sort_key(Var("b"))

    def test_mixed_constant_types_deterministic(self):
        keys = sorted(
            [term_sort_key(Const(1)), term_sort_key(Const("x")), term_sort_key(Const(2))]
        )
        assert len(set(keys)) == 3


class TestEvalRename:
    def test_eval(self):
        assert eval_term(Var("x"), {"x": 7}) == 7
        assert eval_term(Const(9), {}) == 9

    def test_rename(self):
        assert rename_term(Var("x"), {"x": "y"}) == Var("y")
        assert rename_term(Var("z"), {"x": "y"}) == Var("z")
        assert rename_term(Const(5), {"x": "y"}) == Const(5)

    def test_str(self):
        assert str(Var("x")) == "x"
        assert str(Const(Fraction(1, 2))) == "1/2"


_VALUES = st.one_of(st.fractions(), st.integers(), st.text(max_size=8))


class TestConstHash:
    """``Const`` keeps its hash; the value stays the dataclass's."""

    @given(_VALUES)
    def test_hash_equality_repr_and_pickling_unchanged(self, value):
        const = Const(value)
        assert hash(const) == hash((value,))
        assert hash(const) == hash((value,))  # served from the cache
        assert const == Const(value) and hash(const) == hash(Const(value))
        assert repr(const) == f"Const(value={value!r})"
        # the cached hash is not pickled: a string's differs per process
        assert pickle.dumps(const) == pickle.dumps(Const(value))
        restored = pickle.loads(pickle.dumps(const))
        assert restored == const and hash(restored) == hash(const)

    def test_equal_values_of_other_types_stay_equal(self):
        assert Const(Fraction(2)) == Const(2)
        assert hash(Const(Fraction(2))) == hash(Const(2))
        assert Const(1) != Const("1")

    def test_unhashable_value_raises_only_when_hashed(self):
        const = Const([1, 2])
        assert const.value == [1, 2]
        assert str(const) == "[1, 2]"
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(const)
        with pytest.raises(TypeError):
            {const}
