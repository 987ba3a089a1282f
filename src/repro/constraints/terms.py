"""Terms shared by the pointwise constraint theories.

Dense-order and equality atoms relate two *terms*, each either a variable or
a constant of the domain D (Definition 1.2).  Terms are immutable and
hashable; a total :func:`term_sort_key` makes canonical forms deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence, Union


@dataclass(frozen=True, slots=True)
class Var:
    """A variable ranging over the constraint domain."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A constant element of the constraint domain.

    Its hash is the dataclass's ``hash((value,))``, computed on first use
    and kept: a ``Fraction`` hashes in Python code, and a closure or a
    canonical key hashes the same constant many times.  The cache takes no
    part in equality, ``repr`` or pickling (a string's hash differs between
    processes), and an unhashable value raises only when hashed.
    """

    value: Any
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.value,))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self) -> tuple[type, tuple[Any]]:
        return (Const, (self.value,))

    def __str__(self) -> str:
        return str(self.value)


Term = Union[Var, Const]


def as_term(value: object) -> Term:
    """Coerce a convenience value into a :class:`Term`.

    Strings become variables; numbers become rational constants; existing
    terms pass through.  This is the coercion used throughout the public
    constructors, so that callers can write ``order.lt("x", 3)``.
    """
    if isinstance(value, (Var, Const)):
        return value
    if isinstance(value, str):
        return Var(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not domain elements of a pointwise theory")
    if type(value) is Fraction:
        return Const(value)
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, float):
        return Const(Fraction(value).limit_denominator(10**12))
    raise TypeError(f"cannot interpret {value!r} as a term")


def term_sort_key(term: Term) -> tuple:
    """A deterministic total order on terms: variables first, then constants."""
    if isinstance(term, Var):
        return (0, term.name)
    return (1, _const_key(term.value))


def out_of_order(left: Term, right: Term) -> bool:
    """Whether a symmetric atom's operands must swap to put the smaller first.

    Answers as comparing their :func:`term_sort_key` would, but a variable
    always sorts before a constant, so a mixed pair is settled by kind and
    only two terms of one kind compute their keys.
    """
    left_var = isinstance(left, Var)
    if left_var != isinstance(right, Var):
        return not left_var
    return term_sort_key(right) < term_sort_key(left)


def _const_key(value: Any) -> tuple:
    """Order constants of mixed types deterministically (type name, then value).

    Hashability is not checked here: an unhashable constant raises
    ``TypeError`` as soon as its atom enters a canonical key.
    """
    return (type(value).__name__, str(value), repr(value))


def pin_conjunction(atoms: Sequence[Any], atom_type: type) -> tuple[Any, ...] | None:
    """The canonical form of a point conjunction of a pointwise theory.

    If every atom is an ``atom_type`` (by exact type) pin ``var = const``
    and no variable has two different pins, the distinct pins sorted by
    their printed form; otherwise ``None``.  Both pointwise theories build a
    pin with its variable on the left (variables sort before constants) and
    name a pinned class by its constant, so their solvers emit exactly this.
    """
    pins: dict[str, Any] = {}
    for atom in atoms:
        if (
            type(atom) is not atom_type
            or atom.op != "="
            or type(atom.left) is not Var
            or type(atom.right) is not Const
        ):
            return None
        seen = pins.setdefault(atom.left.name, atom)
        if seen is not atom and seen != atom:
            return None
    return tuple(sorted(pins.values(), key=str))


def rename_term(term: Term, mapping: Mapping[str, str]) -> Term:
    """Rename a variable term according to ``mapping``; constants unchanged."""
    if isinstance(term, Var):
        return Var(mapping.get(term.name, term.name))
    return term


def eval_term(term: Term, assignment: Mapping[str, Any]) -> Any:
    """Value of a term at a ground point."""
    if isinstance(term, Var):
        return assignment[term.name]
    return term.value


def term_str(term: Term) -> str:
    """Human-readable rendering of a term."""
    return str(term)
