"""Equality constraints over an infinite domain (Definition 1.2.3, Section 4).

Atoms are ``x = y``, ``x = c``, ``x != y``, ``x != c`` over a countably
infinite domain *without* order (the paper uses the integers; we allow any
hashable constants).  The crucial property exploited everywhere is the
infiniteness of the domain: a variable constrained only by finitely many
disequalities always has a witness, which is why the relational calculus with
these constraints is closed (Theorem 4.11) while it is not closed over a
finite domain.

Satisfiability is union-find on equalities plus disequality checks;
elimination substitutes forced equalities and otherwise simply drops the
variable; canonical forms are minimal networks as in the dense-order theory
(here trivially exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.constraints.base import Conjunction, ConstraintTheory, TheoryCache
from repro.constraints.terms import (
    Const,
    Term,
    Var,
    eval_term,
    out_of_order,
    pin_conjunction,
    rename_term,
    term_sort_key,
)
from repro.errors import TheoryError
from repro.logic.syntax import Atom, Formula


def _as_eq_term(value: object) -> Term:
    """Terms of the equality theory: strings are variables, anything else a constant."""
    if isinstance(value, (Var, Const)):
        return value
    if isinstance(value, str):
        return Var(value)
    return Const(value)


def const(value: object) -> Const:
    """Explicitly build a constant term (needed for string-valued constants)."""
    return Const(value)


@dataclass(frozen=True, slots=True)
class EqualityAtom(Atom):
    """An atom ``left op right`` with op one of ``=``, ``!=``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in ("=", "!="):
            raise TheoryError(f"bad equality operator {self.op!r}")
        if out_of_order(self.left, self.right):
            left, right = self.right, self.left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)

    def variables(self) -> frozenset[str]:
        names = set()
        for term in (self.left, self.right):
            if isinstance(term, Var):
                names.add(term.name)
        return frozenset(names)

    def rename(self, mapping: Mapping[str, str]) -> "EqualityAtom":
        return EqualityAtom(
            self.op, rename_term(self.left, mapping), rename_term(self.right, mapping)
        )

    def holds(self, assignment: Mapping[str, Any]) -> bool:
        lhs = eval_term(self.left, assignment)
        rhs = eval_term(self.right, assignment)
        return (lhs == rhs) if self.op == "=" else (lhs != rhs)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def eq(left: object, right: object) -> EqualityAtom:
    """``left = right``"""
    return EqualityAtom("=", _as_eq_term(left), _as_eq_term(right))


def _default_fresh(i: int) -> int:
    """The i-th synthetic domain element: integers counted down from -1."""
    return -(i + 1)


def ne(left: object, right: object) -> EqualityAtom:
    """``left != right``"""
    return EqualityAtom("!=", _as_eq_term(left), _as_eq_term(right))


class _UnionFind:
    """Union-find over terms, with constant-aware merge failure detection."""

    def __init__(self, terms: Iterable[Term]) -> None:
        self.parent: dict[Term, Term] = {t: t for t in terms}

    def find(self, term: Term) -> Term:
        root = term
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[term] != root:
            self.parent[term], term = root, self.parent[term]
        return root

    @staticmethod
    def _rep_key(term: Term) -> tuple:
        # constants are preferred as class representatives, then sort order
        return (0 if isinstance(term, Const) else 1, term_sort_key(term))

    def union(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rep_key(rb) < self._rep_key(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra


class EqualityTheory(ConstraintTheory):
    """The theory of equality with constants over an infinite domain."""

    name = "equality"

    eq = staticmethod(eq)
    ne = staticmethod(ne)
    const = staticmethod(const)

    def __init__(
        self,
        fresh_factory: Callable[[int], object] | None = None,
        cache: TheoryCache | None = None,
    ) -> None:
        """``fresh_factory(i)`` yields the i-th synthetic domain element.

        Sample points for variables constrained only by disequalities need
        arbitrarily many fresh domain elements; by default integers counted
        downward from -1 are used (tests that care can inject a factory).
        """
        super().__init__(cache)
        # module-level default (not a lambda) so the theory stays picklable
        self._fresh_factory = fresh_factory or _default_fresh

    def validate_atom(self, atom: Atom) -> None:
        if not isinstance(atom, EqualityAtom):
            raise TheoryError(f"{atom!r} is not an equality atom")

    def negate_atom(self, atom: Atom) -> Formula:
        self.validate_atom(atom)
        assert isinstance(atom, EqualityAtom)
        flipped = "!=" if atom.op == "=" else "="
        return EqualityAtom(flipped, atom.left, atom.right)

    def equality(self, left: object, right: object) -> EqualityAtom:
        return eq(left, right)

    def constant(self, value: object) -> Const:
        return value if isinstance(value, Const) else Const(value)

    def atom_constants(self, atom: Atom) -> frozenset:
        self.validate_atom(atom)
        assert isinstance(atom, EqualityAtom)
        values = set()
        for term in (atom.left, atom.right):
            if isinstance(term, Const):
                values.add(term.value)
        return frozenset(values)

    # ---------------------------------------------------------------- solver
    def _closure(
        self, atoms: Sequence[EqualityAtom]
    ) -> tuple[_UnionFind, list[tuple[Term, Term]]] | None:
        """Union-find closure; ``None`` if inconsistent."""
        terms: set[Term] = set()
        for atom in atoms:
            terms.add(atom.left)
            terms.add(atom.right)
        uf = _UnionFind(terms)
        for atom in atoms:
            if atom.op == "=":
                uf.union(atom.left, atom.right)
        # distinct constants must stay distinct
        roots_of_constants: dict[Term, Const] = {}
        for term in terms:
            if isinstance(term, Const):
                root = uf.find(term)
                seen = roots_of_constants.get(root)
                if seen is not None and seen != term:
                    return None
                roots_of_constants[root] = term
        disequalities = []
        for atom in atoms:
            if atom.op == "!=":
                if uf.find(atom.left) == uf.find(atom.right):
                    return None
                disequalities.append((atom.left, atom.right))
        return uf, disequalities

    def _is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        return self._closure(self._checked(atoms)) is not None

    def pinned_constants(self, atoms: Sequence[Atom]) -> Mapping[str, Any]:
        """Syntactic var = const pins (exact for canonical point tuples)."""
        pins: dict[str, Any] = {}
        for atom in atoms:
            if isinstance(atom, EqualityAtom) and atom.op == "=":
                if isinstance(atom.left, Var) and isinstance(atom.right, Const):
                    pins[atom.left.name] = atom.right.value
                elif isinstance(atom.left, Const) and isinstance(atom.right, Var):
                    pins[atom.right.name] = atom.left.value
        return pins

    def _point_form(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """Pins on distinct variables, sorted, without the union-find.

        The union-find roots a pinned class at its constant (``_rep_key``)
        and each variable at its own pin's constant, so it emits exactly the
        pins.  A variable pinned by two different atoms, or any other atom,
        is left to it.
        """
        return pin_conjunction(atoms, EqualityAtom)

    def _canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        checked = self._checked(atoms)
        closed = self._closure(checked)
        if closed is None:
            return None
        uf, disequalities = closed
        canonical: set[EqualityAtom] = set()
        # each non-representative term is equated to its class representative
        for term in uf.parent:
            root = uf.find(term)
            if root != term:
                canonical.add(EqualityAtom("=", root, term))
        # disequalities between representatives, skipping constant pairs
        # (distinct constants are unequal by definition)
        for left, right in disequalities:
            rl, rr = uf.find(left), uf.find(right)
            if isinstance(rl, Const) and isinstance(rr, Const):
                continue
            canonical.add(EqualityAtom("!=", rl, rr))
        return tuple(sorted(canonical, key=str))

    # ---------------------------------------------------- quantifier elimination
    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        current = list(self._checked(atoms))
        for name in drop:
            result = self._eliminate_one(current, name)
            if result is None:
                return []
            current = result
        if self._closure(current) is None:
            return []
        return [tuple(current)]

    def _eliminate_one(
        self, atoms: list[EqualityAtom], name: str
    ) -> list[EqualityAtom] | None:
        closed = self._closure(atoms)
        if closed is None:
            return None
        uf, _ = closed
        var = Var(name)
        if var not in uf.parent:
            return list(atoms)
        partner = next(
            (t for t in uf.parent if t != var and uf.find(t) == uf.find(var)), None
        )
        result: list[EqualityAtom] = []
        for atom in atoms:
            if var not in (atom.left, atom.right):
                result.append(atom)
                continue
            if partner is None:
                # x appears only in disequalities (or x = x): the infinite
                # domain always provides a witness, so they vanish
                continue
            left = partner if atom.left == var else atom.left
            right = partner if atom.right == var else atom.right
            if left == right:
                if atom.op == "!=":
                    return None
                continue
            if isinstance(left, Const) and isinstance(right, Const):
                same = left.value == right.value
                if (atom.op == "=" and not same) or (atom.op == "!=" and same):
                    return None
                continue
            result.append(EqualityAtom(atom.op, left, right))
        return result

    # ----------------------------------------------------------- sample points
    def sample_point(
        self, atoms: Sequence[Atom], variables: Sequence[str]
    ) -> dict[str, Any] | None:
        checked = self._checked(atoms)
        closed = self._closure(checked)
        if closed is None:
            return None
        uf, disequalities = closed
        values: dict[Term, Any] = {}
        used: set[Any] = set()
        fresh_index = 0

        def fresh() -> Any:
            nonlocal fresh_index
            while True:
                candidate = self._fresh_factory(fresh_index)
                fresh_index += 1
                if candidate not in used:
                    return candidate

        # constants fix their classes
        for term in uf.parent:
            if isinstance(term, Const):
                values[uf.find(term)] = term.value
                used.add(term.value)
        # remaining classes get fresh pairwise-distinct elements, which
        # satisfies every disequality at once
        for term in uf.parent:
            root = uf.find(term)
            if root not in values:
                values[root] = fresh()
                used.add(values[root])
        assignment: dict[str, Any] = {}
        for name in variables:
            var = Var(name)
            if var in uf.parent:
                assignment[name] = values[uf.find(var)]
            else:
                assignment[name] = fresh()
        return assignment

    # -------------------------------------------------------------- internals
    def _checked(self, atoms: Sequence[Atom]) -> tuple[EqualityAtom, ...]:
        for atom in atoms:
            self.validate_atom(atom)
        return tuple(atoms)  # type: ignore[arg-type]
