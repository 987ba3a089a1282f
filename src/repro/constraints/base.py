"""The interface every constraint theory implements.

The CQL design principles (Section 1.1) require, for each theory, exactly the
operations below: deciding satisfiability of a generalized tuple, negating an
atom inside the theory, eliminating existential quantifiers in closed form,
and producing canonical representations so that bottom-up fixpoints can detect
convergence.  The generic evaluators in :mod:`repro.core` are written purely
against this interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import TheoryError
from repro.logic.syntax import Atom, Formula

Conjunction = tuple[Atom, ...]

_MISS = object()


def _evict_one(table: dict) -> None:
    """Drop the oldest entry of a FIFO memo table (best effort).

    A cache may be shared across threads; concurrent evictions can race
    between picking a victim and popping it, so the pop tolerates a vanished
    key rather than surfacing a spurious error.
    """
    try:
        table.pop(next(iter(table)), None)
    except (StopIteration, RuntimeError):
        pass


@dataclass
class TheoryCacheStats:
    """Hit/miss counters for one :class:`TheoryCache`."""

    sat_hits: int = 0
    sat_misses: int = 0
    canon_hits: int = 0
    canon_misses: int = 0

    @property
    def hits(self) -> int:
        return self.sat_hits + self.canon_hits

    @property
    def misses(self) -> int:
        return self.sat_misses + self.canon_misses

    def snapshot(self) -> tuple[int, int]:
        return (self.hits, self.misses)

    def as_dict(self) -> dict[str, int]:
        return {
            "sat_hits": self.sat_hits,
            "sat_misses": self.sat_misses,
            "canon_hits": self.canon_hits,
            "canon_misses": self.canon_misses,
        }


class TheoryCache:
    """Memoizes ``is_satisfiable`` and ``canonicalize`` per theory instance.

    Both operations are pure functions of the *set* of atoms (every theory's
    solver is order- and multiplicity-insensitive), so results are keyed on
    ``frozenset(atoms)``.  The Datalog fixpoint loops re-check the same
    conjunctions on every round (dedup re-canonicalizes every derived tuple;
    the join re-tests overlapping partial conjunctions), which is where the
    memoization pays for itself.

    A conjunction of ``var = const`` pins on distinct variables (a classical
    point tuple, Example 1.5) is neither stored nor counted: the theory reads
    its canonical form off the atoms (:meth:`ConstraintTheory._point_form`),
    which costs less than hashing its key.

    Entries are evicted FIFO once ``maxsize`` is exceeded, bounding memory on
    pathological workloads.  Only the flag-free reference evaluator flips
    ``enabled`` (off for its own run); with the memo off every conjunction,
    point tuples included, goes through the theory's solver.
    """

    def __init__(self, maxsize: int = 1 << 16) -> None:
        self.maxsize = maxsize
        self.enabled = True
        self.stats = TheoryCacheStats()
        self._sat: dict[frozenset[Atom], bool] = {}
        self._canon: dict[frozenset[Atom], Conjunction | None] = {}

    def clear(self) -> None:
        self._sat.clear()
        self._canon.clear()

    # The lookup/store pairs are split (rather than a memoize decorator) so
    # the theory wrappers can cross-populate: a canonicalize miss that proves
    # unsatisfiability also answers future is_satisfiable queries.
    def lookup_sat(self, key: frozenset[Atom]) -> Any:
        found = self._sat.get(key, _MISS)
        if found is _MISS:
            self.stats.sat_misses += 1
        else:
            self.stats.sat_hits += 1
        return found

    def store_sat(self, key: frozenset[Atom], value: bool) -> None:
        if len(self._sat) >= self.maxsize:
            _evict_one(self._sat)
        self._sat[key] = value

    def lookup_canon(self, key: frozenset[Atom]) -> Any:
        found = self._canon.get(key, _MISS)
        if found is _MISS:
            self.stats.canon_misses += 1
        else:
            self.stats.canon_hits += 1
        return found

    def store_canon(self, key: frozenset[Atom], value: Conjunction | None) -> None:
        if len(self._canon) >= self.maxsize:
            _evict_one(self._canon)
        self._canon[key] = value


@dataclass
class ConjunctionContext:
    """Opaque state for incrementally-built conjunctions (depth-first joins).

    ``state`` is theory-private (the dense-order theory stores the order-graph
    closure of the partial conjunction so a child candidate extends it instead
    of re-closing from scratch); the generic fallback keeps only the atoms.
    """

    atoms: Conjunction
    satisfiable: bool
    state: object | None = field(default=None, repr=False)


class ConstraintTheory(ABC):
    """Operations on conjunctions of constraint atoms of one theory.

    A *conjunction* is a tuple of atoms, i.e. a generalized tuple's
    constraint part (Definition 1.3.1).  ``None`` is used throughout as the
    canonical unsatisfiable conjunction.

    Subclasses implement the private ``_is_satisfiable``/``_canonicalize``
    solvers; the public entry points add the :class:`TheoryCache` memo layer.
    """

    #: short identifier, e.g. ``"dense_order"``
    name: str = "abstract"

    #: whether a non-``None`` ``canonicalize`` result proves satisfiability
    #: (exact for the pointwise and boolean theories; the polynomial theory
    #: returns sound-but-incomplete normal forms outside the QE fragment)
    canonical_decides_sat: bool = True

    def __init__(self, cache: TheoryCache | None = None) -> None:
        self.cache = cache if cache is not None else TheoryCache()

    # ------------------------------------------------------------------ atoms
    @abstractmethod
    def validate_atom(self, atom: Atom) -> None:
        """Raise :class:`TheoryError` if ``atom`` is not of this theory."""

    @abstractmethod
    def negate_atom(self, atom: Atom) -> Formula:
        """A formula (disjunction of atoms of this theory) equivalent to ``not atom``."""

    @abstractmethod
    def equality(self, left: object, right: object) -> Atom:
        """The atom ``left = right`` (used to compile constants in relation atoms)."""

    def constant(self, value: object) -> object:
        """Wrap a raw Python value as an unambiguous domain constant.

        Used by :meth:`GeneralizedRelation.add_point`, where every value is a
        constant (never a variable name, even if it is a string).
        """
        return value

    @abstractmethod
    def atom_constants(self, atom: Atom) -> frozenset:
        """The domain constants mentioned by ``atom``."""

    # ---------------------------------------------------------- conjunctions
    def is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        """Whether the conjunction has at least one solution in the domain."""
        cache = self.cache
        if cache is None or not cache.enabled:
            return self._is_satisfiable(atoms)
        if self._point_form(atoms) is not None:
            return True
        key = frozenset(atoms)
        found = cache.lookup_sat(key)
        if found is not _MISS:
            return found
        result = self._is_satisfiable(atoms)
        cache.store_sat(key, result)
        return result

    def canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """A canonical equivalent conjunction, or ``None`` if unsatisfiable.

        Canonical forms are deterministic, and equal for equal solution sets
        in the pointwise theories (dense order, equality); for the polynomial
        theory they are a sound normal form used only for duplicate
        elimination.
        """
        cache = self.cache
        if cache is None or not cache.enabled:
            return self._canonicalize(atoms)
        point = self._point_form(atoms)
        if point is not None:
            return point
        key = frozenset(atoms)
        found = cache.lookup_canon(key)
        if found is not _MISS:
            return found
        result = self._canonicalize(atoms)
        cache.store_canon(key, result)
        # cross-populate the satisfiability memo: None always means a proven
        # unsatisfiability; a canonical form proves satisfiability only where
        # the theory's canonicalizer is exact
        if result is None:
            cache.store_sat(key, False)
        elif self.canonical_decides_sat:
            cache.store_sat(key, True)
        return result

    @abstractmethod
    def _is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        """Uncached satisfiability (the actual solver)."""

    @abstractmethod
    def _canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """Uncached canonicalization (the actual normalizer)."""

    def _point_form(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """The canonical form of a point conjunction, read off its atoms.

        A theory whose point tuples (one ``var = const`` pin per variable)
        can be recognized by inspection returns exactly what
        :meth:`_canonicalize` would, and ``None`` for anything else -- which
        then goes through the memo and the solver.  Such a conjunction is
        always satisfiable.  The default recognizes nothing.
        """
        return None

    def pinned_constants(self, atoms: Sequence[Atom]) -> Mapping[str, Any]:
        """Variables the conjunction forces equal to a specific constant.

        Sound pruning interface for the Datalog join: if two conjunctions pin
        the same variable to *different* constants, their conjunction is
        unsatisfiable, so a candidate tuple can be rejected by a dictionary
        comparison without consulting the solver.  The default (no
        information) disables the shortcut.
        """
        return {}

    def conjunction_bounds(
        self, context: "ConjunctionContext | Sequence[Atom]", name: str
    ) -> tuple[Any, Any] | None:
        """Constant bounds ``(low, high)`` the conjunction forces on ``name``.

        Sound probing interface for the index-backed Datalog join: any tuple
        joinable with the conjunction must admit a value of ``name`` inside
        ``[low, high]`` (either end may be ``None`` for unbounded).  Accepts
        the incremental :class:`ConjunctionContext` (so theories can read
        bounds off their solver state) or a bare atom sequence.  The default
        (no information) disables index probing.
        """
        return None

    # ------------------------------------------------- incremental conjunctions
    def begin_conjunction(self, atoms: Sequence[Atom]) -> ConjunctionContext:
        """Start an incrementally extensible conjunction (see the Datalog join).

        The default implementation keeps no solver state and re-decides from
        scratch on every extension (hitting the :class:`TheoryCache`);
        theories with incremental solvers override both hooks.
        """
        conjunction = tuple(atoms)
        return ConjunctionContext(conjunction, self.is_satisfiable(conjunction))

    def extend_conjunction(
        self, context: ConjunctionContext, new_atoms: Sequence[Atom]
    ) -> ConjunctionContext:
        """Conjoin ``new_atoms`` onto an existing context.

        Satisfiability is monotone downward: once a context is unsatisfiable
        every extension stays unsatisfiable without consulting the solver.
        """
        conjunction = context.atoms + tuple(new_atoms)
        if not context.satisfiable:
            return ConjunctionContext(conjunction, False)
        return ConjunctionContext(conjunction, self.is_satisfiable(conjunction))

    @abstractmethod
    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        """Quantifier elimination: ``exists drop . conjunction`` as a DNF.

        Returns a list of conjunctions whose disjunction is equivalent to the
        existential formula; the empty list means *false*.  This is the
        "projection" of the generalized relational algebra (Section 2.1).
        """

    @abstractmethod
    def sample_point(
        self, atoms: Sequence[Atom], variables: Sequence[str]
    ) -> dict[str, Any] | None:
        """A satisfying assignment for ``variables``, or ``None`` if unsat.

        Variables unconstrained by the conjunction receive an arbitrary
        domain element.  Used by tests, by the Herbrand machinery of
        Section 3.2 (which checks ``F(xi) -> C`` by evaluating at one point,
        justified by Lemmas 3.9/3.10), and by example programs.
        """

    # ------------------------------------------------- derived functionality
    def entails(self, atoms: Sequence[Atom], consequence: Atom) -> bool:
        """Exact entailment: ``conjunction |= consequence``.

        Implemented as unsatisfiability of ``conjunction and not consequence``;
        the negation is a disjunction of atoms, each branch checked separately.
        """
        negated = self.negate_atom(consequence)
        for branch in _formula_disjuncts(negated):
            if self.is_satisfiable(tuple(atoms) + branch):
                return False
        return True

    def entails_all(self, atoms: Sequence[Atom], consequences: Sequence[Atom]) -> bool:
        """Whether the conjunction entails every atom in ``consequences``."""
        return all(self.entails(atoms, c) for c in consequences)

    def equivalent(self, left: Sequence[Atom], right: Sequence[Atom]) -> bool:
        """Exact solution-set equality of two conjunctions."""
        left_sat = self.is_satisfiable(left)
        right_sat = self.is_satisfiable(right)
        if not left_sat or not right_sat:
            return left_sat == right_sat
        return self.entails_all(left, right) and self.entails_all(right, left)

    def holds(self, atoms: Sequence[Atom], assignment: Mapping[str, Any]) -> bool:
        """Evaluate the conjunction at a ground point."""
        return all(atom.holds(assignment) for atom in atoms)

    def validate_conjunction(self, atoms: Sequence[Atom]) -> None:
        """Validate every atom of the conjunction."""
        for atom in atoms:
            self.validate_atom(atom)

    def conjunction_constants(self, atoms: Sequence[Atom]) -> frozenset:
        """All constants mentioned by the conjunction."""
        result: frozenset = frozenset()
        for atom in atoms:
            result |= self.atom_constants(atom)
        return result


def _formula_disjuncts(formula: Formula) -> list[Conjunction]:
    """Flatten a formula built of Or/And/atoms into DNF conjunctions."""
    from repro.logic.transform import to_dnf

    dnf = to_dnf(formula)
    result: list[Conjunction] = []
    for conjunct in dnf:
        atoms: list[Atom] = []
        for literal in conjunct:
            if not isinstance(literal, Atom):
                raise TheoryError(
                    f"negation produced a non-atom literal: {literal!r}"
                )
            atoms.append(literal)
        result.append(tuple(atoms))
    return result
