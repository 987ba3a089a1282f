"""Dense linear order inequality constraints (Definition 1.2.2, Section 3).

Atoms have the form ``x theta y`` and ``x theta c`` where ``theta`` is one of
``=, <, <=`` or a negation ``!=, >, >=``; variables range over a countably
infinite dense linear order without endpoints (we use the rationals, as the
paper does -- "r-configuration" stands for rational configuration).

The satisfiability, entailment, canonicalization and quantifier-elimination
procedures implemented here are the engine room of Sections 3.1-3.3:

* satisfiability is decided by the classical order-graph argument: collapse
  strongly connected components of the weak-inequality graph, then reject
  strict edges or disequalities inside a component;
* quantifier elimination uses *density*: ``exists x (l < x and x < u)`` holds
  iff ``l < u``, so eliminating a variable combines each lower bound with
  each upper bound, and disequalities on the eliminated variable vanish
  (an open interval of a dense order is infinite);
* canonical forms are *minimal networks*: for every pair of terms we compute,
  by exact satisfiability probes, which of ``<, =, >`` are realizable, emit
  the strongest implied atom, and prune entailed atoms.  Two satisfiable
  conjunctions with the same solution set and term set canonicalize
  identically, which is what the Datalog fixpoint (Theorem 3.14.2) relies on
  for termination.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.constraints.base import Conjunction, ConjunctionContext, ConstraintTheory
from repro.constraints.terms import (
    Const,
    Term,
    Var,
    as_term,
    eval_term,
    out_of_order,
    pin_conjunction,
    rename_term,
    term_sort_key,
)
from repro.errors import TheoryError
from repro.logic.syntax import Atom, Formula, Or

#: atom comparison operators, already normalized (``>``/``>=`` are stored flipped)
_OPS = ("<", "<=", "=", "!=")

_SYMMETRIC = {"=", "!="}

#: the sort key of a ``(value, index)`` pair in ``_Closure._constants``
_value_of = itemgetter(0)


@dataclass(frozen=True, slots=True)
class OrderAtom(Atom):
    """An atom ``left op right`` of the dense-order theory.

    ``op`` is one of ``<``, ``<=``, ``=``, ``!=``.  Construction normalizes:
    ``>`` and ``>=`` must be expressed by swapping the operands (the
    constructors :func:`lt`, :func:`le`, :func:`gt`, :func:`ge`, :func:`eq`,
    :func:`ne` do this), and the operands of the symmetric operators are
    stored in sorted order so that syntactic equality is insensitive to
    argument order.
    """

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        op, left, right = self.op, self.left, self.right
        if op not in _OPS:
            raise TheoryError(f"bad dense-order operator {op!r}")
        if op in _SYMMETRIC and out_of_order(left, right):
            left, right = right, left
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "right", right)
        for term in (left, right):
            if isinstance(term, Const) and not isinstance(term.value, Fraction):
                raise TheoryError(
                    f"dense-order constants must be Fractions, got {term.value!r}"
                )

    def variables(self) -> frozenset[str]:
        names = set()
        for term in (self.left, self.right):
            if isinstance(term, Var):
                names.add(term.name)
        return frozenset(names)

    def rename(self, mapping: Mapping[str, str]) -> "OrderAtom":
        return OrderAtom(
            self.op, rename_term(self.left, mapping), rename_term(self.right, mapping)
        )

    def holds(self, assignment: Mapping[str, Any]) -> bool:
        lhs = eval_term(self.left, assignment)
        rhs = eval_term(self.right, assignment)
        if self.op == "<":
            return lhs < rhs
        if self.op == "<=":
            return lhs <= rhs
        if self.op == "=":
            return lhs == rhs
        return lhs != rhs

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def lt(left: object, right: object) -> OrderAtom:
    """``left < right``"""
    return OrderAtom("<", as_term(left), as_term(right))


def le(left: object, right: object) -> OrderAtom:
    """``left <= right``"""
    return OrderAtom("<=", as_term(left), as_term(right))


def gt(left: object, right: object) -> OrderAtom:
    """``left > right`` (stored as ``right < left``)"""
    return OrderAtom("<", as_term(right), as_term(left))


def ge(left: object, right: object) -> OrderAtom:
    """``left >= right`` (stored as ``right <= left``)"""
    return OrderAtom("<=", as_term(right), as_term(left))


def eq(left: object, right: object) -> OrderAtom:
    """``left = right``"""
    return OrderAtom("=", as_term(left), as_term(right))


def ne(left: object, right: object) -> OrderAtom:
    """``left != right``"""
    return OrderAtom("!=", as_term(left), as_term(right))


def between(var: object, low: object, high: object, strict: bool = False) -> list[OrderAtom]:
    """Constraints placing ``var`` in the interval [low, high] (or open)."""
    if strict:
        return [lt(low, var), lt(var, high)]
    return [le(low, var), le(var, high)]


class _Closure:
    """Order-graph closure of a conjunction of dense-order atoms.

    Exposes: consistency, the equivalence classes of forced-equal terms, and
    the strongest *path-derived* relation between any two terms.  The
    closure decides satisfiability exactly (the classical order-graph
    argument); rows of the reachability matrices are stored as integer
    bitmasks so the Warshall closure runs on machine words.

    The order among the constants enters as a chain: the constants are kept
    sorted by value as ``(value, index)`` pairs, and only neighbours get a
    strict edge.  The closure derives every other constant pair from the
    chain, so the matrices are those of the all-pairs edges, for the price
    of one sort and a bisection per constant :meth:`extended` adds.
    """

    def __init__(self, atoms: Sequence[OrderAtom]) -> None:
        self.satisfiable = True
        terms: set[Term] = set()
        for atom in atoms:
            terms.add(atom.left)
            terms.add(atom.right)
        self.terms: list[Term] = sorted(terms, key=term_sort_key)
        self._index = {t: i for i, t in enumerate(self.terms)}
        n = len(self.terms)
        # row bitmasks: bit j of weak[i] means i <= j known; same for strict
        self._weak = [0] * n
        self._strict = [0] * n
        self._neq: set[tuple[int, int]] = set()
        #: the constants' ``(value, index)`` pairs, sorted by value
        self._constants = sorted(
            [(t.value, i) for i, t in enumerate(self.terms) if isinstance(t, Const)],
            key=_value_of,
        )
        for (_, i), (_, j) in zip(self._constants, self._constants[1:]):
            self._strict[i] |= 1 << j
            self._weak[i] |= 1 << j
        for atom in atoms:
            i = self._index[atom.left]
            j = self._index[atom.right]
            if atom.op == "<":
                self._strict[i] |= 1 << j
                self._weak[i] |= 1 << j
            elif atom.op == "<=":
                self._weak[i] |= 1 << j
            elif atom.op == "=":
                self._weak[i] |= 1 << j
                self._weak[j] |= 1 << i
            else:
                self._neq.add((min(i, j), max(i, j)))
        self._close()

    def _close(self) -> None:
        n = len(self.terms)
        weak, strict = self._weak, self._strict
        changed = True
        while changed:
            # Warshall closure on bitmask rows, tracking strictness: a path
            # is strict if any edge on it is strict.
            for k in range(n):
                bit = 1 << k
                wk = weak[k]
                sk = strict[k]
                for i in range(n):
                    if weak[i] & bit:
                        weak[i] |= wk
                        strict[i] |= sk
                        if strict[i] & bit:
                            strict[i] |= wk
            changed = False
            # Disequality strengthening: i <= j and i != j imply i < j.
            for (i, j) in self._neq:
                if weak[i] & (1 << j) and not strict[i] & (1 << j):
                    strict[i] |= 1 << j
                    changed = True
                if weak[j] & (1 << i) and not strict[j] & (1 << i):
                    strict[j] |= 1 << i
                    changed = True
        for i in range(n):
            if strict[i] & (1 << i):
                self.satisfiable = False
                return
        for (i, j) in self._neq:
            if weak[i] & (1 << j) and weak[j] & (1 << i):
                self.satisfiable = False
                return

    def equal(self, a: Term, b: Term) -> bool:
        """Whether the conjunction forces ``a = b``."""
        i, j = self._index[a], self._index[b]
        return bool(self._weak[i] & (1 << j)) and bool(self._weak[j] & (1 << i))

    def strictly_less(self, a: Term, b: Term) -> bool:
        i, j = self._index[a], self._index[b]
        return bool(self._strict[i] & (1 << j))

    def weakly_less(self, a: Term, b: Term) -> bool:
        i, j = self._index[a], self._index[b]
        return bool(self._weak[i] & (1 << j))

    def not_equal(self, a: Term, b: Term) -> bool:
        i, j = self._index[a], self._index[b]
        if self._strict[i] & (1 << j) or self._strict[j] & (1 << i):
            return True
        return (min(i, j), max(i, j)) in self._neq

    # ------------------------------------------------- incremental extension
    def extended(self, atoms: Sequence[OrderAtom]) -> "_Closure":
        """A new closure for this conjunction extended by ``atoms``.

        Copies the parent's reachability rows and propagates only the new
        edges (Italiano-style incremental transitive closure), instead of
        re-running the full Warshall loop over the whole conjunction.  The
        depth-first Datalog join extends one tuple at a time, so each level
        pays for its own atoms only.
        """
        clone = _Closure.__new__(_Closure)
        clone.satisfiable = self.satisfiable
        clone.terms = list(self.terms)
        clone._index = dict(self._index)
        clone._weak = list(self._weak)
        clone._strict = list(self._strict)
        clone._neq = set(self._neq)
        clone._constants = list(self._constants)
        if not clone.satisfiable:
            # monotone: extending an inconsistent conjunction stays
            # inconsistent, no propagation needed
            return clone
        edges: list[tuple[int, int, bool]] = []
        for atom in atoms:
            for term in (atom.left, atom.right):
                if term in clone._index:
                    continue
                i = clone._index[term] = len(clone.terms)
                clone.terms.append(term)
                clone._weak.append(0)
                clone._strict.append(0)
                if isinstance(term, Const):
                    # link the new constant to its neighbours in value
                    # order; the chain implies every other constant pair
                    constants = clone._constants
                    at = bisect_left(constants, term.value, key=_value_of)
                    if at:
                        edges.append((constants[at - 1][1], i, True))
                    if at < len(constants):
                        edges.append((i, constants[at][1], True))
                    constants.insert(at, (term.value, i))
        for atom in atoms:
            i = clone._index[atom.left]
            j = clone._index[atom.right]
            if atom.op == "<":
                edges.append((i, j, True))
            elif atom.op == "<=":
                edges.append((i, j, False))
            elif atom.op == "=":
                edges.append((i, j, False))
                edges.append((j, i, False))
            else:
                clone._neq.add((min(i, j), max(i, j)))
        clone._insert_edges(edges)
        return clone

    def _insert_edges(self, edges: list[tuple[int, int, bool]]) -> None:
        """Insert edges one at a time, keeping the closure invariant, then
        re-run disequality strengthening and the consistency checks."""
        n = len(self.terms)
        weak, strict = self._weak, self._strict
        pending = list(edges)
        while True:
            while pending:
                i, j, is_strict = pending.pop()
                bit_i = 1 << i
                already = strict[i] if is_strict else weak[i]
                if already & (1 << j):
                    continue
                succ_weak = weak[j] | (1 << j)
                succ_strict = strict[j]
                for p in range(n):
                    if p != i and not (weak[p] & bit_i):
                        continue
                    weak[p] |= succ_weak
                    if is_strict or (strict[p] & bit_i):
                        # the p ->* i -> j prefix is strict, so everything j
                        # weakly reaches is strictly below p
                        strict[p] |= succ_weak
                    else:
                        strict[p] |= succ_strict
            # disequality strengthening (i <= j and i != j imply i < j) may
            # enable further strict propagation; loop to a fixpoint
            for (a, b) in self._neq:
                if weak[a] & (1 << b) and not strict[a] & (1 << b):
                    pending.append((a, b, True))
                if weak[b] & (1 << a) and not strict[b] & (1 << a):
                    pending.append((b, a, True))
            if not pending:
                break
        for i in range(n):
            if strict[i] & (1 << i):
                self.satisfiable = False
                return
        for (i, j) in self._neq:
            if weak[i] & (1 << j) and weak[j] & (1 << i):
                self.satisfiable = False
                return

    def constant_bounds(
        self, term: Term
    ) -> tuple[Fraction | None, Fraction | None]:
        """The tightest constant interval the closure forces around ``term``.

        Weak reachability suffices for a *sound* bound (strictness only
        sharpens it, and index keys over-cover anyway), so both directions
        use the weak matrix.
        """
        if term not in self._index:
            return (None, None)
        low: Fraction | None = None
        high: Fraction | None = None
        for other in self.terms:
            if not isinstance(other, Const):
                continue
            if self.weakly_less(other, term) and (low is None or other.value > low):
                low = other.value
            if self.weakly_less(term, other) and (high is None or other.value < high):
                high = other.value
        return (low, high)

    def representative(self, term: Term) -> Term:
        """The canonical representative of ``term``'s equality class.

        Constants are preferred (a class pinned to a constant is *named* by
        it, which lets canonical forms drop every order atom the pin makes
        redundant); ties break by term sort order.
        """
        i = self._index[term]
        best = term
        best_key = (0 if isinstance(term, Const) else 1, term_sort_key(term))
        for j in range(len(self.terms)):
            if self._weak[i] & (1 << j) and self._weak[j] & (1 << i):
                candidate = self.terms[j]
                key = (
                    0 if isinstance(candidate, Const) else 1,
                    term_sort_key(candidate),
                )
                if key < best_key:
                    best, best_key = candidate, key
        return best


class DenseOrderTheory(ConstraintTheory):
    """The theory of dense linear order with constants over the rationals."""

    name = "dense_order"

    # convenience constructors re-exported on the theory object
    lt = staticmethod(lt)
    le = staticmethod(le)
    gt = staticmethod(gt)
    ge = staticmethod(ge)
    eq = staticmethod(eq)
    ne = staticmethod(ne)
    between = staticmethod(between)

    def validate_atom(self, atom: Atom) -> None:
        if not isinstance(atom, OrderAtom):
            raise TheoryError(f"{atom!r} is not a dense-order atom")

    def negate_atom(self, atom: Atom) -> Formula:
        self.validate_atom(atom)
        assert isinstance(atom, OrderAtom)
        a, b = atom.left, atom.right
        if atom.op == "<":
            return Or((OrderAtom("<", b, a), OrderAtom("=", a, b)))
        if atom.op == "<=":
            return OrderAtom("<", b, a)
        if atom.op == "=":
            return OrderAtom("!=", a, b)
        return OrderAtom("=", a, b)

    def equality(self, left: object, right: object) -> OrderAtom:
        return eq(left, right)

    def constant(self, value: object) -> Const:
        if isinstance(value, Const):
            return value
        if type(value) is Fraction:
            return Const(value)
        return Const(Fraction(value))

    def atom_constants(self, atom: Atom) -> frozenset:
        self.validate_atom(atom)
        assert isinstance(atom, OrderAtom)
        values = set()
        for term in (atom.left, atom.right):
            if isinstance(term, Const):
                values.add(term.value)
        return frozenset(values)

    # ---------------------------------------------------------------- solver
    def _is_satisfiable(self, atoms: Sequence[Atom]) -> bool:
        checked = self._checked(atoms)
        return _Closure(checked).satisfiable

    def pinned_constants(self, atoms: Sequence[Atom]) -> Mapping[str, Any]:
        """Syntactic var = const pins (canonical forms name pinned classes
        by their constant, so point tuples expose every coordinate here)."""
        pins: dict[str, Any] = {}
        for atom in atoms:
            if isinstance(atom, OrderAtom) and atom.op == "=":
                if isinstance(atom.left, Var) and isinstance(atom.right, Const):
                    pins[atom.left.name] = atom.right.value
                elif isinstance(atom.left, Const) and isinstance(atom.right, Var):
                    pins[atom.right.name] = atom.left.value
        return pins

    def conjunction_bounds(
        self, context: ConjunctionContext | Sequence[Atom], name: str
    ) -> tuple[Fraction | None, Fraction | None] | None:
        """Constant bounds on ``name`` for the index-backed join probe.

        Reads the bounds straight off the incremental join's order-graph
        closure when available (no extra solving); falls back to building a
        closure for a bare atom sequence.
        """
        if isinstance(context, ConjunctionContext):
            closure = context.state
            if not isinstance(closure, _Closure):
                closure = _Closure(self._checked(context.atoms))
        else:
            closure = _Closure(self._checked(context))
        low, high = closure.constant_bounds(Var(name))
        if low is None and high is None:
            return None
        return (low, high)

    # ------------------------------------------------- incremental conjunctions
    def begin_conjunction(self, atoms: Sequence[Atom]) -> ConjunctionContext:
        """Context carrying the order-graph closure for incremental joins."""
        checked = self._checked(atoms)
        closure = _Closure(checked)
        return ConjunctionContext(checked, closure.satisfiable, closure)

    def extend_conjunction(
        self, context: ConjunctionContext, new_atoms: Sequence[Atom]
    ) -> ConjunctionContext:
        checked = self._checked(new_atoms)
        conjunction = context.atoms + checked
        if not context.satisfiable:
            return ConjunctionContext(conjunction, False, context.state)
        closure = context.state
        assert isinstance(closure, _Closure)
        child = closure.extended(checked)
        return ConjunctionContext(conjunction, child.satisfiable, child)

    def _point_form(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """Pins on distinct variables, sorted, without the closure.

        The closure names each pinned class by its constant, skips the
        constant-constant edges and finds no disequality, so it emits
        exactly the pins.  A variable pinned by two different atoms, or any
        other atom, is left to it (an atom of another theory then raises
        in :meth:`_checked`).
        """
        return pin_conjunction(atoms, OrderAtom)

    def _canonicalize(self, atoms: Sequence[Atom]) -> Conjunction | None:
        """Closure-derived normal form: equality classes, the transitive
        reduction of the order relation among class representatives, and
        non-implied disequalities.

        Deterministic, equivalence-preserving, and equal for equivalent
        conjunctions whenever the path-consistent closure derives all
        implied relations (always, except for exotic disequality patterns in
        the point algebra, where dedup merely becomes slightly less sharp --
        never incorrect).
        """
        checked = self._checked(atoms)
        closure = _Closure(checked)
        if not closure.satisfiable:
            return None
        terms = closure.terms
        result: list[OrderAtom] = []
        # equality classes: each term equated to its sort-least representative
        representatives: list[Term] = []
        for term in terms:
            rep = closure.representative(term)
            if rep == term:
                representatives.append(term)
            else:
                result.append(OrderAtom("=", rep, term))
        # order edges between representatives (skip constant-constant pairs)
        def interesting(a: Term, b: Term) -> bool:
            return not (isinstance(a, Const) and isinstance(b, Const))

        def relation(a: Term, b: Term) -> str | None:
            if closure.strictly_less(a, b):
                return "<"
            if closure.weakly_less(a, b):
                return "<="
            return None

        for a in representatives:
            for b in representatives:
                if a == b:
                    continue
                rel = relation(a, b)
                if rel is None or not interesting(a, b):
                    continue
                # transitive reduction: drop the edge if some intermediate
                # representative c reproduces it at full strength
                implied = False
                for c in representatives:
                    if c == a or c == b:
                        continue
                    first = relation(a, c)
                    second = relation(c, b)
                    if first is None or second is None:
                        continue
                    strength = "<" if "<" in (first, second) and (
                        first == "<" or second == "<"
                    ) else "<="
                    if rel == "<=" or strength == "<":
                        implied = True
                        break
                if not implied:
                    result.append(OrderAtom(rel, a, b))
        # disequalities not already implied by a strict relation
        for (i, j) in closure._neq:
            a, b = terms[i], terms[j]
            rep_a, rep_b = closure.representative(a), closure.representative(b)
            if closure.strictly_less(rep_a, rep_b) or closure.strictly_less(
                rep_b, rep_a
            ):
                continue
            if isinstance(rep_a, Const) and isinstance(rep_b, Const):
                continue
            result.append(OrderAtom("!=", rep_a, rep_b))
        return tuple(sorted(set(result), key=str))

    # ---------------------------------------------------- quantifier elimination
    def eliminate(
        self, atoms: Sequence[Atom], drop: Iterable[str]
    ) -> list[Conjunction]:
        worklist: list[list[OrderAtom]] = [list(self._checked(atoms))]
        for name in drop:
            next_worklist: list[list[OrderAtom]] = []
            for conjunction in worklist:
                # disequalities on the eliminated variable make the
                # projection a genuine disjunction (e.g. exists x with
                # a <= x <= b and x != c excludes the point a = b = c), so
                # split them into strict branches first
                for branch in self._split_disequalities(conjunction, name):
                    result = self._eliminate_one(branch, name)
                    if result is not None:
                        next_worklist.append(result)
            worklist = next_worklist
            if not worklist:
                return []
        results: list[Conjunction] = []
        seen: set[frozenset[OrderAtom]] = set()
        for conjunction in worklist:
            if not _Closure(conjunction).satisfiable:
                continue
            key = frozenset(conjunction)
            if key not in seen:
                seen.add(key)
                results.append(tuple(conjunction))
        return results

    def _split_disequalities(
        self, atoms: list[OrderAtom], name: str
    ) -> list[list[OrderAtom]]:
        """Rewrite each ``t != u`` involving the variable into < branches."""
        var = Var(name)
        branches: list[list[OrderAtom]] = [[]]
        for atom in atoms:
            if atom.op == "!=" and var in (atom.left, atom.right):
                below = OrderAtom("<", atom.left, atom.right)
                above = OrderAtom("<", atom.right, atom.left)
                branches = [b + [below] for b in branches] + [
                    b + [above] for b in branches
                ]
            else:
                for branch in branches:
                    branch.append(atom)
        return branches

    def _eliminate_one(
        self, atoms: list[OrderAtom], name: str
    ) -> list[OrderAtom] | None:
        """``exists name . conjunction`` as a conjunction, or None if unsat.

        Dense-order elimination of one variable from a satisfiable
        conjunction is again a single conjunction (convexity in the
        eliminated coordinate once disequalities are strengthened away by the
        closure).
        """
        closure = _Closure(atoms)
        if not closure.satisfiable:
            return None
        var = Var(name)
        if var not in closure._index:
            return list(atoms)
        partner = next(
            (t for t in closure.terms if t != var and closure.equal(var, t)), None
        )
        if partner is not None:
            # the variable is forced equal to another term: substitute it
            substituted = []
            for atom in atoms:
                new = OrderAtom(
                    atom.op,
                    partner if atom.left == var else atom.left,
                    partner if atom.right == var else atom.right,
                )
                substituted.append(new)
            return self._simplify_ground(substituted)
        lowers: list[tuple[Term, bool]] = []  # (term, strict)
        uppers: list[tuple[Term, bool]] = []
        kept: list[OrderAtom] = []
        for atom in atoms:
            involves = var in (atom.left, atom.right)
            if not involves:
                kept.append(atom)
                continue
            if atom.left == var and atom.right == var:
                if atom.op == "<" or atom.op == "!=":
                    return None
                continue
            other = atom.right if atom.left == var else atom.left
            var_on_left = atom.left == var
            if atom.op == "=":
                raise AssertionError(
                    "equality with another term should have been substituted"
                )
            if atom.op == "!=":
                raise AssertionError(
                    "disequalities on the variable are split before elimination"
                )
            strict = atom.op == "<"
            if var_on_left:
                uppers.append((other, strict))
            else:
                lowers.append((other, strict))
        for low, s1 in lowers:
            for high, s2 in uppers:
                op = "<" if (s1 or s2) else "<="
                kept.append(OrderAtom(op, low, high))
        simplified = self._simplify_ground(kept)
        if simplified is None:
            return None
        if not _Closure(simplified).satisfiable:
            return None
        return simplified

    def _simplify_ground(self, atoms: list[OrderAtom]) -> list[OrderAtom] | None:
        """Evaluate constant-vs-constant atoms; None if one is false."""
        result = []
        for atom in atoms:
            if isinstance(atom.left, Const) and isinstance(atom.right, Const):
                if not atom.holds({}):
                    return None
                continue
            if atom.left == atom.right:
                if atom.op in ("<", "!="):
                    return None
                continue
            result.append(atom)
        return result

    # ----------------------------------------------------------- sample points
    def sample_point(
        self, atoms: Sequence[Atom], variables: Sequence[str]
    ) -> dict[str, Any] | None:
        checked = self._checked(atoms)
        closure = _Closure(checked)
        if not closure.satisfiable:
            return None
        values: dict[Term, Fraction] = {}
        used: set[Fraction] = set()
        for term in closure.terms:
            if isinstance(term, Const):
                values[term] = term.value
                used.add(term.value)
        # pin every class containing a constant to that constant
        for term in closure.terms:
            if isinstance(term, Var):
                pinned = next(
                    (
                        c
                        for c in closure.terms
                        if isinstance(c, Const) and closure.equal(term, c)
                    ),
                    None,
                )
                if pinned is not None:
                    values[term] = pinned.value
        # the remaining ("free") classes are never forced equal to an
        # assigned value, so we may pick each value strictly inside its
        # interval relative to the already-assigned terms and distinct from
        # every value used so far -- density guarantees such a point, and
        # distinctness discharges all disequalities at once (the Lemma 3.7
        # extension argument)
        pending = [
            t
            for t in closure.terms
            if isinstance(t, Var)
            and t not in values
            and closure.representative(t) == t
        ]
        for term in pending:
            low: Fraction | None = None
            high: Fraction | None = None
            for other, value in values.items():
                if closure.weakly_less(other, term):
                    if low is None or value > low:
                        low = value
                if closure.weakly_less(term, other):
                    if high is None or value < high:
                        high = value
            value = _pick_in_interval(low, True, high, True, set(used))
            if value is None:  # pragma: no cover - closure guarantees room
                return None
            values[term] = value
            used.add(value)
        # non-representative free variables copy their class representative
        for term in closure.terms:
            if isinstance(term, Var) and term not in values:
                values[term] = values[closure.representative(term)]
        assignment: dict[str, Any] = {}
        for name in variables:
            var = Var(name)
            if var in closure._index:
                assignment[name] = values[var]
            else:
                assignment[name] = Fraction(0)
        return assignment

    # -------------------------------------------------------------- internals
    def _checked(self, atoms: Sequence[Atom]) -> tuple[OrderAtom, ...]:
        for atom in atoms:
            self.validate_atom(atom)
        return tuple(atoms)  # type: ignore[arg-type]


def _pick_in_interval(
    low: Fraction | None,
    low_strict: bool,
    high: Fraction | None,
    high_strict: bool,
    forbidden: set[Fraction],
) -> Fraction | None:
    """A rational in the interval described by the bounds, avoiding ``forbidden``.

    Returns ``None`` only when the interval is genuinely empty (which the
    closure should already have rejected).
    """
    if low is not None and high is not None:
        if low > high:
            return None
        if low == high:
            if low_strict or high_strict or low in forbidden:
                return None
            return low
        # enumerate dyadic points strictly inside (low, high); the forbidden
        # set is finite, so this terminates
        width = high - low
        denominator = 2
        while True:
            for numerator in range(1, denominator, 2):
                candidate = low + width * Fraction(numerator, denominator)
                if candidate not in forbidden:
                    return candidate
            denominator *= 2
    if low is not None:
        candidate = low + 1 if low_strict else low
        while candidate in forbidden:
            candidate += 1
        return candidate
    if high is not None:
        candidate = high - 1 if high_strict else high
        while candidate in forbidden:
            candidate -= 1
        return candidate
    candidate = Fraction(0)
    while candidate in forbidden:
        candidate += 1
    return candidate
