"""Generalized tuples, relations and databases (Definitions 1.3 and 1.4).

A generalized k-tuple is a finite conjunction of constraints over k
variables; a generalized relation of arity k is a finite set of generalized
k-tuples over the same variables (a DNF formula with at most k distinct
variables); a generalized database is a finite set of generalized relations.
Each generalized relation finitely represents a possibly infinite
*unrestricted* relation: the set of points of D^k satisfying its formula.

Tuples are stored canonicalized (via the theory's ``canonicalize``), which
deduplicates equivalent constraint conjunctions -- the mechanism behind
fixpoint termination in the Datalog engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from repro.constraints.base import ConstraintTheory
from repro.errors import ArityError, UnknownRelationError
from repro.logic.syntax import Atom, Formula, conjoin, disjoin
from repro.runtime.budget import tick

if TYPE_CHECKING:
    from repro.indexing.generalized_index import GeneralizedIndex1D


@dataclass(frozen=True)
class GeneralizedTuple:
    """A generalized k-tuple: variables plus a conjunction of constraint atoms.

    The atom conjunction may mention only the tuple's variables (and domain
    constants).  Instances are immutable; equality is syntactic equality of
    the (canonicalized) atom set.
    """

    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        scope = set(self.variables)
        for atom in self.atoms:
            loose = atom.variables() - scope
            if loose:
                raise ArityError(
                    f"atom {atom} uses variables {sorted(loose)} outside the "
                    f"tuple scope {self.variables}"
                )

    def atom_set(self) -> frozenset[Atom]:
        return frozenset(self.atoms)

    def rename(self, targets: Sequence[str]) -> "GeneralizedTuple":
        """The same constraint over new variable names (positionally)."""
        if len(targets) != len(self.variables):
            raise ArityError(
                f"renaming arity mismatch: {self.variables} -> {tuple(targets)}"
            )
        mapping = dict(zip(self.variables, targets))
        return GeneralizedTuple(
            tuple(targets), tuple(atom.rename(mapping) for atom in self.atoms)
        )

    def holds(self, assignment: Mapping[str, Any]) -> bool:
        """Whether a point of D^k satisfies the conjunction."""
        return all(atom.holds(assignment) for atom in self.atoms)

    def formula(self) -> Formula:
        return conjoin(self.atoms) if self.atoms else conjoin(())

    def __str__(self) -> str:
        body = " and ".join(str(a) for a in self.atoms) or "true"
        return f"({', '.join(self.variables)}) where {body}"


class GeneralizedRelation:
    """A generalized relation: a named, finite set of generalized k-tuples."""

    def __init__(
        self,
        name: str,
        variables: Sequence[str],
        theory: ConstraintTheory,
        tuples: Iterable[GeneralizedTuple] = (),
    ) -> None:
        if len(set(variables)) != len(variables):
            raise ArityError(f"relation variables must be distinct: {variables}")
        self.name = name
        self.variables: tuple[str, ...] = tuple(variables)
        self.theory = theory
        self._tuples: dict[frozenset[Atom], GeneralizedTuple] = {}
        #: monotone content-version counter: bumped on every successful
        #: ``add``/``discard``, so derived results (e.g. the join's scan
        #: lists and probe results) can be cached per (name, version) and
        #: reused until the relation actually changes
        self.version = 0
        #: generalized 1-d indexes by attribute (Section 1.1(3)), created by
        #: :meth:`index` and kept current by every add, discard and clear
        self._indexes: dict[str, GeneralizedIndex1D] = {}
        for item in tuples:
            self.add(item)

    # -------------------------------------------------------------- contents
    @property
    def arity(self) -> int:
        return len(self.variables)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[GeneralizedTuple]:
        return iter(self._tuples.values())

    def tuples(self) -> list[GeneralizedTuple]:
        return list(self._tuples.values())

    def add(self, item: GeneralizedTuple) -> bool:
        """Add a generalized tuple (canonicalized); returns True if new.

        Unsatisfiable tuples denote the empty set and are dropped.
        """
        return self.add_canonical(item) is not None

    def add_canonical(self, item: GeneralizedTuple) -> GeneralizedTuple | None:
        """Like :meth:`add`, but returns the stored canonical tuple if new.

        Callers that need the canonical form (the semi-naive delta) reuse the
        tuple computed by the dedup instead of re-canonicalizing.
        """
        renamed = item.rename(self.variables) if item.variables != self.variables else item
        canonical = self.theory.canonicalize(renamed.atoms)
        if canonical is None:
            return None
        key = frozenset(canonical)
        if key in self._tuples:
            return None
        stored = GeneralizedTuple(self.variables, canonical)
        self._tuples[key] = stored
        self.version += 1
        for index in self._indexes.values():
            index.append(key, stored)
        # supervisor tick: one unit per generalized tuple actually admitted
        # (dropped/duplicate tuples are free)
        tick("tuple")
        return stored

    def adopt_canonical(self, item: GeneralizedTuple) -> GeneralizedTuple | None:
        """Insert a tuple that is *already* in this relation's canonical form.

        The incremental-maintenance delta relations shuttle canonical tuples
        the dedup already computed (they come out of ``add_canonical`` of a
        relation with the same variables); re-canonicalizing them would redo
        the theory work and re-tick the tuple budget for pure bookkeeping.
        The caller vouches for canonicality -- the atom set is used as the
        key verbatim.  Returns the stored tuple if new, None on a duplicate.
        """
        if item.variables != self.variables:
            item = item.rename(self.variables)
        key = frozenset(item.atoms)
        if key in self._tuples:
            return None
        self._tuples[key] = item
        self.version += 1
        for index in self._indexes.values():
            index.append(key, item)
        return item

    def lookup(self, key: frozenset[Atom]) -> GeneralizedTuple | None:
        """The stored tuple with this canonical atom set, if present."""
        return self._tuples.get(key)

    def keys(self) -> list[frozenset[Atom]]:
        """The canonical atom-set keys (the relation's identity as a set)."""
        return list(self._tuples)

    def entries(self) -> list[tuple[frozenset[Atom], GeneralizedTuple]]:
        """(canonical key, stored tuple) pairs, in insertion order."""
        return list(self._tuples.items())

    def add_tuple(self, atoms: Iterable[Atom]) -> bool:
        """Add a tuple given as a conjunction of atoms over this relation's variables."""
        return self.add(GeneralizedTuple(self.variables, tuple(atoms)))

    def add_point(self, values: Sequence[Any]) -> bool:
        """Add a classical ground tuple, encoded with equality constraints
        (Example 1.5: the relational model is the special case)."""
        if len(values) != self.arity:
            raise ArityError(
                f"{self.name} has arity {self.arity}, got point {values!r}"
            )
        atoms = [
            self.theory.equality(var, self.theory.constant(value))
            for var, value in zip(self.variables, values)
        ]
        return self.add_tuple(atoms)

    def discard(self, item: GeneralizedTuple) -> bool:
        """Remove a tuple (by canonical form); returns True if present."""
        canonical = self.theory.canonicalize(item.rename(self.variables).atoms)
        if canonical is None:
            return False
        return self.discard_key(frozenset(canonical)) is not None

    def discard_key(self, key: frozenset[Atom]) -> GeneralizedTuple | None:
        """Remove by canonical key; returns the removed tuple if present."""
        removed = self._tuples.pop(key, None)
        if removed is not None:
            self.version += 1
            for index in self._indexes.values():
                index.remove(key)
        return removed

    def clear(self) -> None:
        """Drop every tuple (and every entry of this relation's indexes)."""
        if self._tuples:
            self._tuples.clear()
            self.version += 1
            for index in self._indexes.values():
                index.clear()

    def index(self, attribute: str) -> GeneralizedIndex1D:
        """The generalized 1-d index on ``attribute`` (Section 1.1(3)).

        Created over the current content at the first call and owned by the
        relation from then on, so it lives as long as this relation object:
        admitted tuples are queued on it and a removal deletes one key.
        Raises :class:`repro.errors.EvaluationError` for an unknown
        attribute or a theory without interval projections.
        """
        found = self._indexes.get(attribute)
        if found is None:
            from repro.indexing.generalized_index import GeneralizedIndex1D

            found = self._indexes.setdefault(
                attribute, GeneralizedIndex1D(self, attribute)
            )
        return found

    # ------------------------------------------------------------- semantics
    def contains_point(self, assignment: Mapping[str, Any]) -> bool:
        """Whether the represented unrestricted relation contains the point."""
        return any(t.holds(assignment) for t in self)

    def contains_values(self, values: Sequence[Any]) -> bool:
        if len(values) != self.arity:
            raise ArityError(f"expected {self.arity} values, got {len(values)}")
        return self.contains_point(dict(zip(self.variables, values)))

    def formula(self) -> Formula:
        """The DNF formula phi_r corresponding to the relation (Def 1.3.3)."""
        return disjoin(t.formula() for t in self) if len(self) else disjoin(())

    def constants(self) -> frozenset:
        """All domain constants mentioned in the relation."""
        result: frozenset = frozenset()
        for item in self:
            result |= self.theory.conjunction_constants(item.atoms)
        return result

    def sample_points(self) -> list[dict[str, Any]]:
        """One satisfying point per tuple (where the theory can produce one)."""
        points = []
        for item in self:
            point = self.theory.sample_point(item.atoms, self.variables)
            if point is not None:
                points.append(point)
        return points

    def is_empty_representation(self) -> bool:
        return not self._tuples

    def copy(self, name: str | None = None) -> "GeneralizedRelation":
        return GeneralizedRelation(
            name or self.name, self.variables, self.theory, self.tuples()
        )

    def __str__(self) -> str:
        rows = "\n".join(f"  {t}" for t in self)
        return f"{self.name}({', '.join(self.variables)}):\n{rows or '  <empty>'}"


class GeneralizedDatabase:
    """A finite set of generalized relations over one constraint theory."""

    def __init__(self, theory: ConstraintTheory) -> None:
        self.theory = theory
        self._relations: dict[str, GeneralizedRelation] = {}

    def create_relation(
        self, name: str, variables: Sequence[str]
    ) -> GeneralizedRelation:
        if name in self._relations:
            raise ArityError(f"relation {name} already exists")
        relation = GeneralizedRelation(name, variables, self.theory)
        self._relations[name] = relation
        return relation

    def add_relation(self, relation: GeneralizedRelation) -> None:
        self._relations[relation.name] = relation

    def relation(self, name: str) -> GeneralizedRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        return sorted(self._relations)

    def relations(self) -> list[GeneralizedRelation]:
        return [self._relations[name] for name in self.names()]

    def constants(self) -> frozenset:
        result: frozenset = frozenset()
        for relation in self._relations.values():
            result |= relation.constants()
        return result

    def copy(self) -> "GeneralizedDatabase":
        clone = GeneralizedDatabase(self.theory)
        for relation in self._relations.values():
            clone.add_relation(relation.copy())
        return clone
