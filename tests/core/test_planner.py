"""The per-round join planner: order quality, determinism, delta safety."""

from fractions import Fraction

from repro.conformance.reference import reference_fixpoint
from repro.constraints.dense_order import DenseOrderTheory
from repro.core.compile import plan_order
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules
from repro.logic.syntax import RelationAtom

theory = DenseOrderTheory()


def _program(rules_text):
    return DatalogProgram(parse_rules(rules_text, theory=theory), theory)


class TestPlanOrder:
    def _plan(self, atoms, sizes, pinned=(), first=None):
        return plan_order(
            [atom.args for atom in atoms], sizes, set(pinned), first
        )

    def test_smaller_source_first_when_disconnected(self):
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("u", "v"))]
        assert self._plan(atoms, [100, 3]) == [1, 0]

    def test_connectivity_beats_size(self):
        # after A(x,y), C shares y while B shares nothing -- C goes next
        # even though it is larger
        atoms = [
            RelationAtom("A", ("x", "y")),
            RelationAtom("B", ("u", "v")),
            RelationAtom("C", ("y", "z")),
        ]
        assert self._plan(atoms, [1, 2, 50]) == [0, 2, 1]

    def test_pinned_constants_seed_connectivity(self):
        # u is pinned by a constraint atom, so B counts as connected at the
        # root and leads despite equal sizes
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("u", "v"))]
        assert self._plan(atoms, [5, 5], pinned={"u"}) == [1, 0]

    def test_delta_slot_leads_whatever_its_size(self):
        # by size E would lead; as the delta slot, T leads
        atoms = [RelationAtom("T", ("x", "z")), RelationAtom("E", ("z", "y"))]
        assert self._plan(atoms, [100, 3]) == [1, 0]
        assert self._plan(atoms, [100, 3], first=0) == [0, 1]

    def test_deterministic_tie_break(self):
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("x", "z"))]
        assert self._plan(atoms, [5, 5]) == [0, 1]

    def test_single_atom_not_counted_as_plan(self):
        assert self._plan([RelationAtom("E", ("x", "y"))], [9]) == [0]
        db = GeneralizedDatabase(theory)
        db.create_relation("E", ("x", "y")).add_point([Fraction(0), Fraction(1)])
        _world, stats = _program("T(x, y) :- E(x, y).").evaluate(db)
        assert stats.plans_built == 0


class TestPlannerInEngine:
    RULES = """
    T(x, y) :- E(x, y).
    T(x, y) :- T(x, z), E(z, y).
    """

    def _chain(self, n):
        db = GeneralizedDatabase(theory)
        edges = db.create_relation("E", ("x", "y"))
        for i in range(n):
            edges.add_point([Fraction(i), Fraction(i + 1)])
        return db

    def test_replans_every_round_and_counts(self):
        program = _program(self.RULES)
        _world, stats = self._run(program)
        # one plan per multi-atom rule firing per round
        assert stats.plans_built >= stats.iterations - 1
        assert stats.plan_reorders >= 0

    def test_delta_restriction_survives_reordering(self):
        # the recursive rule lists T first; the planner orders the other
        # atoms around the delta-bound T, and the fixpoint must not change
        planned = _program(self.RULES)
        world, stats = self._run(planned)
        expected = reference_fixpoint(
            parse_rules(self.RULES, theory=theory), theory, self._chain(8)
        )
        fp = lambda w: frozenset(t.atoms for t in w.relation("T"))
        assert fp(world) == fp(expected)
        assert stats.plans_built > 0

    def test_delta_slot_goes_first(self):
        # edges i->i+1 and i->i+3 over 32 nodes: after the first rounds the
        # delta of T outgrows E, and a planner that put E first would scan
        # the (never probed) delta once per E candidate
        db = GeneralizedDatabase(theory)
        edges = db.create_relation("E", ("x", "y"))
        for i in range(32):
            for step in (1, 3):
                if i + step < 32:
                    edges.add_point([Fraction(i), Fraction(i + step)])
        planned, planned_stats = _program(self.RULES).evaluate(db)
        assert planned_stats.plans_built > 0
        # the delta-first order's count (DESIGN §10.1); ranking the delta
        # like a relation took 14,468
        assert planned_stats.join_steps == 1427
        expected = reference_fixpoint(
            parse_rules(self.RULES, theory=theory), theory, db
        )
        assert set(planned.relation("T").keys()) == set(
            expected.relation("T").keys()
        )

    def _run(self, program):
        return program.evaluate(self._chain(8))
