"""The per-round join planner: order quality, determinism, delta safety."""

from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core.datalog import DatalogProgram, EngineOptions, EvaluationStats
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules
from repro.logic.syntax import RelationAtom

theory = DenseOrderTheory()


def _program(rules_text, **options):
    return DatalogProgram(
        parse_rules(rules_text, theory=theory),
        theory,
        options=EngineOptions(**options),
    )


class TestPlanOrder:
    def _plan(self, atoms, sizes, pinned=()):
        program = _program("T(x, y) :- E(x, y).")
        return program._plan(atoms, sizes, set(pinned), EvaluationStats())

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

    def test_deterministic_tie_break(self):
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("x", "z"))]
        assert self._plan(atoms, [5, 5]) == [0, 1]

    def test_single_atom_not_counted_as_plan(self):
        stats = EvaluationStats()
        program = _program("T(x, y) :- E(x, y).")
        assert program._plan([RelationAtom("E", ("x", "y"))], [9], set(), stats) == [0]
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
        program = _program(self.RULES, index_probes=False)
        _world, stats = self._run(program)
        # one plan per multi-atom rule firing per round
        assert stats.plans_built >= stats.iterations - 1
        assert stats.plan_reorders >= 0

    def test_delta_restriction_survives_reordering(self):
        # the recursive rule lists T first; whenever the planner moves E
        # ahead of the delta-bound T, the fixpoint must not change
        planned = _program(self.RULES)
        baseline = _program(self.RULES, join_planner=False)
        world_a, stats_a = self._run(planned)
        world_b, _stats_b = self._run(baseline)
        fp = lambda w: frozenset(t.atoms for t in w.relation("T"))
        assert fp(world_a) == fp(world_b)
        assert stats_a.plans_built > 0

    def _run(self, program):
        return program.evaluate(self._chain(8))
