"""The join's index access: relation-owned generalized 1-d indexes.

A probing join step reads ``relation.index(attr).candidates(lo, hi)``
directly; these tests hold that API to the join's needs (lazy build,
appends, soundness) and pin down when the compiled join probes at all.
"""

import io
from fractions import Fraction

import pytest

from repro.cli import Shell
from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.errors import EvaluationError
from repro.logic.parser import parse_rules

theory = DenseOrderTheory()

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


def _relation(points, relation_theory=theory):
    db = GeneralizedDatabase(relation_theory)
    relation = db.create_relation("E", ("x", "y"))
    for a, b in points:
        relation.add_point([Fraction(a), Fraction(b)])
    return relation


def _candidates(relation, attribute, low, high):
    return relation.index(attribute).candidates(low, high)


class TestProbeDecision:
    """Lowering decides once whether a step probes: dense order only."""

    def test_equality_builds_no_index(self, index_builds):
        equality = EqualityTheory()
        db = GeneralizedDatabase(equality)
        db.add_relation(_relation([(i, i + 1) for i in range(6)], equality))
        rules = parse_rules(TC_RULES, theory=equality)
        _, stats = DatalogProgram(rules, equality).evaluate(db)
        assert stats.join_steps > 0
        assert stats.index_probes == 0
        assert index_builds == []

    def test_equality_plan_scans_every_step(self):
        out = io.StringIO()
        shell = Shell(out=out)
        for line in [
            ".theory equality",
            ".relation E(x, y)",
            ".point E: 1, 2",
            ".point E: 2, 3",
            ".rule T(x, y) :- E(x, y).",
            ".rule T(x, y) :- T(x, z), E(z, y).",
            ".plan T",
        ]:
            shell.handle(line)
        steps = [line for line in out.getvalue().splitlines() if " step " in line]
        assert len(steps) == 3  # one step in the first rule, two in the second
        assert all(", scan; bound:" in line for line in steps)
        assert "probe" not in out.getvalue()

    def test_index_rejects_bad_attribute_or_theory(self):
        with pytest.raises(EvaluationError, match="not an attribute"):
            _relation([(0, 1)]).index("zzz")
        with pytest.raises(EvaluationError, match="interval projections"):
            _relation([(0, 1)], EqualityTheory()).index("x")


class TestProbeSoundness:
    def test_exact_pin_finds_all_matches(self):
        relation = _relation([(i, i + 1) for i in range(10)])
        hits = _candidates(relation, "x", Fraction(4), Fraction(4))
        matching = [t for t in relation if t in hits]
        # no false negatives: the only tuple with x = 4 is found
        assert len([t for t in hits]) >= 1
        assert any(
            str(atom).find("4") >= 0 for t in matching for atom in t.atoms
        )
        assert len(hits) < len(relation)

    def test_interval_tuples_candidate_when_satisfiable(self):
        # a tuple with 2 < x < 5 must be a candidate for every probe that
        # can meet its projection; a probe pinned to the open endpoint may
        # be excluded (the join would be unsatisfiable anyway), never one
        # inside the interval
        db = GeneralizedDatabase(theory)
        relation = db.create_relation("R", ("x",))
        relation.add_tuple([theory.lt(Fraction(2), "x"), theory.lt("x", Fraction(5))])
        hits = _candidates(relation, "x", Fraction(3), Fraction(3))
        assert len(hits) == 1
        near_edge = _candidates(relation, "x", Fraction("4.999"), Fraction("4.999"))
        assert len(near_edge) == 1

    def test_disjoint_probe_returns_empty(self):
        relation = _relation([(i, i + 1) for i in range(6)])
        hits = _candidates(relation, "x", Fraction(100), Fraction(200))
        assert hits == []


class TestIncrementalMaintenance:
    def test_index_catches_up_as_relation_grows(self, index_builds):
        relation = _relation([(0, 1), (1, 2)])
        assert _candidates(relation, "x", Fraction(5), Fraction(5)) == []
        index = relation.index("x")
        # grow the relation (fixpoint rounds only ever add)
        relation.add_point([Fraction(5), Fraction(6)])
        relation.add_point([Fraction(7), Fraction(8)])
        assert len(index) == len(relation) == 4  # appends queued on it
        hits = _candidates(relation, "x", Fraction(5), Fraction(5))
        assert len(hits) == 1
        # the relation's one index followed the appends, never rebuilt
        assert relation.index("x") is index
        assert index_builds == [("E", "x")]

    def test_one_index_per_relation_attribute_pair(self, index_builds):
        relation = _relation([(0, 1)])
        _candidates(relation, "x", Fraction(0), None)
        _candidates(relation, "y", Fraction(1), None)
        _candidates(relation, "x", None, Fraction(3))
        assert index_builds == [("E", "x"), ("E", "y")]
        assert relation.index("x") is not relation.index("y")

    def test_counters_accumulate(self):
        # probe counters live in EvaluationStats
        rules = parse_rules(TC_RULES, theory=theory)
        db = GeneralizedDatabase(theory)
        db.add_relation(_relation([(i, i + 1) for i in range(8)]))
        _, stats = DatalogProgram(rules, theory).evaluate(db)
        assert stats.index_probes >= 2
        assert stats.index_candidates >= 2
        assert stats.index_scan_avoided > 0


class TestProbeHandles:
    """The index a step probes is the relation's own, kept across calls."""

    def test_handle_shares_index_and_counters(self, index_builds):
        relation = _relation([(i, i + 1) for i in range(6)])
        handle = relation.index("x")
        assert len(handle.candidates(Fraction(2), Fraction(2))) == 1
        # the next evaluation over the relation reaches the same index
        assert relation.index("x") is handle
        assert _candidates(relation, "x", Fraction(3), Fraction(3)) == (
            handle.candidates(Fraction(3), Fraction(3))
        )
        assert index_builds == [("E", "x")]

    def test_handle_sees_incremental_growth(self):
        relation = _relation([(0, 1)])
        handle = relation.index("x")
        assert handle.candidates(Fraction(7), Fraction(7)) == []
        relation.add_point([Fraction(7), Fraction(8)])
        assert len(handle.candidates(Fraction(7), Fraction(7))) == 1
