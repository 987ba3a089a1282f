"""JoinIndexPool over relation-owned indexes: lazy build, appends, soundness."""

from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.indexing.pool import JoinIndexPool
from repro.logic.parser import parse_rules

theory = DenseOrderTheory()


def _relation(points):
    db = GeneralizedDatabase(theory)
    relation = db.create_relation("E", ("x", "y"))
    for a, b in points:
        relation.add_point([Fraction(a), Fraction(b)])
    return relation


class TestSupport:
    def test_dense_order_supported(self):
        assert JoinIndexPool(theory).supported

    def test_equality_unsupported_probes_none(self):
        pool = JoinIndexPool(EqualityTheory())
        assert not pool.supported
        assert pool.probe(_relation([(0, 1)]), "x", Fraction(0), Fraction(0)) is None

    def test_unbounded_probe_is_none(self):
        pool = JoinIndexPool(theory)
        assert pool.probe(_relation([(0, 1)]), "x", None, None) is None

    def test_unknown_attribute_is_none(self):
        pool = JoinIndexPool(theory)
        assert pool.probe(_relation([(0, 1)]), "zzz", Fraction(0), None) is None


class TestProbeSoundness:
    def test_exact_pin_finds_all_matches(self):
        relation = _relation([(i, i + 1) for i in range(10)])
        pool = JoinIndexPool(theory)
        hits = pool.probe(relation, "x", Fraction(4), Fraction(4))
        assert hits is not None
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
        pool = JoinIndexPool(theory)
        hits = pool.probe(relation, "x", Fraction(3), Fraction(3))
        assert hits is not None and len(hits) == 1
        near_edge = pool.probe(relation, "x", Fraction("4.999"), Fraction("4.999"))
        assert near_edge is not None and len(near_edge) == 1

    def test_disjoint_probe_returns_empty(self):
        relation = _relation([(i, i + 1) for i in range(6)])
        pool = JoinIndexPool(theory)
        hits = pool.probe(relation, "x", Fraction(100), Fraction(200))
        assert hits == []


class TestIncrementalMaintenance:
    def test_index_catches_up_as_relation_grows(self, index_builds):
        relation = _relation([(0, 1), (1, 2)])
        pool = JoinIndexPool(theory)
        assert pool.probe(relation, "x", Fraction(5), Fraction(5)) == []
        index = relation.index("x")
        # grow the relation (fixpoint rounds only ever add)
        relation.add_point([Fraction(5), Fraction(6)])
        relation.add_point([Fraction(7), Fraction(8)])
        assert len(index) == len(relation) == 4  # appends queued on it
        hits = pool.probe(relation, "x", Fraction(5), Fraction(5))
        assert hits is not None and len(hits) == 1
        # the relation's one index followed the appends, never rebuilt
        assert relation.index("x") is index
        assert index_builds == [("E", "x")]

    def test_one_index_per_relation_attribute_pair(self, index_builds):
        relation = _relation([(0, 1)])
        pool = JoinIndexPool(theory)
        pool.probe(relation, "x", Fraction(0), None)
        pool.probe(relation, "y", Fraction(1), None)
        pool.probe(relation, "x", None, Fraction(3))
        assert index_builds == [("E", "x"), ("E", "y")]
        assert relation.index("x") is not relation.index("y")

    def test_counters_accumulate(self):
        # probe counters live in EvaluationStats
        rules = parse_rules(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            """,
            theory=theory,
        )
        db = GeneralizedDatabase(theory)
        db.add_relation(_relation([(i, i + 1) for i in range(8)]))
        _, stats = DatalogProgram(rules, theory).evaluate(db)
        assert stats.index_probes >= 2
        assert stats.index_candidates >= 2
        assert stats.index_scan_avoided > 0


class TestProbeHandles:
    """A handle is the relation's own index: same answers as direct probes."""

    def test_handle_matches_direct_probe(self):
        relation = _relation([(i, i + 1) for i in range(10)])
        pool = JoinIndexPool(theory)
        handle = pool.handle(relation, "x")
        assert handle is not None
        assert handle.candidates(Fraction(4), Fraction(4)) == pool.probe(
            relation, "x", Fraction(4), Fraction(4)
        )

    def test_handle_declines_like_probe(self):
        relation = _relation([(0, 1)])
        assert JoinIndexPool(EqualityTheory()).handle(relation, "x") is None
        assert JoinIndexPool(theory).handle(relation, "zzz") is None
        handle = JoinIndexPool(theory).handle(relation, "x")
        assert JoinIndexPool(theory).probe(relation, "x", None, None) is None
        assert handle.candidates(None, None) == relation.tuples()

    def test_handle_shares_index_and_counters(self, index_builds):
        relation = _relation([(i, i + 1) for i in range(6)])
        pool = JoinIndexPool(theory)
        handle = pool.handle(relation, "x")
        assert handle is relation.index("x")  # no second index behind it
        assert len(handle.candidates(Fraction(2), Fraction(2))) == 1
        # a second pool (the next evaluation) reaches the same index
        assert JoinIndexPool(theory).handle(relation, "x") is handle
        assert pool.probe(relation, "x", Fraction(3), Fraction(3)) == (
            handle.candidates(Fraction(3), Fraction(3))
        )
        assert index_builds == [("E", "x")]

    def test_handle_sees_incremental_growth(self):
        relation = _relation([(0, 1)])
        pool = JoinIndexPool(theory)
        handle = pool.handle(relation, "x")
        assert handle.candidates(Fraction(7), Fraction(7)) == []
        relation.add_point([Fraction(7), Fraction(8)])
        assert len(handle.candidates(Fraction(7), Fraction(7))) == 1
