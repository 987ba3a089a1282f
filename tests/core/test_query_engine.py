"""Tests for the demand-driven query front door (``repro.core.query``).

Covers the :class:`Engine` facade (goal parsing through answer selection),
the containment-based result-reuse cache with its version-snapshot
invalidation (including maintained IVM deltas through shared relations),
its per-slot hull prefilter, its per-semantics entries and its refusal to
store budget-fringe answers, plan warmth for repeated adornment shapes,
the full-fixpoint oracle path (``EngineOptions.magic`` off), and the
``python -m repro query`` CLI.
"""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import repro.analysis.semantic as semantic
from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.constraints.equality import EqualityTheory
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase, GeneralizedRelation
from repro.core.magic import _slot, parse_goal, select_answers
from repro.core.query import Engine, QueryCache, main as query_main
from repro.errors import EvaluationError
from repro.indexing.interval import Interval
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget, supervised
from repro.workloads.orders import chain_edges

order = DenseOrderTheory()

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


def tc_engine(n=8, **options):
    rules = parse_rules(TC_RULES, theory=order)
    return Engine(
        rules,
        order,
        options=replace(EngineOptions(), **options),
        database=chain_edges(n),
    )


def keys(relation):
    return frozenset(relation.keys())


class TestEngineQuery:
    def test_bound_query_matches_oracle(self):
        engine = tc_engine()
        result = engine.query("T(0, y)")
        assert result.adornment == "bf"
        assert result.magic_rules >= 1
        assert not result.full_fallback
        full_world, _ = DatalogProgram(engine.rules, order).evaluate(
            engine.database
        )
        expected = select_answers(
            full_world.relation("T"), result.query, order
        )
        assert keys(result.relation) == keys(expected)

    def test_cone_smaller_than_full_fixpoint(self):
        engine = tc_engine(16)
        result = engine.query("T(14, y)")
        full_world, _ = DatalogProgram(engine.rules, order).evaluate(
            engine.database
        )
        assert result.cone_tuples < len(full_world.relation("T"))

    def test_interval_goal(self):
        engine = tc_engine()
        result = engine.query("T(x, y), 5 < x, x < 7")
        assert result.adornment == "bf"
        points = {
            (point["_0"], point["_1"]) for point in result.sample_points()
        }
        assert all(Fraction(5) < a < Fraction(7) for a, _ in points)
        assert len(result) > 0

    def test_magic_off_is_the_full_oracle(self):
        magic = tc_engine().query("T(0, y)")
        oracle = tc_engine(magic=False).query("T(0, y)")
        assert keys(magic.relation) == keys(oracle.relation)
        assert oracle.magic_rules == 0

    def test_non_idb_goal_rejected_both_paths(self):
        for engine in (tc_engine(), tc_engine(magic=False)):
            for _attempt in range(2):  # a rejected shape is never memoized
                with pytest.raises(EvaluationError):
                    engine.query("E(0, y)")

    def test_no_database_rejected(self):
        rules = parse_rules(TC_RULES, theory=order)
        with pytest.raises(EvaluationError):
            Engine(rules, order).query("T(0, y)")

    def test_explicit_database_argument(self):
        rules = parse_rules(TC_RULES, theory=order)
        engine = Engine(rules, order)
        result = engine.query("T(0, y)", chain_edges(3))
        assert len(result) == 3

    def test_result_as_dict(self):
        document = tc_engine().query("T(0, y)").as_dict()
        assert document["predicate"] == "T"
        assert document["adornment"] == "bf"
        assert document["answers"] == len(document["answer_keys"])
        assert "stats" in document

    def test_repeated_adornment_hits_plan_cache(self):
        engine = tc_engine()
        engine.query("T(0, y)")
        # same shape, different constant: the plan is memoized and the
        # process-wide compiled-plan cache is warm
        warm = engine.query("T(3, y)")
        assert warm.stats.compile_hits >= 1
        assert len(engine._prepared) == 1

    def test_one_magic_plan_per_shape(self, monkeypatch):
        import repro.core.query as query_module

        planned = []
        real_plan = query_module.magic_plan

        def counting_plan(rules, query, theory, semantics="auto"):
            planned.append(query.adornment)
            return real_plan(rules, query, theory, semantics)

        monkeypatch.setattr(query_module, "magic_plan", counting_plan)
        engine = tc_engine()
        first = engine.query("T(3, y)")
        second = engine.query("T(5, y)")
        # two reuse-cache misses of one shape plan once
        assert not first.reused and not second.reused
        assert planned == ["bf"]
        oracle = tc_engine(magic=False)
        assert keys(first.relation) == keys(oracle.query("T(3, y)").relation)
        assert keys(second.relation) == keys(oracle.query("T(5, y)").relation)
        assert len(second.relation) == 3  # T(5, 6), T(5, 7), T(5, 8)


class TestReuseCache:
    def test_exact_repeat_is_a_hit(self):
        engine = tc_engine()
        first = engine.query("T(0, y)")
        assert not first.reused
        second = engine.query("T(0, y)")
        assert second.reused
        assert second.stats.magic_reuse_hits == 1
        assert keys(second.relation) == keys(first.relation)
        assert engine.cache.stats()["hits"] == 1

    def test_contained_query_reselects_cached_answers(self):
        engine = tc_engine()
        broad = engine.query("T(x, y), 0 < x, x < 6")
        narrow = engine.query("T(x, y), 2 < x, x < 4")
        assert narrow.reused
        oracle = tc_engine(magic=False).query("T(x, y), 2 < x, x < 4")
        assert keys(narrow.relation) == keys(oracle.relation)
        assert len(narrow.relation) < len(broad.relation)

    def test_edb_mutation_invalidates(self):
        engine = tc_engine(4)
        engine.query("T(0, y)")
        engine.database.relation("E").add_point([4, 5])
        result = engine.query("T(0, y)")
        assert not result.reused
        assert engine.cache.stats()["invalidations"] >= 1
        assert result.relation.contains_values([Fraction(0), Fraction(5)])

    def test_cache_disabled_without_magic(self):
        engine = tc_engine(magic=False)
        engine.query("T(0, y)")
        second = engine.query("T(0, y)")
        assert not second.reused
        assert engine.cache.stats()["entries"] == 0


NEGATION_RULES = """
T(x, y) :- E(x, y).
T(x, z) :- E(x, y), T(y, z).
U(x, y) :- V(x), V(y), not T(x, y).
"""


class TestCacheEntryScope:
    @pytest.mark.parametrize(
        "first, second",
        [("stratified", "inflationary"), ("inflationary", "stratified")],
    )
    def test_entries_match_only_their_semantics(self, first, second):
        # E is the chain 0 -> 1 -> 2 -> 3 and V = {0..4}: U(0, y) has the 2
        # non-successors of 0 when stratified, and all 5 vertices under
        # inflationary semantics (T is still empty when U first fires)
        expected = {"stratified": 2, "inflationary": 5}
        database = chain_edges(3)
        vertices = database.create_relation("V", ("x",))
        for value in range(5):
            vertices.add_point([value])
        rules = parse_rules(NEGATION_RULES, theory=order)
        engine = Engine(rules, order, database=database)
        assert len(engine.query("U(0, y)", semantics=first)) == expected[first]
        result = engine.query("U(0, y)", semantics=second)
        assert not result.reused
        assert len(result) == expected[second]
        again = engine.query("U(0, y)", semantics=second)
        assert again.reused
        assert len(again) == expected[second]

    def test_budget_fringe_answer_is_not_stored(self):
        engine = tc_engine(12)
        with supervised(Budget(rounds=2, partial_results="fringe")):
            partial = engine.query("T(0, y)")
        assert partial.stats.incomplete
        assert len(partial) == 2
        assert engine.cache.stats()["entries"] == 0
        full = engine.query("T(0, y)")
        assert not full.reused
        assert not full.stats.incomplete
        assert len(full) == 12
        assert engine.query("T(0, y)").reused


@pytest.fixture
def containment_checks(monkeypatch):
    """Arguments of every query_contained_in call a cache lookup makes."""
    calls = []
    original = semantic.query_contained_in

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(semantic, "query_contained_in", counting)
    return calls


def equality_tc_engine(n):
    theory = EqualityTheory()
    database = GeneralizedDatabase(theory)
    edge = database.create_relation("E", ("x", "y"))
    for i in range(n):
        edge.add_point([i, i + 1])
    rules = parse_rules(TC_RULES, theory=theory)
    return Engine(rules, theory, database=database)


class TestHullPrefilter:
    def fill_with_points(self, engine):
        for k in range(64):
            engine.query(f"T({k}, y)")
        assert engine.cache.stats()["entries"] == 64

    def test_point_miss_skips_every_disjoint_entry(self, containment_checks):
        engine = tc_engine(4)
        self.fill_with_points(engine)
        containment_checks.clear()
        result = engine.query("T(64, y)")
        assert not result.reused
        assert containment_checks == []

    def test_theory_without_bounds_scans_every_entry(self, containment_checks):
        engine = equality_tc_engine(4)
        self.fill_with_points(engine)
        containment_checks.clear()
        result = engine.query("T(64, y)")
        assert not result.reused
        assert len(containment_checks) == 64

    def test_container_behind_disjoint_entries_still_serves(
        self, containment_checks
    ):
        engine = tc_engine()
        for k in (0, 1, 7):
            engine.query(f"T({k}, y)")
        engine.query("T(x, y), 2 < x, x < 6")
        engine.query("T(8, y)")
        containment_checks.clear()
        narrow = engine.query("T(x, y), 3 < x, x < 5")
        assert narrow.reused
        # only the container's hull meets [3, 5] on slot 0
        assert len(containment_checks) == 1
        oracle = tc_engine(magic=False).query("T(x, y), 3 < x, x < 5")
        assert keys(narrow.relation) == keys(oracle.relation)


# ------------------------------------------- the prefilter against a full scan
CONSTANTS = st.integers(0, 4)


def slot_atoms(var):
    """Points, punctures, rays and open/closed intervals on one slot; the
    small constant range makes endpoints touch often."""
    low = st.tuples(CONSTANTS, st.sampled_from(["<", "<="])).map(
        lambda t: [f"{t[0]} {t[1]} {var}"]
    )
    high = st.tuples(st.sampled_from(["<", "<="]), CONSTANTS).map(
        lambda t: [f"{var} {t[0]} {t[1]}"]
    )
    return st.one_of(
        st.just([]),
        CONSTANTS.map(lambda c: [f"{var} = {c}"]),
        CONSTANTS.map(lambda c: [f"{var} != {c}"]),
        low,
        high,
        st.tuples(low, high).map(lambda t: t[0] + t[1]),
        st.tuples(low, high, CONSTANTS).map(
            lambda t: t[0] + t[1] + [f"{var} != {t[2]}"]
        ),
    )


@st.composite
def region_goals(draw, arity):
    variables = ("x", "y")[:arity]
    atoms = [atom for var in variables for atom in draw(slot_atoms(var))]
    if arity == 2:
        atoms += draw(
            st.sampled_from([[], ["x < y"], ["x <= y"], ["x = y"], ["y < x"]])
        )
    return ", ".join([f"T({', '.join(variables)})", *atoms])


def base_answers(arity):
    """A fixed answer relation the stored regions select from."""
    variables = ("a", "b")[:arity]
    relation = GeneralizedRelation("T", variables, order)
    for value in range(5):
        relation.add_point([value] * arity)
    first = variables[0]
    relation.add_tuple([lt(0, first), lt(first, 1)])
    relation.add_tuple([le(2, first), le(first, 4)])
    relation.add_tuple([lt(3, first)] + [lt(first, v) for v in variables[1:]])
    return relation


def full_scan(stored, goal):
    """The lookup without a prefilter: exact key, then every entry in order."""
    slots = tuple(_slot(i) for i in range(goal.arity))
    selection = goal.selection_atoms(slots, order)
    canonical = order.canonicalize(selection)
    if canonical is None:
        return None
    for _, key, relation in stored:
        if key == frozenset(canonical):
            return keys(relation)
    for container, _, relation in stored:
        if semantic.query_contained_in(selection, container, slots, order) is not None:
            return keys(select_answers(relation, goal, order))
    return None


@given(
    data=st.data(),
    arity=st.sampled_from([1, 2]),
)
def test_prefilter_matches_full_scan(data, arity):
    stored_goals = data.draw(st.lists(region_goals(arity), min_size=1, max_size=10))
    looked_up = data.draw(st.lists(region_goals(arity), min_size=1, max_size=6))
    base = base_answers(arity)
    database = GeneralizedDatabase(order)
    cache = QueryCache()
    slots = tuple(_slot(i) for i in range(arity))
    stored = []
    for text in stored_goals:
        query = parse_goal(text, order)
        relation = select_answers(base, query, order)
        cache.store(query, database, order, relation, query.adornment, "auto")
        selection = query.selection_atoms(slots, order)
        canonical = order.canonicalize(selection)
        if canonical is not None:
            stored.append((selection, frozenset(canonical), relation))
    hits = misses = 0
    for text in looked_up:
        goal = parse_goal(text, order)
        expected = full_scan(stored, goal)
        found = cache.lookup(goal, database, order, "auto")
        assert (None if found is None else keys(found)) == expected, text
        hits += expected is not None
        misses += expected is None
        # every entry the prefilter would skip is one the check rejects
        selection = goal.selection_atoms(slots, order)
        if order.canonicalize(selection) is None:
            continue
        hull = QueryCache._hull(selection, arity, order)
        for container, _, _ in stored:
            entry_hull = QueryCache._hull(container, arity, order)
            if not all(map(Interval.overlaps, hull, entry_hull)):
                witness = semantic.query_contained_in(
                    selection, container, slots, order
                )
                assert witness is None, (text, container)
    assert (cache.hits, cache.misses, cache.invalidations) == (hits, misses, 0)


class TestViewQueries:
    def test_maintained_deltas_invalidate_cached_answers(self):
        from repro.core.ivm import MaterializedView

        rules = parse_rules(TC_RULES, theory=order)
        program = DatalogProgram(rules, order, options=EngineOptions.all_on())
        view = MaterializedView(program, chain_edges(3))
        try:
            engine = Engine.from_view(view)
            # over the shared EDB (a fresh view answers its own goals from
            # the maintained relation and never touches the cache)
            edb = view.edb_database()
            before = engine.query("T(0, y)", database=edb)
            assert not before.reused
            assert engine.query("T(0, y)", database=edb).reused
            version = view.delta_version
            view.insert(
                "E",
                [
                    order.equality("x", order.constant(3)),
                    order.equality("y", order.constant(4)),
                ],
            )
            assert view.delta_version > version
            after = engine.query("T(0, y)", database=edb)
            assert not after.reused
            assert after.relation.contains_values([Fraction(0), Fraction(4)])
            assert not before.relation.contains_values(
                [Fraction(0), Fraction(4)]
            )
        finally:
            view.close()


PROGRAM = """\
# theory: dense_order
# target: reach
# relation: E/2

reach(x, y) :- E(x, y).
reach(x, z) :- E(x, y), reach(y, z).
"""


class TestQueryCli:
    def write(self, tmp_path):
        path = tmp_path / "reach.cql"
        path.write_text(PROGRAM)
        return str(path)

    def test_text_output(self, tmp_path, capsys):
        code = query_main(
            [
                self.write(tmp_path),
                "reach(0, y)",
                "--fact", "E(0, 1)",
                "--fact", "E(1, 2)",
                "--fact", "E(5, 6)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 answer(s) [reach^bf, magic]" in out
        assert "magic rule(s)" in out

    def test_json_output(self, tmp_path, capsys):
        code = query_main(
            [
                self.write(tmp_path),
                "reach(x, y), 0 < x, x < 2",
                "--fact", "E(0, 1)",
                "--fact", "E(1, 2)",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["predicate"] == "reach"
        assert document["adornment"] == "bf"
        assert document["answers"] == 1
        assert document["full_fixpoint_tuples"] == 3
        assert not document["full_fallback"]

    def test_no_magic_oracle_mode(self, tmp_path, capsys):
        code = query_main(
            [
                self.write(tmp_path),
                "reach(0, y)",
                "--fact", "E(0, 1)",
                "--no-magic",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "full fixpoint (magic off)" in out

    def test_bad_goal_reports_error(self, tmp_path, capsys):
        code = query_main(
            [self.write(tmp_path), "nope(0, y)", "--fact", "E(0, 1)"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
