"""Stratification: one stratum per SCC, and each stratum runs semi-naive.

``DatalogProgram.stratify`` is the one place strata are decided.  The
property below checks its contract over random small rule sets with
negation, with its own reachability code (not ``repro.analysis.graph``):
every rule lands in exactly one stratum, positive IDB dependencies point
to the same or an earlier stratum, negated ones to a strictly earlier
stratum, two predicates share a stratum only when each reaches the
other, and ``None`` comes back exactly when a negative edge lies on a
cycle.  The evaluation test checks that a stratum after a recursive one
continues semi-naive: the transitive closure is not re-derived, and the
negated rule fires once; and that a stratum ends without a round that
would fire no rule.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.conformance.reference import reference_fixpoint
from repro.constraints.dense_order import DenseOrderTheory
from repro.core.compile import CompiledRule
from repro.core.datalog import DatalogProgram, EngineOptions, Rule
from repro.logic.parser import parse_rules
from repro.logic.syntax import Not, RelationAtom
from repro.runtime.budget import Budget, metered
from repro.workloads.orders import chain_edges

order = DenseOrderTheory()

IDB = ("P", "Q", "R", "S")
EDB = ("E", "F")


@st.composite
def rule_sets(draw):
    """Unary rules over four IDB and two EDB names, some literals negated."""
    rules = []
    for _ in range(draw(st.integers(1, 7))):
        head = RelationAtom(draw(st.sampled_from(IDB)), ("x",))
        body = [RelationAtom(draw(st.sampled_from(IDB + EDB)), ("x",))]
        for _ in range(draw(st.integers(0, 2))):
            atom = RelationAtom(draw(st.sampled_from(IDB + EDB)), ("x",))
            body.append(Not(atom) if draw(st.booleans()) else atom)
        rules.append(Rule(head, tuple(body)))
    return rules


def _reaches(rules):
    """``reach[p]``: the predicates ``p`` depends on through one or more
    rule bodies, either polarity."""
    edges = {}
    for rule in rules:
        for atom in rule.positive_atoms + rule.negative_atoms:
            edges.setdefault(rule.head.name, set()).add(atom.name)
    reach = {}
    for start in edges:
        seen, stack = set(), list(edges[start])
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(edges.get(name, ()))
        reach[start] = seen
    return reach


@settings(max_examples=200, deadline=None)
@given(rule_sets())
def test_stratify_contract(rules):
    program = DatalogProgram(
        rules, order, options=EngineOptions(optimize_semantic=False)
    )
    assert program.rules == rules
    heads = {rule.head.name for rule in rules}
    reach = _reaches(rules)
    # a negative edge head -> body lies on a cycle when body reaches head
    # (a self-loop included: the edge itself is in reach[head])
    negative_cycle = any(
        rule.head.name in reach.get(atom.name, set())
        for rule in rules
        for atom in rule.negative_atoms
    )
    strata = program.stratify()
    assert (strata is None) == negative_cycle
    if strata is None:
        return
    # every rule in exactly one stratum, each stratum in program order
    placed = [id(rule) for stratum in strata for rule in stratum]
    assert sorted(placed) == sorted(id(rule) for rule in rules)
    position = {id(rule): index for index, rule in enumerate(rules)}
    for stratum in strata:
        assert stratum
        assert [position[id(r)] for r in stratum] == sorted(
            position[id(r)] for r in stratum
        )
    level = {}
    for index, stratum in enumerate(strata):
        for rule in stratum:
            assert level.setdefault(rule.head.name, index) == index
    for rule in rules:
        head = level[rule.head.name]
        for atom in rule.positive_atoms:
            if atom.name in heads:
                assert level[atom.name] <= head
        for atom in rule.negative_atoms:
            if atom.name in heads:
                assert level[atom.name] < head
    # one stratum per component: predicates share a stratum only when
    # each depends on the other
    for left in heads:
        for right in heads:
            if left != right and level[left] == level[right]:
                assert right in reach[left] and left in reach[right]


SEP_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
Sep(x, y) :- V(x), V(y), not T(x, y).
"""


def _chain(n):
    """The edges ``i -> i + 1`` of an ``n``-edge chain and its vertices."""
    db = chain_edges(n)
    vertices = db.create_relation("V", ("x",))
    for i in range(n + 1):
        vertices.add_point([Fraction(i)])
    return db


def test_negated_stratum_reads_a_semi_naive_closure(monkeypatch):
    firings = []
    real_fire = CompiledRule.fire

    def counting_fire(self, *args, **kwargs):
        firings.append(self.rule.head.name)
        return real_fire(self, *args, **kwargs)

    monkeypatch.setattr(CompiledRule, "fire", counting_fire)
    rules = parse_rules(SEP_RULES, theory=order)
    program = DatalogProgram(rules, order)
    assert [len(stratum) for stratum in program.stratify()] == [2, 1]
    db = _chain(6)
    world, stats = program.evaluate(db)
    assert firings.count("Sep") == 1
    # the closure stratum derives what the positive program alone derives
    # semi-naive, and the negated stratum what its one firing derives
    # (naive rounds per stratum derived 280 here)
    tc_world, tc_stats = DatalogProgram(rules[:2], order).evaluate(db)
    _sep_world, sep_stats = DatalogProgram(rules[2:], order).evaluate(tc_world)
    assert firings.count("Sep") == 2
    assert stats.tuples_derived == tc_stats.tuples_derived + sep_stats.tuples_derived
    assert stats.tuples_derived <= 105
    expected = reference_fixpoint(rules, order, db)
    for name in ("T", "Sep"):
        assert frozenset(world.relation(name).keys()) == frozenset(
            expected.relation(name).keys()
        )


def test_a_stratum_stops_before_a_round_with_no_tasks():
    # the closure's last round admits nothing, and the Sep stratum's one
    # round admits only tuples no rule of it reads: neither stratum runs
    # a further round (each ended on an empty one, [..., 28, 0] in 9)
    program = DatalogProgram(parse_rules(SEP_RULES, theory=order), order)
    meter = Budget().start()
    with metered(meter):
        _world, stats = program.evaluate(_chain(6))
    assert stats.per_round_new == [6, 5, 4, 3, 2, 1, 0, 28]
    assert stats.iterations == 8
    assert meter.counts["round"] == 8
