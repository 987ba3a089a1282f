"""The tableau's rule with its normal-form variable links folded away.

``shared_variable_rule`` turns the Section 2.2 normal form's ``x - y = 0``
links into shared variables before the rule reaches the join;
``TableauQuery.as_rule`` stays the literal translation.  The two rules
must answer alike, and on Figure 3 the folded rule lets the pin filter
reject the mismatched users that the literal one hands to the solver.
"""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from repro.conformance.oracles import compare_relations
from repro.constraints.real_poly import RealPolynomialTheory, poly_eq
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase
from repro.logic.syntax import RelationAtom
from repro.tableaux.containment import (
    evaluate_tableau,
    rule_output,
    shared_variable_rule,
)
from repro.tableaux.tableau import TableauQuery, TableauRow, checkbook_query


def _ledgers(users, rng):
    """Checkbook rows for users 1..users; about half of them balance."""
    rows = []
    for user in range(1, users + 1):
        food, rent, misc = rng.randint(100, 400), rng.randint(500, 1200), rng.randint(0, 200)
        savings, interest = rng.randint(0, 300), rng.randint(0, 60)
        wages = food + rent + misc + savings - interest
        if rng.random() < 0.5:
            wages += rng.choice((-1, 1)) * rng.randint(1, 50)
        rows.append((user, food, rent, misc, savings, wages, interest))
    return rows


def _checkbook_db(rows):
    db = GeneralizedDatabase(RealPolynomialTheory())
    expenses = db.create_relation("Expenses", ("z", "f", "r", "m"))
    savings = db.create_relation("Savings", ("z", "s", "d1", "d2"))
    income = db.create_relation("Income", ("z", "w", "i", "d3"))
    for user, food, rent, misc, saved, wages, interest in rows:
        expenses.add_point([user, food, rent, misc])
        savings.add_point([user, saved, 0, 0])
        income.add_point([user, wages, interest, 0])
    return db


def _balanced(rows):
    return {row[0] for row in rows if sum(row[1:5]) == row[5] + row[6]}


def test_checkbook_links_fold_into_the_summary_variable():
    query = checkbook_query()
    rule = shared_variable_rule(query, "Balanced")
    (z,) = query.summary
    rows = [lit for lit in rule.body if isinstance(lit, RelationAtom)]
    assert [row.args[0] for row in rows] == [z, z, z]
    # only the balance equation is left among the constraints
    (balance,) = rule.constraint_atoms
    assert len(balance.variables()) == 6
    assert len(query.as_rule().constraint_atoms) == 4


@given(seed=st.integers(0, 2**31 - 1), users=st.integers(1, 6))
def test_folded_and_literal_checkbook_rules_agree(seed, users):
    rows = _ledgers(users, random.Random(seed))
    query = checkbook_query()
    literal = rule_output(query.as_rule("A"), _checkbook_db(rows))
    folded = rule_output(shared_variable_rule(query, "A"), _checkbook_db(rows))
    assert compare_relations(literal, folded, "literal", "folded", "real_poly") is None
    found = {user for user in range(1, users + 1) if folded.contains_values([Fraction(user)])}
    assert found == _balanced(rows)


def test_a_same_row_equation_stays_an_atom():
    # merging a into s first leaves R(s, b): folding a - b = 0 as well
    # would repeat s in the row
    query = TableauQuery(
        ("s",),
        (TableauRow("R", ("a", "b")),),
        (poly_eq("s", "a"), poly_eq("a", "b")),
    )
    rule = shared_variable_rule(query, "Q")
    assert rule.positive_atoms == [RelationAtom("R", ("s", "b"))]
    assert rule.constraint_atoms == [poly_eq("s", "b")]
    db = GeneralizedDatabase(RealPolynomialTheory())
    relation = db.create_relation("R", ("u", "v"))
    relation.add_point([1, 1])
    relation.add_point([2, 3])
    answer = evaluate_tableau(query, db)
    assert answer.contains_values([Fraction(1)])
    assert not answer.contains_values([Fraction(2)])


def test_a_summary_summary_equation_stays_an_atom():
    query = TableauQuery(
        ("s", "t"),
        (TableauRow("R", ("a", "b")),),
        (poly_eq("s", "a"), poly_eq("t", "b"), poly_eq("s", "t")),
    )
    rule = shared_variable_rule(query, "Q")
    assert rule.head == RelationAtom("Q", ("s", "t"))
    assert rule.positive_atoms == [RelationAtom("R", ("s", "t"))]
    assert rule.constraint_atoms == [poly_eq("s", "t")]
    db = GeneralizedDatabase(RealPolynomialTheory())
    relation = db.create_relation("R", ("u", "v"))
    relation.add_point([1, 1])
    relation.add_point([2, 3])
    answer = evaluate_tableau(query, db)
    assert answer.contains_values([Fraction(1), Fraction(1)])
    assert not answer.contains_values([Fraction(2), Fraction(3)])


def test_checkbook_mismatched_users_never_reach_the_solver():
    """12 users: the literal rule makes 300 candidate extensions and the
    solver refutes the 264 user mismatches; folded, the pin filter rejects
    them by a dictionary comparison and 36 extensions remain."""
    rows = _ledgers(12, random.Random(12))
    db = _checkbook_db(rows)
    program = DatalogProgram([shared_variable_rule(checkbook_query(), "A")], db.theory)
    world, stats = program.evaluate(db)
    assert stats.closure_extensions <= 36
    assert stats.pin_prunes == 264
    found = {user for user in range(1, 13) if world.relation("A").contains_values([Fraction(user)])}
    assert found == _balanced(rows)
