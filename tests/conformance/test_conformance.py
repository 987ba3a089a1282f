"""The differential property: every strategy agrees on every generated case.

This is the tentpole assertion of the harness: for random generalized
databases and queries in each of the four theories, the calculus evaluator,
the generalized relational algebra, the paper-verbatim EVAL-phi procedures,
every ``EngineOptions`` ablation of the Datalog engine, the Boole's-lemma
engine, and both QE backends denote the same point set.
"""

import pytest
from hypothesis import given, strategies as st

from repro.conformance.generators import (
    THEORY_NAMES,
    case_seed,
    generate_case,
    resolve_seed,
)
from repro.conformance.runner import run_case, run_conformance
from repro.conformance.strategies import ABLATION_GRID, strategies_for


@pytest.mark.parametrize("theory", THEORY_NAMES)
@given(index=st.integers(0, 2**20))
def test_all_strategies_agree(theory, index):
    seed = case_seed(resolve_seed(0), theory, index)
    spec = generate_case(theory, seed)
    found = run_case(spec)
    assert found is None, (
        f"strategies disagree on {theory} case seed={seed} "
        f"(replay: python -m repro conformance --theory {theory} "
        f"--case-seed {seed}): {found.describe()}"
    )


def test_every_ablation_config_is_exercised():
    """Acceptance criterion: each EngineOptions ablation runs in some pair."""
    report = run_conformance("dense_order", cases=20, seed=resolve_seed(0))
    exercised, total = report.options_coverage()
    # coverage keys by as_dict, and every grid entry is a distinct config
    distinct = len({frozenset(o.as_dict().items()) for _, o in ABLATION_GRID})
    assert (exercised, total) == (distinct, distinct)
    assert distinct == len(ABLATION_GRID)
    assert report.ok, [f.discrepancy.describe() for f in report.failures]


def test_ablation_grid_shape():
    labels = [label for label, _ in ABLATION_GRID]
    # one flag, so its single-flag-off entry is all_off: the grid's one
    # entry per distinct configuration leaves all_on and all_off
    assert list(ABLATION_GRID[0][1].as_dict()) == ["optimize_semantic"]
    assert labels == ["all_on", "all_off"]
    # every grid entry is a distinct configuration, under a distinct label
    distinct = {frozenset(o.as_dict().items()) for _, o in ABLATION_GRID}
    assert len(distinct) == len(set(labels)) == len(labels)
    assert dict(ABLATION_GRID)["all_off"].optimize_semantic is False


@pytest.mark.parametrize(
    "theory, expected",
    [
        ("dense_order", {"calculus", "algebra", "rconfig"}),
        ("equality", {"calculus", "algebra", "econfig"}),
        ("boolean", {"calculus", "algebra"}),
    ],
)
def test_calculus_registry_contents(theory, expected):
    for index in range(200):
        spec = generate_case(theory, case_seed(3, theory, index))
        if spec.kind != "calculus":
            continue
        names = {route.name for route in strategies_for(spec)}
        assert names == expected
        assert strategies_for(spec)[0].name == "calculus"  # reference first
        return
    pytest.fail("no calculus case generated in 200 seeds")


def test_datalog_registry_contains_all_ablations_and_naive():
    for index in range(200):
        spec = generate_case("dense_order", case_seed(3, "dense_order", index))
        if spec.kind != "datalog":
            continue
        routes = strategies_for(spec)
        names = {route.name for route in routes}
        # the flag-free reference evaluator is the route all others are
        # compared against
        assert routes[0].name == "datalog[reference]"
        assert "datalog[all_on]" in names
        assert "datalog[all_off]" in names
        assert "datalog[naive]" in names
        # one route per grid entry, and no single-flag-off route beside
        # all_off
        grid = {f"datalog[{label}]" for label, _ in ABLATION_GRID}
        assert grid <= names
        assert not any(n.startswith("datalog[no_") for n in names)
        return
    pytest.fail("no datalog case generated in 200 seeds")


def test_boolean_datalog_includes_boole_lemma():
    for index in range(200):
        spec = generate_case("boolean", case_seed(3, "boolean", index))
        if spec.kind != "datalog":
            continue
        names = {route.name for route in strategies_for(spec)}
        assert "boole_lemma" in names
        return
    pytest.fail("no boolean datalog case generated in 200 seeds")
