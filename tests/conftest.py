"""Repo-wide test plumbing: hypothesis profiles and seed replay info.

Two hypothesis profiles drive the property suites at different depths:

* ``ci`` (default): fast smoke depth for every pull request;
* ``deep``: the nightly depth (``REPRO_HYPOTHESIS_PROFILE=deep``).

Tests that pin their own ``@settings`` keep them; the profile only sets
the defaults.  Every failing test gets a report section naming the base
conformance seed, so ``REPRO_SEED=<n> pytest ...`` replays the exact run.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.conformance.generators import SEED_ENV_VAR, resolve_seed
from repro.indexing.generalized_index import GeneralizedIndex1D

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "deep",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def base_seed() -> int:
    """The run's base seed (REPRO_SEED when set, else 0)."""
    return resolve_seed(0)


@pytest.fixture
def index_builds(monkeypatch):
    """(relation name, attribute) of every GeneralizedIndex1D constructed."""
    seen: list[tuple[str, str]] = []
    original = GeneralizedIndex1D.__init__

    def counting(self, relation, attribute):
        seen.append((relation.name, attribute))
        original(self, relation, attribute)

    monkeypatch.setattr(GeneralizedIndex1D, "__init__", counting)
    return seen


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(
            (
                "conformance seed",
                f"base seed {resolve_seed(0)} "
                f"(override with {SEED_ENV_VAR}=<n> to replay; per-case "
                "seeds are printed in the assertion message)",
            )
        )
