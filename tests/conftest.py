"""Shared cone fixtures and Hypothesis settings for the test suite."""
from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from conesine import fixture_cone, lattice_cones

# A failing property reports its first shrunk example and stops: the explain
# phase and the search for further distinct bugs each cost minutes there.
# Neither changes which examples a passing run draws.
settings.register_profile(
    "conesine", phases=[p for p in Phase if p is not Phase.explain], report_multiple_bugs=False
)
settings.load_profile("conesine")


@pytest.fixture(scope="session")
def std2():
    return fixture_cone("standard-2")


@pytest.fixture(scope="session")
def std3():
    return fixture_cone("standard-3")


@pytest.fixture(scope="session")
def w21():
    return fixture_cone("wedge21")


@pytest.fixture(scope="session")
def w53():
    return fixture_cone("wedge53")


@pytest.fixture(scope="session")
def square():
    return fixture_cone("cone-over-square")


@pytest.fixture
def fresh_store():
    """An empty store of the draws ``verify_theorem`` shares, for one test.

    The store keys each side's values by the side's route name, so a test that
    substitutes a side with values of its own starts from this fixture: a store
    kept from an earlier test would answer for the substitute under its name.
    """
    token = lattice_cones._draws.set((None, None, False))
    yield
    lattice_cones._draws.reset(token)
