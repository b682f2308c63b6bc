"""Shared test setup."""

import pytest


@pytest.fixture(autouse=True)
def empty_equilibrium_memo():
    """Start every test with ``solve_delta0``'s memo empty.

    The memo lives for the process, so without this a test that patches a
    step of the root search, or counts the memo's misses, would see a solve
    only when no earlier test had solved the same config.
    """
    # imported here: the benchmark's tests put the package on the path
    # themselves, after conftest files load
    from ionphonon.chain import solve_delta0

    solve_delta0.cache_clear()
