"""Shared test setup."""

import pytest


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with the ground-state memos (``solve_delta0`` and the
    points of G it searches, ``chain._root_gap``) and the memo of the bands
    (``bloch._bands``, behind ``dispersion_zigzag``) empty.

    The memos live for the process, so without this a test that patches a
    step of the root search or of the band core, or counts a memo's misses,
    would see a solve or a band build only when no earlier test had made
    the same one.
    """
    # imported here: the benchmark's tests put the package on the path
    # themselves, after conftest files load
    from ionphonon.bloch import _bands
    from ionphonon.chain import _root_gap, solve_delta0

    solve_delta0.cache_clear()
    _root_gap.cache_clear()
    _bands.cache_clear()
