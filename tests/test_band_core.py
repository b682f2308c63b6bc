"""The stacked band core (``CellCouplings.bands``) against per-k oracles."""

import numpy as np
import pytest

from ionphonon import bloch
from ionphonon.bloch import (
    Bands,
    CellCouplings,
    _track_branches,
    reduced_zone_grid,
    ring_momenta,
)
from ionphonon.chain import (
    SUBLATTICE_MIRROR,
    Boundary,
    ChainConfig,
    Equilibrium,
    equilibrium_positions,
    k0_pair_sums,
    solve_delta0,
)
from ionphonon.errors import DynamicalInstabilityError, PhysicsError


def couplings(kappa, alpha=1.0, n=64, boundary=Boundary.RING):
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)
    return CellCouplings(cfg, solve_delta0(cfg))


def linear_couplings(kappa, n, boundary):
    """Couplings expanded around the linear chain, unstable past kappa_c."""
    cfg = ChainConfig(kappa=kappa, n_ions=n, boundary=boundary)
    return CellCouplings(cfg, Equilibrium(0.0, equilibrium_positions(cfg, 0.0)))


def assert_matches_per_k_oracle(cc, grid):
    """bands(grid) against one normal form per k of the same raw table.

    The per-k oracle is the path of ``normal_form(k)`` applied to the grid's
    raw couplings (``normal_form(k)`` itself evaluates k as a grid of one,
    which a uniform grid's FFT rounds differently).
    """
    bands = cc.bands(grid)
    raw = cc.raw_coupling(grid)
    zero_pairs = []
    for i, k in enumerate(grid):
        mirrored = k < -1e-12 and abs(k + np.pi / 2.0) >= 1e-12 \
            and np.min(np.abs(grid + k)) < 1e-9
        # a -k row is the conjugate of its +k partner's normal form
        j = int(np.argmin(np.abs(grid + k))) if mirrored else i
        nf = cc._normal_form(cc._block(float(grid[j]), raw[j]))
        n_modes = len(nf.modes)
        assert np.array_equal(bands.omega[i, :n_modes], nf.frequencies())
        assert np.array_equal(bands.omega[i, n_modes:], np.zeros(6 - n_modes))
        assert np.array_equal(bands.mask[i], np.arange(6) < n_modes)
        for slot, mode in enumerate(nf.modes):
            u, v = (mode.u.conj(), mode.v.conj()) if mirrored else (mode.u, mode.v)
            assert np.max(np.abs(bands.u[i, slot] - u)) <= 1e-14
            assert np.max(np.abs(bands.v[i, slot] - v)) <= 1e-14
        if not mirrored:
            zero_pairs.extend(nf.zero_pairs)
    assert len(bands.zero_pairs) == len(zero_pairs)
    for got, want in zip(bands.zero_pairs, zero_pairs):
        assert np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)
        assert got.m_tilde == want.m_tilde and got.label == want.label


class TestStackedCoreAgainstPerK:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("kappa", [0.3, 0.6])
    def test_ring(self, n, kappa):
        assert_matches_per_k_oracle(couplings(kappa, 1.5, n), ring_momenta(n))

    @pytest.mark.parametrize("n_k", [33, 64])
    @pytest.mark.parametrize("include_edge", [False, True])
    @pytest.mark.parametrize("kappa", [0.3, 0.6])
    def test_bulk(self, n_k, include_edge, kappa):
        cc = couplings(kappa, n=32, boundary=Boundary.BULK)
        assert_matches_per_k_oracle(cc, reduced_zone_grid(n_k, include_edge=include_edge))

    def test_non_uniform_grid(self):
        # not a uniform zone grid: raw_coupling evaluates it point by point,
        # so the oracle is normal_form(k) itself
        cc = couplings(0.6, n=32, boundary=Boundary.BULK)
        grid = np.array([0.3, -0.3, 0.1, 0.0, -1.2, 1.2, np.pi / 2.0 - 0.01, -np.pi / 2.0])
        assert_matches_per_k_oracle(cc, grid)
        bands = cc.bands(grid)
        for i in (0, 2, 3, 6):
            nf = cc.normal_form(float(grid[i]))
            assert np.array_equal(bands.omega[i, :len(nf.modes)], nf.frequencies())


class TestFallback:
    @pytest.mark.parametrize("boundary, grid", [
        (Boundary.RING, ring_momenta(64)),
        (Boundary.BULK, reduced_zone_grid(64, include_edge=False)),
    ])
    def test_instability_names_the_first_failing_block(self, boundary, grid):
        cc = linear_couplings(0.6, 64, boundary)
        raw = cc.raw_coupling(grid)
        expected = None
        for i in np.argsort(-grid, kind="stable"):
            try:
                cc._normal_form(cc._block(float(grid[i]), raw[i]))
            except DynamicalInstabilityError as exc:
                expected = exc
                break
        assert expected is not None
        with pytest.raises(DynamicalInstabilityError) as err:
            cc.bands(grid)
        assert str(err.value) == str(expected)
        assert err.value.frequencies == expected.frequencies

    @pytest.mark.parametrize("defects", [
        {40: ("herm", 1e-6)},                    # Bloch Hermiticity check
        {40: ("herm", 1e-9)},                    # below the Bloch check's former 1e-9
        {40: ("z", 1e-6), 50: ("herm", 1e-6)},   # the larger k fails first
        {50: ("z", 1e-6), 40: ("herm", 1e-6)},
    ])
    def test_failed_check_names_the_first_failing_block(self, monkeypatch, defects):
        cc = couplings(0.6, n=32, boundary=Boundary.BULK)
        grid = reduced_zone_grid(64, include_edge=False)
        raw = cc.raw_coupling(grid)
        for i, (kind, size) in defects.items():
            if kind == "herm":
                raw[i, 2, 3] += size
            else:
                raw[i, 4, 0] += size
                raw[i, 0, 4] += size
        expected = None
        for i in np.argsort(-grid, kind="stable"):
            try:
                cc._normal_form(cc._block(float(grid[i]), raw[i]))
            except (PhysicsError, ValueError) as exc:
                expected = exc
                break
        assert expected is not None
        monkeypatch.setattr(cc, "raw_coupling", lambda k: raw)
        with pytest.raises(type(expected)) as err:
            cc.bands(grid)
        assert str(err.value) == str(expected)

    def test_stable_linear_chain_bands_match_per_k(self):
        # below kappa_c the folded linear chain has regular blocks only
        # (bulk) or the rigid-translation zero pair at k = 0 (ring)
        assert_matches_per_k_oracle(linear_couplings(0.3, 64, Boundary.RING),
                                    ring_momenta(64))


class TestDiagonalizationCount:
    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        original = bloch.symplectic_diagonalize

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bloch, "symplectic_diagonalize", counted)
        return calls

    def test_ring_diagonalizes_only_the_self_paired_blocks(self, count):
        # k = 0 and the zone edge; the regular blocks go through one stack
        couplings(0.6, n=64).bands(ring_momenta(64))
        assert len(count) == 2

    def test_bulk_midpoint_grid_is_one_stack(self, count):
        couplings(0.6, n=32, boundary=Boundary.BULK).bands(
            reduced_zone_grid(64, include_edge=False))
        assert len(count) == 0


@pytest.mark.parametrize("n, boundary", [
    (16, Boundary.RING), (10, Boundary.RING), (32, Boundary.BULK),
], ids=["ring16", "ring10", "bulk"])
def test_k0_block_is_the_cell_table_of_k0_pair_sums(n, boundary):
    # the on-site blocks and the equilibrium condition read these sums, so
    # a k = 0 block (a grid of one) equal to their table has exact zero modes
    cfg = ChainConfig(kappa=0.6, n_ions=n, boundary=boundary)
    eq = solve_delta0(cfg)
    cc = CellCouplings(cfg, eq)
    even, odd = k0_pair_sums(cfg, eq.delta0)
    cells = np.empty((3, 2, 3, 2), dtype=complex)  # as the raw table holds it
    cells[:, 0, :, 0] = even
    cells[:, 1, :, 0] = odd
    cells[:, 1, :, 1] = even * SUBLATTICE_MIRROR
    cells[:, 0, :, 1] = odd * SUBLATTICE_MIRROR
    cells = cells.reshape(6, 6)
    assert np.array_equal(cc.raw_coupling(0.0)[0], cells)
    omega = cc.omega_bare
    expected = (cells / (2.0 * np.sqrt(np.outer(omega, omega)))).real
    assert np.array_equal(cc.block(0.0).g, expected)


def sorted_tracker(bands):
    """Reference branch tracker: one sorted() of the candidate pairs per k."""
    slots = np.zeros((len(bands.k), 6), dtype=int)
    prev_u = np.zeros((6, 6), dtype=complex)
    prev_v = np.zeros((6, 6), dtype=complex)
    seen = np.zeros(6, dtype=bool)
    warn_records = []
    for i, k in enumerate(bands.k):
        overlap = np.abs(prev_u.conj() @ bands.u[i].T - prev_v.conj() @ bands.v[i].T)
        row = np.full(6, -1)
        for neg, b, j in sorted((-overlap[b, j], b, j) for b in np.flatnonzero(seen)
                                for j in np.flatnonzero(bands.mask[i])):
            if row[b] < 0 and j not in row:
                row[b] = j
                if -neg < 0.5:
                    warn_records.append((float(k), int(b), float(-neg)))
        row[row < 0] = [j for j in range(6) if j not in row]
        tracked = bands.mask[i, row]
        prev_u[tracked] = bands.u[i, row[tracked]]
        prev_v[tracked] = bands.v[i, row[tracked]]
        seen |= tracked
        slots[i] = row
    return slots, warn_records


@pytest.mark.parametrize("kappa", [0.25, 0.5, 0.6, 0.75])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("case", ["ring64", "ring256", "ring1024", "bulk401"])
def test_branch_tracker_matches_sorted_greedy(kappa, alpha, case):
    if case == "bulk401":
        cc = couplings(kappa, alpha, n=32, boundary=Boundary.BULK)
        grid = reduced_zone_grid(401)
    else:
        n = int(case[4:])
        cc = couplings(kappa, alpha, n=n)
        grid = ring_momenta(n)
    bands = cc.bands(grid)
    slots, warn_records = _track_branches(bands)
    ref_slots, ref_warnings = sorted_tracker(bands)
    assert np.array_equal(slots, ref_slots)
    assert [(k, b) for k, b, _ in warn_records] == [(k, b) for k, b, _ in ref_warnings]
    assert warn_records == ref_warnings


@pytest.mark.parametrize("seed", range(5))
def test_branch_tracker_matches_sorted_greedy_on_scrambled_bands(seed):
    # the physical grids above never warn; random amplitudes give low
    # overlaps (warnings), exact ties (repeated modes) and zero-pair slots
    rng = np.random.default_rng(seed)
    n_k = 40
    u = rng.normal(size=(n_k, 6, 6)) + 1j * rng.normal(size=(n_k, 6, 6))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = 0.3 * (rng.normal(size=(n_k, 6, 6)) + 1j * rng.normal(size=(n_k, 6, 6)))
    u[::4, 1] = u[::4, 0]
    v[::4, 1] = v[::4, 0]
    mask = np.ones((n_k, 6), dtype=bool)
    mask[::5, 4:] = False
    u[~mask] = v[~mask] = 0.0
    bands = Bands(np.linspace(-1.5, 1.5, n_k), np.ones((n_k, 6)), mask, u, v, [])
    slots, warn_records = _track_branches(bands)
    ref_slots, ref_warnings = sorted_tracker(bands)
    assert warn_records
    assert np.array_equal(slots, ref_slots)
    assert warn_records == ref_warnings
