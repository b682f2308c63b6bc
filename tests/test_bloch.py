"""Polylogarithm, analytic dispersions, zigzag blocks and mode descriptors."""

import functools

import numpy as np
import pytest
from scipy.special import zeta

from ionphonon.bloch import (
    CELL_AXIS_MAP,
    CellCouplings,
    _cell_index,
    collectivities,
    coupling_f,
    critical_kappa,
    bare_critical_kappa,
    dispersion_linear,
    dispersion_zigzag,
    mixing_angles,
    mode_vectors_linear,
    reduced_zone_grid,
    ring_momenta,
    softening_kappa_c,
    verify_f_diagonality,
)
from ionphonon.chain import (
    SUBLATTICE_MIRROR,
    Boundary,
    ChainConfig,
    bare_frequencies,
    build_hessian,
    omega_from_hessian,
    pair_dy,
    pair_dyadic,
    pair_offsets,
    polylog,
    solve_delta0,
)
from ionphonon.errors import DynamicalInstabilityError, PhysicsError
from ionphonon.observables import PhononField
from ionphonon.symplectic import QuadraticForm, build_quadratic_form, symplectic_diagonalize
from oracles import zero_pair_axis

ZETA3 = float(zeta(3.0))
BULK_ZIGZAG = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.BULK)


class TestPolylog3:
    def test_zeta3_at_origin(self):
        assert polylog(3, 0.0) == ZETA3
        assert abs(polylog(3, 0.0) - 1.2020569) < 1e-7

    def test_alternating_value_at_pi(self):
        value = polylog(3, np.pi)
        assert value.imag == pytest.approx(0.0, abs=1e-13)
        assert value.real == pytest.approx(-0.90154, abs=5e-6)
        # eta(3) identity: Li3(-1) = -(3/4) zeta(3)
        assert value.real == pytest.approx(-0.75 * ZETA3, abs=1e-13)

    def test_quarter_turn_against_direct_series(self):
        # brute-force oracle: 1e7 series terms plus integral tail bound
        theta = np.pi / 2.0
        k = np.arange(1, 10_000_001, dtype=float)
        oracle = np.sum(np.exp(-1j * k * theta) / k**3)
        assert abs(np.sum(1.0 / k[-1] ** 2) / 2.0) < 1e-13
        assert abs(polylog(3, theta) - oracle) < 1e-10

    @pytest.mark.parametrize("s", range(3, 8))
    def test_random_angles_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-np.pi, np.pi, size=100):
            ref = complex(mpmath.polylog(s, mpmath.exp(-1j * theta)))
            assert abs(polylog(s, float(theta)) - ref) < 1e-12

    @pytest.mark.parametrize("s", range(3, 8))
    def test_zone_grid_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        theta = np.linspace(-np.pi, np.pi, 801)
        ref = np.array([complex(mpmath.polylog(s, mpmath.exp(-1j * mpmath.mpf(t))))
                        for t in theta])
        assert np.max(np.abs(polylog(s, theta) - ref)) < 4e-15

    def test_imaginary_part_bernoulli_closed_form(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(0.0, np.pi, size=25):
            closed = -(np.pi**2 * theta / 6.0 - np.pi * theta**2 / 4.0 + theta**3 / 12.0)
            assert polylog(3, theta).imag == pytest.approx(closed, abs=1e-12)
            assert polylog(3, -theta).imag == pytest.approx(-closed, abs=1e-12)

    def test_rejects_angles_outside_zone(self):
        with pytest.raises(ValueError):
            polylog(3, 3.5)
        with pytest.raises(ValueError):
            polylog(8, 0.5)


class TestCouplingF:
    def test_translational_sum_rule_at_k0(self):
        # f_x(0) = -Omega_x / 2 makes the axial branch gapless
        kappa = 0.3
        omega_x = np.sqrt(2.0 * kappa * ZETA3)
        assert coupling_f(0.0, "x", kappa, omega_x) == pytest.approx(-omega_x / 2.0)

    def test_matches_finite_lattice_sum_at_zone_edge(self):
        # oracle: the finite-N PBC lattice sum of the couplings at N = 2048
        kappa, n = 0.3, 2048
        omega_x = np.sqrt(2.0 * kappa * ZETA3)
        omega_y = np.sqrt(1.0 - kappa * ZETA3)
        dist = np.minimum(np.arange(1, n), n - np.arange(1, n)).astype(float)
        signs = (-1.0) ** np.arange(1, n)  # e^{-i pi l} on integers
        f_x_sum = np.sum(signs * (-kappa / dist**3)) / (2.0 * omega_x)
        f_y_sum = np.sum(signs * (0.5 * kappa / dist**3)) / (2.0 * omega_y)
        assert coupling_f(np.pi, "x", kappa, omega_x) == pytest.approx(f_x_sum, abs=1e-6)
        assert coupling_f(np.pi, "y", kappa, omega_y) == pytest.approx(f_y_sum, abs=1e-6)

    def test_transverse_to_axial_ratio(self):
        kappa = 0.4
        omega_x = np.sqrt(2.0 * kappa * ZETA3)
        omega_y = np.sqrt(1.0 - kappa * ZETA3)
        for k in (0.3, 1.1, 2.9):
            f_x = coupling_f(k, "x", kappa, omega_x)
            f_y = coupling_f(k, "y", kappa, omega_y)
            assert f_y == pytest.approx(-f_x * omega_x / (2.0 * omega_y), rel=1e-12)


class TestDispersionLinear:
    def test_axial_gapless_at_k0(self):
        assert dispersion_linear(0.0, "x", 0.3) == 0.0

    def test_transverse_trap_frequency_at_k0(self):
        for kappa in (0.1, 0.5, 0.8):
            assert dispersion_linear(0.0, "y", kappa) == pytest.approx(1.0, abs=1e-13)

    def test_zone_edge_softens_exactly_at_kappa_c(self):
        kc = critical_kappa()
        assert dispersion_linear(np.pi, "y", kc) == pytest.approx(0.0, abs=1e-7)

    def test_imaginary_frequency_error_names_momentum(self):
        with pytest.raises(DynamicalInstabilityError) as err:
            dispersion_linear(np.pi, "y", 0.6)
        assert "k =" in str(err.value)

    def test_transverse_monotone_in_k_below_transition(self):
        # open question probe: omega_y decreases monotonically towards the
        # zone edge for every kappa below the transition we sample
        k = np.linspace(0.0, np.pi, 400)
        for kappa in (0.05, 0.2, 0.4, 0.47):
            omega = dispersion_linear(k, "y", kappa)
            assert np.all(np.diff(omega) < 1e-12)


class TestModeVectorsLinear:
    def test_sigma_normalization(self):
        for k in (0.4, 1.7, 3.0):
            u, v = mode_vectors_linear(k, "y", 0.35)
            assert u * u - v * v == pytest.approx(1.0, rel=1e-12)

    def test_decoupled_limit(self):
        u, v = mode_vectors_linear(1.0, "y", 1e-12)
        assert u == pytest.approx(1.0, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_matches_generic_diagonalizer(self):
        kappa, k = 0.4, np.pi
        omega_y = np.sqrt(1.0 - kappa * ZETA3)
        f = coupling_f(k, "y", kappa, omega_y)
        form = QuadraticForm(np.array([[f]]), np.array([omega_y]))
        mode = symplectic_diagonalize(form).modes[0]
        u, v = mode_vectors_linear(k, "y", kappa)
        assert u == pytest.approx(mode.u[0].real, rel=1e-12)
        assert v == pytest.approx(mode.v[0].real, rel=1e-12)

    def test_zero_mode_rejected(self):
        with pytest.raises(PhysicsError):
            mode_vectors_linear(0.0, "x", 0.3)


class TestCriticalKappa:
    def test_value(self):
        assert critical_kappa() == pytest.approx(0.4754, abs=1e-4)
        assert critical_kappa() == pytest.approx(4.0 / (7.0 * ZETA3), rel=1e-15)

    def test_equals_root_of_band_bottom(self):
        kc = critical_kappa()
        gap = ZETA3 - polylog(3, np.pi).real
        assert 1.0 - kc * gap == pytest.approx(0.0, abs=1e-14)

    def test_softening_scan_agrees(self):
        assert softening_kappa_c() == pytest.approx(critical_kappa(), rel=1e-14)

    def test_bare_bound_ratio(self):
        assert critical_kappa() / bare_critical_kappa() == pytest.approx(4.0 / 7.0, abs=1e-15)


class TestZigzagBlocks:
    def test_folded_linear_limit(self):
        # delta0 -> 0+: block spectra must reproduce the folded linear-chain
        # dispersions at k and k + pi/d
        kappa = 0.3
        cfg = ChainConfig(kappa=kappa, n_ions=64, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        assert eq.delta0 == 0.0
        for k in (0.31, 0.9, 1.4):
            block = CellCouplings(cfg, eq).block(k)
            nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP,
                                        p_norm=cfg.n_ions)
            got = np.sort(nf.frequencies())
            folded = sorted(
                dispersion_linear(kk, nu, kappa)
                for nu in "xyz" for kk in (k, k - np.pi)
            )
            assert np.max(np.abs(got - np.array(folded))) < 1e-9

    def test_two_zero_pairs_at_k0_in_zigzag(self):
        cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.BULK)
        block = CellCouplings(cfg, solve_delta0(cfg)).block(0.0)
        nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=32)
        assert len(nf.modes) == 4
        assert sorted(zp.label for zp in nf.zero_pairs) == ["longitudinal", "radial"]
        for zp in nf.zero_pairs:
            axis = zero_pair_axis(zp, CELL_AXIS_MAP)
            assert axis is not None and (zp.label == "longitudinal") == (axis == 0)

    def test_block_invariants(self):
        cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        for k in (0.0, 0.7, -1.2):
            g = CellCouplings(cfg, eq).block(k).g
            assert np.max(np.abs(g - g.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(g)))
            z_rows, xy_rows = [4, 5], [0, 1, 2, 3]
            assert np.max(np.abs(g[np.ix_(z_rows, xy_rows)])) < 1e-14

    def test_ring_blocks_match_full_space_spectrum(self):
        cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=Boundary.RING)
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        nf_full = symplectic_diagonalize(
            build_quadratic_form(hess, omega_from_hessian(hess)),
            axis_map=hess.axis_map, p_norm=16,
        )
        full = np.sort(np.concatenate([nf_full.frequencies(),
                                       np.zeros(len(nf_full.zero_pairs))]))
        couplings = CellCouplings(cfg, eq)
        freqs = []
        for k in ring_momenta(cfg.n_ions):
            nf = symplectic_diagonalize(couplings.block(float(k)),
                                        axis_map=CELL_AXIS_MAP, p_norm=16)
            freqs.extend([m.omega for m in nf.modes])
            freqs.extend([0.0] * len(nf.zero_pairs))
        assert np.max(np.abs(np.sort(freqs) - full)) < 1e-10

    def test_ring_rejects_off_grid_momentum(self):
        cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=Boundary.RING)
        couplings = CellCouplings(cfg, solve_delta0(cfg))
        with pytest.raises(ValueError):
            couplings.block(0.123)

    @pytest.mark.parametrize("cfg, k", [
        (ChainConfig(kappa=0.62, n_ions=10), ring_momenta(10)),
        (ChainConfig(kappa=0.6, n_ions=64), ring_momenta(64)),
        (BULK_ZIGZAG, reduced_zone_grid(7, include_edge=True)),
        (BULK_ZIGZAG, reduced_zone_grid(8, include_edge=True)),
        (BULK_ZIGZAG, reduced_zone_grid(7, include_edge=False)),
        (BULK_ZIGZAG, reduced_zone_grid(8, include_edge=False)),
        (BULK_ZIGZAG, 0.123),
        (BULK_ZIGZAG, -1.4),
    ])
    def test_raw_coupling_matches_direct_sum_over_every_partner(self, cfg, k):
        # oracle without any fold: the partner at offset m of column ion s'
        # is ion s of cell p, 2p = m + s' - s, and adds F e^{-2ikp}; in bulk
        # every partner, as mpmath_bloch_sums adds them
        eq = solve_delta0(cfg)
        k = np.atleast_1d(k)
        direct = np.zeros((len(k), 3, 2, 3, 2), dtype=complex)
        if cfg.boundary is Boundary.BULK:
            for i in range(len(k)):
                even, odd = mpmath_bloch_sums(cfg.kappa, eq.delta0, float(k[i]))
                direct[i, :, 0, :, 0] = even
                direct[i, :, 1, :, 0] = odd * np.exp(1j * k[i])
                direct[i, :, 1, :, 1] = even * SUBLATTICE_MIRROR
                direct[i, :, 0, :, 1] = odd * SUBLATTICE_MIRROR * np.exp(-1j * k[i])
        else:
            m, w = pair_offsets(cfg)
            blocks = pair_dyadic(m, pair_dy(m, eq.delta0), cfg.kappa * w)
            for sp in (0, 1):
                seen = blocks * SUBLATTICE_MIRROR if sp else blocks
                s = (m + sp) % 2
                p = (m + sp - s) // 2
                for i in range(len(k)):
                    phase = np.exp(-2j * k[i] * p)
                    for row in (0, 1):
                        sel = s == row
                        direct[i, :, row, :, sp] = np.tensordot(phase[sel], seen[sel], axes=1)
        raw = CellCouplings(cfg, eq).raw_coupling(k if len(k) > 1 else k[0])
        assert raw.shape == (len(k), 6, 6)
        assert np.max(np.abs(raw - direct.reshape(-1, 6, 6))) < 1e-13


@functools.cache
def mpmath_bloch_sums(kappa, delta0, k):
    """sum_m B(m) e^{-ikm} of the bulk pair blocks over the even and the odd m.

    Every m carries the power law kappa diag(-1, 1/2, 1/2) |m|^-3, whose
    sums are mpmath polylogarithms: Re Li3(e^{-2ik}) / 4 over the even m,
    2 Re Li3(e^{-ik}) less that over the odd m.  The rest of each odd-m
    block, below 3 kappa c |m|^-5 (c = 4 delta0^2), is summed directly over
    the pairs at +-m up to the |m| past which it adds below 1e-18.
    (mpmath's nsum of these slowly oscillating sums stops early at 20
    digits: off by 5.6e-11 at k = 0.224.)
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        even = float(mpmath.re(mpmath.polylog(3, mpmath.exp(-2j * k))) / 4)
        odd = float(2 * mpmath.re(mpmath.polylog(3, mpmath.exp(-1j * k)))) - even
    power = np.diag([-1.0, 0.5, 0.5]) * kappa
    top = (0.75 * kappa * 4.0 * delta0**2 / 1e-18) ** 0.25
    m = np.arange(1.0, max(top, 9.0) + 2.0, 2.0)
    rest = pair_dyadic(m, pair_dy(m, delta0), kappa) - power / m[:, None, None] ** 3
    diag = np.eye(3)
    rest = np.tensordot(2.0 * np.cos(k * m), rest * diag, axes=1) \
        + np.tensordot(-2j * np.sin(k * m), rest * (1.0 - diag), axes=1)
    return power * even, power * odd + rest


class TestDispersionZigzag:
    def test_linear_side_pairwise_degenerate_at_edge(self):
        cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.BULK)
        grid = np.array([-np.pi / 2.0, 0.3])
        bands, _ = dispersion_zigzag(grid, cfg)
        edge = np.sort(bands.omega[0])
        assert np.max(np.abs(edge[0::2] - edge[1::2])) < 1e-10

    def test_gapless_linear_branch_in_zigzag(self):
        cfg = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        k1, k2 = 0.004, 0.008
        bands, _ = dispersion_zigzag(np.array([k1, k2]), cfg, eq)
        low1, low2 = bands.omega[0].min(), bands.omega[1].min()
        assert low2 / low1 == pytest.approx(k2 / k1, rel=2e-3)

    def test_k0_frequencies_match_full_space_oracle(self):
        cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        nf_full = symplectic_diagonalize(
            build_quadratic_form(hess, omega_from_hessian(hess)),
            axis_map=hess.axis_map, p_norm=32,
        )
        full = np.sort(nf_full.frequencies())
        block = CellCouplings(cfg, eq).block(0.0)
        nf0 = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=32)
        got = np.sort(nf0.frequencies())
        # the four k=0 nonzero modes are a subset of the full spectrum
        for omega in got:
            assert np.min(np.abs(full - omega)) < 1e-8

    def test_branch_tracking_is_continuous(self):
        cfg = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.BULK)
        bands, warnings = dispersion_zigzag(reduced_zone_grid(81), cfg)
        jumps = np.abs(np.diff(bands.omega, axis=0))
        assert np.nanmax(jumps) < 0.12  # continuous branches, no swaps
        assert not warnings

    def test_zero_slots_at_k0(self):
        cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.RING)
        eq = solve_delta0(cfg)
        bands, _ = dispersion_zigzag(ring_momenta(cfg.n_ions), cfg, eq)
        i0 = int(np.argmin(np.abs(bands.k)))
        assert (~bands.mask[i0]).sum() == 2
        assert len(bands.zero_pairs) == 2

    @pytest.mark.parametrize("kappa", [0.3, 0.6])
    def test_same_band_core_as_phonon_field(self, kappa):
        # the dispersion tracks branches over the very modes the observables
        # sum over: identical frequencies and zero slots, not merely close
        cfg = ChainConfig(kappa=kappa, n_ions=64, boundary=Boundary.RING)
        bands, _ = dispersion_zigzag(ring_momenta(cfg.n_ions), cfg)
        field = PhononField(cfg)
        assert np.array_equal(np.sort(bands.omega, axis=1),
                              np.sort(field.omega, axis=1))
        assert np.array_equal((~bands.mask).sum(axis=1), (~field.mask).sum(axis=1))

    @pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
    def test_minus_k_is_the_mirror_of_plus_k(self, boundary):
        # time reversal: one diagonalization per +-k pair, so the -k
        # spectrum equals the +k one exactly
        cfg = ChainConfig(kappa=0.6, alpha=1.5, n_ions=64, boundary=boundary)
        grid = ring_momenta(64) if boundary is Boundary.RING else reduced_zone_grid(33)
        bands, _ = dispersion_zigzag(grid, cfg)
        pairs = [(i, int(np.argmin(np.abs(grid + k)))) for i, k in enumerate(grid)
                 if 1e-12 < k < np.pi / 2.0]
        assert pairs
        for i, j in pairs:
            assert grid[j] == pytest.approx(-grid[i], abs=1e-12)
            assert np.array_equal(np.sort(bands.omega[i]), np.sort(bands.omega[j]))


class TestModeDescriptors:
    def test_mixing_angle_pinned_in_linear_phase(self):
        cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.BULK)
        block = CellCouplings(cfg, solve_delta0(cfg)).block(0.9)
        nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=64)
        theta = mixing_angles(nf.u, nf.v)
        angles = np.sort(theta[~np.isnan(theta)])
        # two x-branches pinned to 0, two y-branches pinned to pi/2
        assert np.allclose(angles[:2], 0.0, atol=1e-12)
        assert np.allclose(angles[2:], np.pi / 2.0, atol=1e-12)

    def test_out_of_plane_sentinel(self):
        cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.BULK)
        block = CellCouplings(cfg, solve_delta0(cfg)).block(0.9)
        nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=64)
        nan_count = np.count_nonzero(np.isnan(mixing_angles(nf.u, nf.v)))
        assert nan_count == 2  # the two pure-z branches

    def test_paired_in_plane_angles_sum_to_quarter_turn(self):
        cfg = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        for k in (0.35, 0.9, 1.3):
            block = CellCouplings(cfg, eq).block(k)
            nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=64)
            theta = mixing_angles(nf.u, nf.v)
            angles = np.sort(theta[~np.isnan(theta)])
            assert len(angles) == 4
            assert angles[0] + angles[3] == pytest.approx(np.pi / 2.0, abs=1e-9)
            assert angles[1] + angles[2] == pytest.approx(np.pi / 2.0, abs=1e-9)

    def test_collectivity_limits(self):
        # decoupled limit: the trap-frequency (transverse) modes become pure
        # particle excitations; the axial sector is singular as kappa -> 0
        # (its bare frequency collapses with the coupling)
        cfg = ChainConfig(kappa=1e-10, n_ions=64, boundary=Boundary.BULK)
        block = CellCouplings(cfg, solve_delta0(cfg)).block(0.9)
        nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=64)
        gapped = nf.omega > 0.5
        assert np.count_nonzero(gapped) == 4
        assert np.all(collectivities(nf.u, nf.v)[gapped] < 1e-5)

    def test_collectivity_approaches_one_on_gapless_branch(self):
        cfg = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        block = CellCouplings(cfg, eq).block(2e-3)
        nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=64)
        lowest = np.argmin(nf.omega)
        assert collectivities(nf.u, nf.v)[lowest] > 0.95

    def test_norm_identity(self):
        cfg = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.BULK)
        block = CellCouplings(cfg, solve_delta0(cfg)).block(0.5)
        nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=64)
        for m, c in zip(nf.modes, collectivities(nf.u, nf.v)):
            norm_u = float(np.linalg.norm(m.u) ** 2)
            assert norm_u == pytest.approx(1.0 / (1.0 - c * c), rel=1e-10)


class TestZoneEdgeLoops:
    def test_branches_close_into_loops(self):
        cfg = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.RING)
        eq = solve_delta0(cfg)
        couplings = CellCouplings(cfg, eq)
        edge = -np.pi / 2.0
        nf = symplectic_diagonalize(couplings.block(edge),
                                    axis_map=CELL_AXIS_MAP, p_norm=64)
        omegas = np.sort([m.omega for m in nf.modes])
        assert np.max(np.abs(omegas[0::2] - omegas[1::2])) < 1e-8
        # paired branches carry equal descriptors at the edge
        order = np.argsort(nf.omega, kind="stable")
        colls = collectivities(nf.u, nf.v)[order]
        angles = mixing_angles(nf.u, nf.v)[order]
        for ca, cb, ta, tb in zip(colls[0::2], colls[1::2], angles[0::2], angles[1::2]):
            assert ca == pytest.approx(cb, abs=1e-8)
            if np.isnan(ta) or np.isnan(tb):
                assert np.isnan(ta) and np.isnan(tb)
            else:
                assert ta == pytest.approx(tb, abs=1e-6)


class TestFDiagonality:
    def test_coulomb_kernel(self):
        assert verify_f_diagonality(16, lambda p: 1.0 / p**3) < 1e-12

    def test_random_symmetric_kernels(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            n = 8
            half = rng.normal(size=n // 2)
            kernel = np.zeros(n)
            kernel[1 : n // 2 + 1] = np.concatenate([half[:-1], [half[-1]]])
            kernel[n // 2 :] = kernel[1 : n // 2 + 1][::-1]
            kernel[0] = 0.0
            assert verify_f_diagonality(n, kernel) < 1e-12

    def test_rejects_odd_n_and_bad_kernel(self):
        with pytest.raises(ValueError):
            verify_f_diagonality(7, lambda p: 1.0 / p)
        with pytest.raises(ValueError):
            verify_f_diagonality(8, np.arange(8.0))


def test_bulk_lattice_sums_certify_their_tail():
    # the certificate is the remainder's tail past M plus the rounding of the
    # split into power laws and remainder, which grows as delta0^4: it holds
    # the cell sums' true error at kappa = 20 (delta0 = 2.24) and passes the
    # budget there; at kappa = 80 (delta0 = 4.47) it exceeds the budget
    from ionphonon.chain import (
        BULK_SUM_BUDGET, bulk_sum_bound, fold_pair_blocks, half_pair_blocks, power_law_sums)
    from ionphonon.errors import ConvergenceError

    cfg = ChainConfig(kappa=20.0, n_ions=8, boundary=Boundary.BULK)
    delta0 = solve_delta0(cfg).delta0
    bound = bulk_sum_bound(cfg, delta0)
    assert bound < BULK_SUM_BUDGET
    for k in (0.0, 0.7):
        sums = fold_pair_blocks(*half_pair_blocks(cfg, delta0), 2, twist=k) \
            + power_law_sums(cfg, delta0, k)[0]
        assert np.max(np.abs(sums - mpmath_bloch_sums(cfg.kappa, delta0, k))) <= bound
    cfg = ChainConfig(kappa=80.0, n_ions=8, boundary=Boundary.BULK)
    eq = solve_delta0(cfg)
    assert bulk_sum_bound(cfg, eq.delta0) > BULK_SUM_BUDGET
    with pytest.raises(ConvergenceError, match="certified to 2.48e-08"):
        CellCouplings(cfg, eq)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the folded on-site sum behind bare_frequencies drops the "
    "m = 0 (mod N) self-images that CellCouplings keeps, so bulk zigzag "
    "Omega depends on N (1.6e-4 at N = 16, 2.5e-6 at N = 64); the fix must "
    "re-record the benchmark's bulk reference outputs"))
def test_bulk_bare_frequencies_match_cell_onsite():
    for n in (16, 64):
        cfg = ChainConfig(kappa=0.55, n_ions=n, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        cell = CellCouplings(cfg, eq).omega_bare[[_cell_index(0, a) for a in range(3)]]
        assert np.max(np.abs(bare_frequencies(cfg, eq) - cell)) < 1e-9


def test_anisotropic_out_of_plane_dispersion():
    # the z branch carries the trap anisotropy: omega_z(0) = sqrt(alpha)
    alpha = 1.44
    assert dispersion_linear(0.0, "z", 0.3, alpha) == pytest.approx(np.sqrt(alpha))
    k = np.linspace(0.0, np.pi, 50)
    shifted = dispersion_linear(k, "z", 0.3, alpha) ** 2 - (alpha - 1.0)
    reference = dispersion_linear(k, "y", 0.3) ** 2
    assert np.max(np.abs(shifted - reference)) < 1e-13


def test_mixing_angles_pinned_at_zone_center_in_zigzag():
    # time-reversal plus reflection pin the k = 0 angles to 0 or pi/2 even
    # after the transition couples the in-plane motion at generic k
    cfg = ChainConfig(kappa=0.55, n_ions=32, boundary=Boundary.BULK)
    eq = solve_delta0(cfg)
    block = CellCouplings(cfg, eq).block(0.0)
    nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=32)
    for theta in mixing_angles(nf.u, nf.v):
        if np.isnan(theta):
            continue
        assert min(abs(theta), abs(theta - np.pi / 2.0)) < 1e-9


@pytest.mark.parametrize("n", [6, 10])
def test_antipodal_parity_rings_consistent(n):
    # N = 2 mod 4 puts the antipodal pair on opposite sublattices, where the
    # minimal-image direction ambiguity must be split symmetrically; the cell
    # description and the full-space matrix have to share that convention
    cfg = ChainConfig(kappa=0.62, n_ions=n, boundary=Boundary.RING)
    eq = solve_delta0(cfg)
    hess = build_hessian(cfg, eq)
    nf = symplectic_diagonalize(
        build_quadratic_form(hess, omega_from_hessian(hess)),
        axis_map=hess.axis_map, p_norm=n,
    )
    full = np.sort(np.concatenate([nf.frequencies(),
                                   np.zeros(len(nf.zero_pairs))]))
    couplings = CellCouplings(cfg, eq)
    freqs = []
    for k in ring_momenta(cfg.n_ions):
        nfk = symplectic_diagonalize(couplings.block(float(k)),
                                     axis_map=CELL_AXIS_MAP, p_norm=n)
        freqs.extend([m.omega for m in nfk.modes])
        freqs.extend([0.0] * len(nfk.zero_pairs))
    assert np.max(np.abs(np.sort(freqs) - full)) < 1e-10
