"""Chain geometry, equilibrium and Hessian construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import zeta

from ionphonon import chain
from ionphonon.chain import (
    Boundary,
    ChainConfig,
    bare_frequencies,
    build_hessian,
    critical_kappa_classical,
    equilibrium_positions,
    equilibrium_residual,
    even_bernoulli,
    omega_from_hessian,
    pair_offsets,
    solve_delta0,
    zigzag_root_gap,
)
from ionphonon.bloch import critical_kappa, dispersion_zigzag
from ionphonon.errors import (
    BareInstabilityError,
    BracketingError,
    ConvergenceError,
    DynamicalInstabilityError,
)
from oracles import classical_potential

ZETA3 = float(zeta(3.0))
KAPPA_C = 4.0 / (7.0 * ZETA3)

# couplings and anisotropies of the benchmark's ring and bulk catalogues
CATALOGUE_KAPPAS = (0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75)
CATALOGUE_ALPHAS = (1.0, 1.5)


def bulk(kappa, **kw):
    return ChainConfig(kappa=kappa, boundary=Boundary.BULK, **kw)


def ring(kappa, n, **kw):
    return ChainConfig(kappa=kappa, n_ions=n, boundary=Boundary.RING, **kw)


def mpmath_pair_entries(mpmath, kappa, delta, m):
    """(xx + i yy, zz + i xy) of the bulk pair block at offset m, in mpmath."""
    dy = -2 * mpmath.mpf(delta) if m % 2 else mpmath.mpf(0)
    r2 = m * m + dy * dy
    pref = -kappa / (2 * r2 * r2 * mpmath.sqrt(r2))
    return (mpmath.mpc(pref * (2 * m * m - dy * dy), pref * (2 * dy * dy - m * m)),
            mpmath.mpc(-pref * r2, 3 * pref * m * dy))


def mpmath_site_fold(kappa, delta, n):
    """sum of the bulk pair blocks over each class m = o (mod n), o = 0..n-1.

    Two mpmath nsum calls per class over every partner; class n - o mirrors
    class o (xy odd in m).  Class 0 is left zero.
    """
    mpmath = pytest.importorskip("mpmath")
    folded = np.zeros((n, 3, 3))
    with mpmath.workdps(20):
        for o in range(1, n // 2 + 1):
            a, b = (mpmath.nsum(lambda t, i=i: mpmath_pair_entries(
                mpmath, kappa, delta, int(o + n * t))[i], [-mpmath.inf, mpmath.inf])
                for i in (0, 1))
            block = [[float(a.real), float(b.imag), 0.0],
                     [float(b.imag), float(a.imag), 0.0], [0.0, 0.0, float(b.real)]]
            folded[o] = block
            folded[n - o] = np.array(block) * [[1, -1, 1], [-1, 1, 1], [1, 1, 1]]
    return folded


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChainConfig(kappa=-0.1)
        with pytest.raises(ValueError):
            ChainConfig(kappa=0.3, alpha=0.0)
        with pytest.raises(ValueError):
            ChainConfig(kappa=0.3, n_ions=7)
        with pytest.raises(ValueError):
            ChainConfig(kappa=0.3, n_ions=2)  # unit-cell logic needs N >= 4

    @pytest.mark.parametrize("field", ["kappa", "alpha", "lam"])
    def test_rejects_infinite_parameters(self, field):
        name = "lambda" if field == "lam" else field
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            ChainConfig(**{"kappa": 0.3, field: np.inf})


class TestClassicalPotential:
    def test_bulk_matches_brute_force_pair_sum(self):
        # oracle: regularized half-infinite sum to j = 1e6 with tail bound
        # kappa * delta^2 / (2 j^2); independent of the production truncation
        kappa, delta = 0.6, 0.3
        j = np.arange(1, 1_000_001, dtype=float)
        odd = 2.0 * j - 1.0
        oracle = delta**2 + kappa * np.sum(
            1.0 / np.sqrt(odd**2 + 4.0 * delta**2) - 1.0 / odd
        )
        tail = kappa * delta**2 / (2.0 * 1_000_000.0**2)
        assert tail < 1e-10
        value = classical_potential(delta, bulk(kappa))
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_ring_four_ions_explicit_geometry(self):
        # per ion: two neighbors at distance 1 plus the antipodal pair at
        # distance 2 counted with weight 1/2 -> (kappa/2)(1 + 1 + 1/2)
        value = classical_potential(0.0, ring(0.5, 4))
        assert value == pytest.approx(0.5 * (1.0 + 1.0 + 0.5) * 0.5, abs=1e-15)

    def test_trap_term_vanishes_at_zero_displacement(self):
        for kappa in (0.1, 0.7):
            cfg = ring(kappa, 8)
            coulomb_only = 0.5 * kappa * sum(
                1.0 / min(o, 8 - o) for o in range(1, 8)
            )
            assert classical_potential(0.0, cfg) == pytest.approx(coulomb_only)
        assert classical_potential(0.0, bulk(0.5)) == 0.0

    def test_rejects_negative_displacement(self):
        with pytest.raises(ValueError):
            classical_potential(-0.1, bulk(0.5))

    @pytest.mark.parametrize("cfg", [ring(0.6, 10), ring(0.6, 16), bulk(0.6)],
                             ids=["ring10", "ring16", "bulk"])
    def test_slope_matches_zigzag_root_gap(self, cfg):
        # dV/d(delta) = 2 delta G(delta) holds only if the potential and the
        # equilibrium condition sum over the same pairs; the central
        # difference is good to ~2e-10 at this step
        h = 1e-5
        for delta in (0.1, 0.3):
            slope = (classical_potential(delta + h, cfg)
                     - classical_potential(delta - h, cfg)) / (2.0 * h)
            assert slope == pytest.approx(2.0 * delta * zigzag_root_gap(delta, cfg),
                                          abs=1e-9)


class TestSolveDelta0:
    def test_zero_below_transition(self):
        assert solve_delta0(bulk(0.3)).delta0 == 0.0

    def test_zero_at_critical_coupling(self):
        assert solve_delta0(bulk(KAPPA_C)).delta0 == 0.0

    @staticmethod
    def _minimize_potential(cfg, guess):
        # golden section bottoms out at sqrt(eps); polish the vertex with a
        # three-point parabola so the oracle itself is good to ~1e-10
        res = minimize_scalar(
            lambda d: classical_potential(d, cfg),
            bracket=(1e-4, max(guess, 0.05), 2.0),
            method="golden", options={"xtol": 1e-9},
        )
        h = 3e-5
        v_minus = classical_potential(res.x - h, cfg)
        v_0 = classical_potential(res.x, cfg)
        v_plus = classical_potential(res.x + h, cfg)
        return res.x - 0.5 * h * (v_plus - v_minus) / (v_plus - 2 * v_0 + v_minus)

    def test_agrees_with_scalar_minimization(self):
        cfg = bulk(0.6)
        eq = solve_delta0(cfg)
        assert eq.delta0 > 0.0
        assert eq.delta0 == pytest.approx(self._minimize_potential(cfg, 0.2), abs=1e-8)

    def test_minimizer_consistency_random_couplings(self):
        rng = np.random.default_rng(42)
        for kappa in rng.uniform(KAPPA_C + 1e-3, 1.2, size=20):
            cfg = bulk(float(kappa))
            eq = solve_delta0(cfg)
            oracle = self._minimize_potential(cfg, eq.delta0)
            assert eq.delta0 == pytest.approx(oracle, abs=1e-8)

    def test_positions_follow_staggered_pattern(self):
        cfg = ring(0.6, 8)
        eq = solve_delta0(cfg)
        expected = equilibrium_positions(cfg, eq.delta0)
        assert np.array_equal(eq.positions, expected)
        assert np.all(eq.positions[::2, 1] == eq.delta0)
        assert np.all(eq.positions[1::2, 1] == -eq.delta0)

    def test_bracketing_failure_reports_interval(self):
        with pytest.raises(BracketingError) as err:
            solve_delta0(bulk(25000.0))
        assert err.value.interval is not None

    @pytest.mark.parametrize("alpha", CATALOGUE_ALPHAS)
    @pytest.mark.parametrize("kappa", CATALOGUE_KAPPAS)
    @pytest.mark.parametrize("n", [64, 256, 1024, "bulk"])
    def test_root_is_scipy_brentq_to_the_bit(self, n, kappa, alpha):
        cfg = bulk(kappa, alpha=alpha) if n == "bulk" else ring(kappa, n, alpha=alpha)
        delta0 = solve_delta0(cfg).delta0
        if zigzag_root_gap(0.0, cfg) >= 0.0:
            assert delta0 == 0.0
            return
        lo, hi = 0.0, 1.0  # the bracket solve_delta0 grows
        while zigzag_root_gap(hi, cfg) <= 0.0:
            lo, hi = hi, 2.0 * hi
        assert delta0 == brentq(zigzag_root_gap, lo, hi, args=(cfg,),
                                xtol=1e-15, rtol=8.9e-16)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: np.cos(x) - x, 0.0, 1.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: np.tanh(40.0 * (x - 0.3)) + 1e-3, -1.0, 2.0),
        (lambda x: x * x - 2.0, 0.0, 1e3),
        # near-triple roots: steps rejected for bisection
        (lambda x: (x - 0.3) ** 3 + 1e-6 * (x - 0.3), -1.0, 4.0),
        (lambda x: (x - 0.3) ** 3 + 1e-8 * (x - 0.3), -1.0, 4.0),
        (lambda x: np.arctan(x - 0.3) ** 3 + 1e-6 * (x - 0.3), -10.0, 20.0),
    ], ids=["cos", "cubic", "steep", "wide", "triple-6", "triple-8", "arctan"])
    def test_brent_port_takes_brentq_steps(self, f, lo, hi):
        ref = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        assert chain._brent_root(f, lo, hi) == ref

    def test_brent_port_takes_brentq_steps_on_random_cubics(self):
        rng = np.random.default_rng(0)
        compared = 0
        for c in rng.normal(size=(400, 4)):
            def f(x, c=c):
                return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

            if f(-2.0) * f(2.0) < 0.0:
                ref = brentq(f, -2.0, 2.0, xtol=1e-15, rtol=8.9e-16)
                assert chain._brent_root(f, -2.0, 2.0) == ref
                compared += 1
        assert compared > 100

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_brent_port_fails_where_brentq_fails(self, shift):
        # an exact triple root exhausts the 100 steps in both
        def f(x):
            return (x - shift) ** 3

        last, info = brentq(f, -1.0, 2.0, xtol=1e-15, rtol=8.9e-16,
                            full_output=True, disp=False)
        assert not info.converged
        with pytest.raises(ConvergenceError, match=f"last iterate {last!r}$"):
            chain._brent_root(f, -1.0, 2.0)

    def test_brent_port_needs_a_sign_change(self):
        with pytest.raises(BracketingError) as err:
            chain._brent_root(lambda x: x * x + 1.0, -1.0, 1.0)
        assert err.value.interval == (-1.0, 1.0)
        assert chain._brent_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("cfg", [bulk(0.3), bulk(0.6, alpha=1.5, n_ions=16)])
    def test_bulk_critical_coupling_is_exact(self, cfg):
        # every odd offset summed: 1 / sum_m |m|^-3 = 4 / (7 zeta(3)), which
        # the truncated sums missed by 2.4e-11 relative
        exact = critical_kappa()
        assert abs(critical_kappa_classical(cfg) - exact) <= 2 * np.spacing(exact)

    @pytest.mark.parametrize("kappa", [0.55, 0.6, 0.75])
    def test_bulk_root_zeroes_the_sum_over_every_odd_offset(self, kappa):
        # G(delta) = 1 - kappa sum over every odd m of (m^2 + 4 delta^2)^-3/2,
        # summed by mpmath; one Newton step from delta0 moves it below 1e-13
        mpmath = pytest.importorskip("mpmath")
        delta0 = solve_delta0(bulk(kappa)).delta0
        with mpmath.workdps(25):
            c = 4 * mpmath.mpf(delta0) ** 2
            gap = 1 - 2 * kappa * mpmath.nsum(
                lambda j: ((2 * j + 1) ** 2 + c) ** -1.5, [0, mpmath.inf])
            slope = 24 * kappa * mpmath.mpf(delta0) * mpmath.nsum(
                lambda j: ((2 * j + 1) ** 2 + c) ** -2.5, [0, mpmath.inf])
        assert abs(gap) <= 1e-14
        assert abs(float(gap / slope)) <= 1e-13

    def test_ring_critical_coupling_approaches_bulk(self):
        kc_ring = critical_kappa_classical(ring(0.3, 64))
        assert kc_ring == pytest.approx(KAPPA_C, abs=2e-4)

    @pytest.mark.parametrize("make", [lambda k: ring(k, 64, alpha=0.5),
                                      lambda k: bulk(k, n_ions=64, alpha=0.5)],
                             ids=["ring", "bulk"])
    def test_z_buckling_below_alpha_one_is_named(self, make):
        # alpha < 1 softens the z zone-edge mode (folded to k = 0 of the
        # cell) at alpha * kappa_c, before the y zigzag forms
        threshold = 0.5 * critical_kappa_classical(make(0.3))
        below = make(0.99 * threshold)
        assert solve_delta0(below).delta0 == 0.0
        bands, _ = dispersion_zigzag(np.array([0.0]), below)
        soft = np.sqrt(0.5 * 0.01)
        assert np.min(np.abs(bands.omega[0] - soft)) < 1e-8 * soft
        with pytest.raises(DynamicalInstabilityError, match="buckles along z") as err:
            solve_delta0(make(1.01 * threshold))
        assert f"{threshold:.6g}" in str(err.value)
        (freq,) = err.value.frequencies
        assert freq.real == 0.0 and freq.imag == pytest.approx(soft, rel=1e-8)


class TestBareFrequencies:
    def test_isolated_ion_limit(self):
        cfg = bulk(1e-12)
        omegas = bare_frequencies(cfg, solve_delta0(cfg))
        assert omegas[1] == pytest.approx(1.0, abs=1e-11)
        assert omegas[2] == pytest.approx(1.0, abs=1e-11)

    def test_axial_frequency_against_direct_series(self):
        # oracle: Omega_x^2 = (kappa/2) * sum_n 4/n^3 summed directly
        n = np.arange(1, 3_000_000, dtype=float)
        series = np.sum(4.0 / n**3) + 2.0 / 3_000_000.0**2  # integral tail
        kappa = 0.2
        cfg = bulk(kappa)
        omegas = bare_frequencies(cfg, solve_delta0(cfg))
        assert omegas[0] == pytest.approx(np.sqrt(0.5 * kappa * series), abs=1e-10)
        assert omegas[0] == pytest.approx(0.69341, abs=5e-6)

    def test_transverse_frequency_against_direct_series(self):
        n = np.arange(1, 3_000_000, dtype=float)
        series = np.sum(2.0 / n**3) + 1.0 / 3_000_000.0**2
        cfg = bulk(0.2)
        omegas = bare_frequencies(cfg, solve_delta0(cfg))
        assert omegas[1] == pytest.approx(np.sqrt(1.0 - 0.5 * 0.2 * series), abs=1e-10)
        assert omegas[1] == pytest.approx(0.87154, abs=1e-5)

    def test_imaginary_frequency_beyond_single_site_bound(self):
        cfg = bulk(1.0 / ZETA3 + 1e-6)
        eq = solve_delta0(cfg)
        eq.delta0 = 0.0  # force the (unstable) linear configuration
        eq.positions[:, 1] = 0.0
        with pytest.raises(BareInstabilityError):
            bare_frequencies(cfg, eq)

    def test_site_independent_in_zigzag(self):
        cfg = ring(0.6, 16)
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        diag = np.diag(hess.matrix).reshape(16, 3)
        assert np.max(np.abs(diag - diag[0])) < 1e-13


class TestHessian:
    def test_cross_dimension_blocks_vanish_in_linear_phase(self):
        cfg = ring(0.3, 16)
        hess = build_hessian(cfg, solve_delta0(cfg))
        mat = hess.matrix
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert np.max(np.abs(mat[a::3, b::3])) == 0.0

    def test_diagonal_matches_bare_frequency(self):
        cfg = ring(0.4, 32)
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        omegas = bare_frequencies(cfg, eq)
        assert np.diag(hess.matrix)[0] == pytest.approx(omegas[0] ** 2, rel=1e-14)

    def test_ring_diagonal_converges_to_bulk_value(self):
        # measured tail: error ~ 4 kappa / N^2 under the minimal-image
        # convention (two-sided sum cut at N/2 plus the antipodal term)
        kappa = 0.3
        errors = {}
        for n in (16, 32, 64, 128):
            cfg = ring(kappa, n)
            hess = build_hessian(cfg, solve_delta0(cfg))
            errors[n] = abs(np.diag(hess.matrix)[0] - 2.0 * kappa * ZETA3)
            assert errors[n] < 6.0 * kappa / n**2
        assert errors[32] / errors[64] == pytest.approx(4.0, rel=0.2)

    def test_row_sums_vanish_along_x(self):
        for cfg in (ring(0.3, 12), ring(0.6, 12), bulk(0.6, n_ions=12)):
            hess = build_hessian(cfg, solve_delta0(cfg))
            sums = hess.matrix[0::3, :].sum(axis=1)
            assert np.max(np.abs(sums)) < 1e-13

    def test_symmetry(self):
        for cfg in (ring(0.25, 16), bulk(0.8, n_ions=16)):
            hess = build_hessian(cfg, solve_delta0(cfg))
            assert np.max(np.abs(hess.matrix - hess.matrix.T)) < 1e-12

    @pytest.mark.parametrize("cfg", [bulk(0.6, n_ions=32),
                                     bulk(0.75, alpha=1.5, n_ions=6),
                                     ring(0.6, 12), ring(0.3, 10)])
    def test_blocks_equal_direct_fold_of_every_partner(self, cfg):
        # ring: the mirrored half-sum must add every partner, in the pair
        # set's order, exactly as a plain np.add.at over all offsets does;
        # bulk: every partner of each class m = o (mod N), summed by mpmath
        from ionphonon.chain import SUBLATTICE_MIRROR, pair_dy, pair_dyadic

        eq = solve_delta0(cfg)
        n = cfg.n_ions
        if cfg.boundary is Boundary.RING:
            m, w = pair_offsets(cfg)
            folded = np.zeros((n, 3, 3))
            np.add.at(folded, m % n, pair_dyadic(m, pair_dy(m, eq.delta0), cfg.kappa * w))
        else:
            folded = mpmath_site_fold(cfg.kappa, eq.delta0, n)
        folded[0] = np.diag([0.0, 1.0, cfg.alpha]) - folded[1:].sum(axis=0)
        ion = np.arange(n)
        blocks = np.stack([folded, folded * SUBLATTICE_MIRROR], axis=1)
        direct = blocks[(ion[:, None] - ion[None, :]) % n, ion % 2]
        direct = direct.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
        hess = build_hessian(cfg, eq).matrix
        if cfg.boundary is Boundary.RING:
            assert np.array_equal(hess, 0.5 * (direct + direct.T))
        else:
            assert np.max(np.abs(hess - 0.5 * (direct + direct.T))) < 1e-13

    def test_flat_index_map(self):
        hess = build_hessian(ring(0.3, 8), solve_delta0(ring(0.3, 8)))
        assert list(hess.axis_map[:6]) == [0, 1, 2, 0, 1, 2]


class TestEquilibriumResidual:
    def test_exact_linear_chain_is_force_free(self):
        cfg = ring(0.3, 16)
        eq = solve_delta0(cfg)
        assert equilibrium_residual(cfg, eq) < 1e-14

    def test_solved_zigzag_below_tolerance(self):
        # N = 10 has odd N/2: the antipodal partner is displaced, dy != 0
        for cfg in (ring(0.6, 16), ring(0.6, 10), bulk(0.6)):
            eq = solve_delta0(cfg)
            assert equilibrium_residual(cfg, eq) < 1e-8

    def test_perturbed_equilibrium_has_residual(self):
        for cfg in (ring(0.6, 16), ring(0.6, 10), bulk(0.6)):
            eq = solve_delta0(cfg)
            eq.delta0 += 0.01
            eq.positions[:, 1] = eq.delta0 * (-1.0) ** np.arange(cfg.n_ions)
            assert equilibrium_residual(cfg, eq) > 1e-3


def test_omega_from_hessian_rejects_unstable_diagonal():
    cfg = ring(0.3, 8)
    hess = build_hessian(cfg, solve_delta0(cfg))
    hess.matrix[1, 1] = -0.1
    with pytest.raises(BareInstabilityError):
        omega_from_hessian(hess)


def test_bulk_truncation_is_shared_with_equilibrium():
    # the helical sum rule only holds if the Hessian sums the pairs the
    # equilibrium condition sums; probe via the staggered-z quadratic form
    cfg = bulk(0.6, n_ions=8)
    eq = solve_delta0(cfg)
    hess = build_hessian(cfg, eq)
    pattern = np.zeros(3 * cfg.n_ions)
    pattern[2::3] = (-1.0) ** np.arange(cfg.n_ions)
    assert np.max(np.abs(hess.matrix @ pattern)) < 1e-12


def test_pair_offsets_count_every_partner_once():
    # folded mod N, every other ring ion is one partner (the antipode split
    # over m = +-N/2); bulk sums every offset once, so the linear chain's
    # on-site sums are kappa diag(-1, 1/2, 1/2) sum_m |m|^-3 = 2 zeta(3)
    for n in (10, 16):
        m, w = pair_offsets(ring(0.6, n))
        per_ion = np.bincount(m % n, weights=w, minlength=n)
        assert np.array_equal(per_ion, [0.0] + [1.0] * (n - 1))
    with pytest.raises(ValueError, match="every offset"):
        pair_offsets(bulk(0.6))
    sums = chain.k0_pair_sums(bulk(0.5), 0.0).sum(axis=0)
    assert np.allclose(sums, np.diag([-1.0, 0.5, 0.5]) * ZETA3, rtol=4e-16, atol=0.0)


def test_bulk_remainder_is_short_and_set_by_delta0():
    # the bulk remainder runs over the odd offsets up to M, worked out from
    # delta alone: none on the linear chain, a few hundred at most on the
    # catalogue, and past M its certified tails are below 2^-56 per unit kappa
    from ionphonon.chain import half_pair_blocks

    def offsets(delta):
        return half_pair_blocks(bulk(1.0), delta)[0]

    assert len(offsets(0.0)) == 0
    tops = []
    for kappa in CATALOGUE_KAPPAS:
        delta0 = solve_delta0(bulk(kappa)).delta0
        m = offsets(delta0)
        assert np.array_equal(m, np.arange(1, len(m) * 2, 2))
        assert len(m) == 0 if delta0 == 0.0 else m[-1] >= 2.0 * delta0
        tops.append(int(m[-1]) if len(m) else 0)
    assert tops == sorted(tops) and 0 < tops[-1] < 400
    for delta in (0.1, 0.31, 1.0, 64.0):
        c, top = 4.0 * delta**2, float(offsets(delta)[-1])
        assert 35 / 32 * c**3 * top**-8 <= 2.0**-56
        assert 15 / 8 * delta * c**2 * top**-7 <= 2.0**-56


@settings(deadline=None, max_examples=20)
@given(kappa=st.floats(min_value=KAPPA_C + 1e-3, max_value=1.5),
       alpha=st.sampled_from([1.0, 1.5]), n=st.integers(2, 32).map(lambda h: 2 * h))
def test_bulk_zigzag_invariants(kappa, alpha, n):
    # kappa_c + 1e-3 keeps the soft zigzag mode above the zero-mode threshold
    from ionphonon.freeparticle import goldstone_branches
    from ionphonon.symplectic import build_quadratic_form, symplectic_diagonalize

    cfg = bulk(kappa, alpha=alpha, n_ions=n)
    eq = solve_delta0(cfg)
    assert equilibrium_residual(cfg, eq) <= 1e-12
    hess = build_hessian(cfg, eq)
    x_shift = np.zeros(3 * n)
    x_shift[0::3] = 1.0
    z_stagger = np.zeros(3 * n)
    z_stagger[2::3] = (-1.0) ** np.arange(n)
    assert np.max(np.abs(hess.matrix @ x_shift)) <= 1e-12
    # G(delta0) = 0 leaves the trap anisotropy alone on the staggered z pattern
    assert np.max(np.abs(hess.matrix @ z_stagger - (alpha - 1.0) * z_stagger)) <= 1e-12
    form = build_quadratic_form(hess, omega_from_hessian(hess))
    try:
        nf = symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=n)
    except DynamicalInstabilityError:
        # at alpha = 1 past kappa ~ 1.2 the zigzag itself is unstable (a z
        # branch softens at finite k): there are no normal modes to count
        assert alpha == 1.0 and kappa > 1.15
        return
    assert len(nf.zero_pairs) == len(goldstone_branches(cfg, eq))


def test_bulk_potential_tail_cap_is_certified():
    # pathological displacement pushes the certified truncation past its cap
    from ionphonon.errors import ConvergenceError

    with pytest.raises(ConvergenceError):
        classical_potential(150.0, bulk(0.9))


def test_overlapping_geometry_is_singular():
    from ionphonon.chain import pair_dyadic
    from ionphonon.errors import PhysicsError

    with pytest.raises(PhysicsError):
        pair_dyadic(np.array([0.0]), np.array([0.0]), 0.5)


class TestSpecialValues:
    def test_bernoulli_numbers_are_exact(self):
        mpmath = pytest.importorskip("mpmath")
        for k, b in enumerate(even_bernoulli(34), 1):
            num, den = mpmath.bernfrac(2 * k)
            assert (b.numerator, b.denominator) == (int(num), int(den))

    def test_zeta3_literal_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        assert chain.ZETA3 == float(mpmath.zeta(3)) == ZETA3
        assert chain.ZETA5 == float(mpmath.zeta(5))
        assert chain.ZETA7 == float(mpmath.zeta(7))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_linear_bulk_hessian_matches_scipy_zeta_fold(self, n):
        # the image sums sum_i |o + i N|^-3 over o = 1..N-1 fold into Hurwitz
        # zeta functions: out[o] = kappa diag(-1, 1/2, 1/2) coeff[o]
        from ionphonon.chain import SUBLATTICE_MIRROR

        cfg = bulk(0.25, n_ions=n, alpha=1.5)
        eq = solve_delta0(cfg)
        assert eq.delta0 == 0.0
        hess = build_hessian(cfg, eq).matrix
        q = np.arange(1, n) / n
        coeff = (zeta(3.0, q) + zeta(3.0, 1.0 - q)) / n**3
        folded = np.zeros((n, 3, 3))
        folded[1:] = cfg.kappa * coeff[:, None, None] * np.diag([-1.0, 0.5, 0.5])
        folded[0] = np.diag([0.0, 1.0, cfg.alpha]) - folded[1:].sum(axis=0)
        ion = np.arange(n)
        blocks = np.stack([folded, folded * SUBLATTICE_MIRROR], axis=1)
        ref = blocks[(ion[:, None] - ion[None, :]) % n, ion % 2]
        ref = ref.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
        ref = 0.5 * (ref + ref.T)
        assert np.array_equal(hess != 0.0, ref != 0.0)
        assert np.max(np.abs(hess - ref)) <= 4.4e-16 * np.max(np.abs(ref))
