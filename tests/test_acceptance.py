"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any assertion failure marks the criterion failed.
"""

import time

import numpy as np
import pytest
from scipy.special import zeta

from ionphonon.bloch import (
    bare_critical_kappa,
    critical_kappa,
    dispersion_linear,
    softening_kappa_c,
    verify_f_diagonality,
)
from ionphonon.chain import (
    Boundary,
    ChainConfig,
    bare_frequencies,
    build_hessian,
    omega_from_hessian,
    solve_delta0,
)
from ionphonon.errors import BareInstabilityError, DynamicalInstabilityError
from ionphonon.freeparticle import phase_operator, zero_mode_normal_form
from ionphonon.observables import (
    CorrelatorRequest,
    PhononField,
    correlation_energy,
    ginzburg_parameter,
    heat_capacity,
    spatial_correlator,
    susceptibility,
)
from ionphonon.symplectic import (
    assemble_W,
    build_quadratic_form,
    completeness_residual,
    sigma_apply,
    symplectic_diagonalize,
)

ZETA3 = float(zeta(3.0))


def passline(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def full_space_normal_form(kappa, n, boundary=Boundary.RING):
    cfg = ChainConfig(kappa=kappa, n_ions=n, boundary=boundary)
    eq = solve_delta0(cfg)
    hess = build_hessian(cfg, eq)
    form = build_quadratic_form(hess, omega_from_hessian(hess))
    return symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=n), cfg


def test_criterion_01_critical_coupling_by_softening():
    start = time.perf_counter()
    kappa_c = softening_kappa_c()
    elapsed = time.perf_counter() - start
    exact = 4.0 / (7.0 * ZETA3)
    assert abs(kappa_c - exact) < 1e-8
    assert elapsed < 1.0
    passline(1, f"zone-edge softening gives kappa_c = {kappa_c:.10f} "
                f"(= 4/(7 zeta(3)) to {abs(kappa_c - exact):.1e}) in {elapsed:.3f} s")


def test_criterion_02_bare_instability_bound():
    # locate the onset of the bare-frequency error by bisection
    def bare_ok(kappa):
        cfg = ChainConfig(kappa=kappa, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        eq.delta0 = 0.0
        eq.positions[:, 1] = 0.0
        try:
            bare_frequencies(cfg, eq)
            return True
        except BareInstabilityError:
            return False

    lo, hi = 0.8, 0.9
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bare_ok(mid) else (lo, mid)
    bound = 0.5 * (lo + hi)
    assert abs(bound - 1.0 / ZETA3) < 1e-10
    # collective window: bare frequencies fine, dispersion unstable
    assert bare_ok(0.6)
    with pytest.raises(DynamicalInstabilityError):
        dispersion_linear(np.pi, "y", 0.6)
    ratio = critical_kappa() / bare_critical_kappa()
    assert abs(ratio - 4.0 / 7.0) < 1e-15
    passline(2, f"Omega_y turns imaginary at kappa = {bound:.12f} "
                f"(1/zeta(3) to {abs(bound - 1 / ZETA3):.1e}); "
                f"kappa_c/kappa_tilde_c = 4/7 exactly")


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (16, 64):
        for kappa in (0.2, 0.4):
            nf, cfg = full_space_normal_form(kappa, n, Boundary.BULK)
            freqs = np.sort(np.concatenate(
                [nf.frequencies(), np.zeros(len(nf.zero_pairs))]))
            ks = -np.pi + 2.0 * np.pi * np.arange(n) / n
            analytic = np.sort(np.concatenate(
                [dispersion_linear(ks, nu, kappa) for nu in "xyz"]))
            worst = max(worst, float(np.max(np.abs(freqs - analytic))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    passline(3, f"full-space spectra match analytic dispersions to {worst:.1e} "
                f"for N in (16, 64), kappa in (0.2, 0.4) in {elapsed:.2f} s")


def test_criterion_04_normal_form_certificates():
    reports = []
    for kappa, n in ((0.3, 32), (0.6, 32)):
        nf, cfg = full_space_normal_form(kappa, n)
        comp = completeness_residual(nf)
        assert comp < 1e-10
        w, w_inv = assemble_W(nf)
        winv_res = float(np.max(np.abs(w @ w_inv - np.eye(2 * nf.dimension))))
        assert winv_res < 1e-10
        for mode in nf.modes:
            assert mode.sigma_norm() == pytest.approx(1.0, abs=1e-10)
        for zp in nf.zero_pairs:
            assert np.vdot(zp.q, sigma_apply(zp.p)) == pytest.approx(1j, abs=1e-10)
        reports.append(f"kappa={kappa}: completeness {comp:.1e}, "
                       f"||WW^-1 - 1|| {winv_res:.1e}")
    passline(4, "; ".join(reports))


def test_criterion_05_mean_field_exponent():
    kappa_c = critical_kappa()
    eps = np.geomspace(1e-4, 1e-2, 17)
    delta = [
        solve_delta0(ChainConfig(kappa=kappa_c + e, boundary=Boundary.BULK)).delta0
        for e in eps
    ]
    slope = float(np.polyfit(np.log(eps), np.log(delta), 1)[0])
    assert abs(slope - 0.5) < 0.02
    passline(5, f"log-log order-parameter slope {slope:.4f} (expect 0.50 +- 0.02)")


def test_criterion_06_zero_mode_count_scan():
    miscount = 0
    for kappa in np.linspace(0.1, 1.0, 50):
        cfg = ChainConfig(kappa=float(kappa), n_ions=32, boundary=Boundary.BULK)
        eq = solve_delta0(cfg)
        nf = zero_mode_normal_form(cfg, eq)
        expected = 2 if eq.delta0 > 0.0 else 1
        if len(nf.zero_pairs) != expected:
            miscount += 1
    assert miscount == 0
    passline(6, "one zero pair below / two above the transition on all "
                "50 scan points (ZERO_MODE_TOL = 1e-8)")


def test_criterion_07_dulong_petit_and_low_t_enhancement():
    values = {}
    for kappa in (0.2, 0.6):
        cfg = ChainConfig(kappa=kappa, n_ions=64, boundary=Boundary.RING)
        eq = solve_delta0(cfg)
        values[kappa] = heat_capacity(50.0, PhononField(cfg, eq))
        assert values[kappa] == pytest.approx(3.0, rel=0.01)
    kappa_c = critical_kappa()
    low = {}
    for kappa in (kappa_c - 0.05, kappa_c + 0.05):
        cfg = ChainConfig(kappa=kappa, n_ions=64, boundary=Boundary.RING)
        low[kappa] = heat_capacity(0.1, PhononField(cfg))
    assert low[kappa_c + 0.05] > low[kappa_c - 0.05]
    passline(7, f"c(T=50) = {values[0.2]:.4f} / {values[0.6]:.4f} "
                f"(Dulong-Petit within 1%); c(0.1) zigzag "
                f"{low[kappa_c + 0.05]:.4f} > linear {low[kappa_c - 0.05]:.4f}")


def test_criterion_08_fourier_kernel_diagonality():
    worst = verify_f_diagonality(16, lambda p: 1.0 / p**3)
    rng = np.random.default_rng(2024)
    for _ in range(5):
        n = 16
        half = rng.normal(size=n // 2)
        kernel = np.zeros(n)
        kernel[1 : n // 2 + 1] = half
        kernel[n // 2 + 1 :] = half[:-1][::-1]
        worst = max(worst, verify_f_diagonality(n, kernel))
    assert worst < 1e-12
    passline(8, f"max off-diagonal Fourier kernel element {worst:.1e} "
                f"(Coulomb + 5 random symmetric kernels, N = 16)")


def test_criterion_09_phase_operator_moments():
    reports = []
    for m_max in (50, 200, 800):
        basis = phase_operator(m_max)
        assert np.max(np.abs(np.diag(basis.phi_matrix))) == 0.0
        # diag of phi^2 via row norms (phi is Hermitian)
        var = float(np.sum(np.abs(basis.phi_matrix[m_max]) ** 2))
        err = abs(var - np.pi**2 / 3.0)
        assert err < 10.0 / m_max
        reports.append(f"M={m_max}: |<phi^2> - pi^2/3| = {err:.2e}")
    passline(9, "; ".join(reports))


def test_criterion_10_susceptibility_structure():
    cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.RING)
    eq = solve_delta0(cfg)
    field = PhononField(cfg, eq)
    eta = 1e-2
    y_sel = field.mask & (np.abs(field.u[:, :, 2]) ** 2
                          + np.abs(field.u[:, :, 3]) ** 2 > 1e-6)
    band_min, band_max = field.omega[y_sel].min(), field.omega[y_sel].max()

    below = np.linspace(0.05, 0.9 * band_min, 12)
    res_below = susceptibility(below, ("y", 0), field, eta=eta)
    for r in res_below:
        assert abs(r.chi.imag) < 12.0 * eta * abs(r.chi)  # eta-limited floor
        assert r.chi.real > 0.0 and abs(np.angle(r.chi)) < 0.15
    above = susceptibility([1.4 * band_max], ("y", 0), field, eta=eta)[0]
    assert abs(abs(np.angle(above.chi)) - np.pi) < 0.05

    # Kramers-Kronig with the singular part subtracted analytically
    grid = np.linspace(1e-4, 20.0, 20001)
    chi = np.array([r.chi for r in
                    susceptibility(grid, ("y", 0), field, eta=eta)])
    worst = 0.0
    for w0 in (0.3, 0.8, 1.3):
        i0 = int(np.argmin(np.abs(grid - w0)))
        w0g, im0 = grid[i0], chi.imag[i0]
        den = grid**2 - w0g**2
        num = grid * chi.imag - w0g * im0
        integrand = np.where(np.abs(den) > 1e-12,
                             num / np.where(den == 0.0, 1.0, den), 0.0)
        integrand[i0] = 0.5 * (integrand[i0 - 1] + integrand[i0 + 1])
        pv_tail = np.log((grid[-1] - w0g) / (grid[-1] + w0g)) / (2.0 * w0g)
        recon = 2.0 / np.pi * (np.trapezoid(integrand, grid) + w0g * im0 * pv_tail)
        worst = max(worst, abs(recon - chi.real[i0]) / abs(chi.real[i0]))
    assert worst < 0.01
    passline(10, f"arg chi steps 0 -> +-pi across the band; "
                 f"Kramers-Kronig reconstruction error {worst:.2%}")


def test_criterion_11_correlation_energy_kink():
    kappa_c = critical_kappa()
    kappas = np.linspace(0.2, 0.75, 50)
    values = []
    for kappa in kappas:
        cfg = ChainConfig(kappa=float(kappa), n_ions=64, boundary=Boundary.RING)
        values.append(correlation_energy(PhononField(cfg)))
    values = np.array(values)
    assert np.all(values <= 0.0)
    # decay towards zero coupling
    tiny = [abs(correlation_energy(PhononField(
        ChainConfig(kappa=k, n_ions=64, boundary=Boundary.RING))))
        for k in (1e-2, 1e-3, 1e-4)]
    assert tiny[0] > tiny[1] > tiny[2] and tiny[2] < 1e-3
    lo = (kappas > kappa_c - 0.12) & (kappas < kappa_c)
    hi = (kappas > kappa_c) & (kappas < kappa_c + 0.12)
    fit_lo = np.polyfit(kappas[lo], values[lo], 1)
    fit_hi = np.polyfit(kappas[hi], values[hi], 1)
    noise = max(
        float(np.std(values[lo] - np.polyval(fit_lo, kappas[lo]))),
        float(np.std(values[hi] - np.polyval(fit_hi, kappas[hi]))),
    )
    jump = abs(fit_lo[0] - fit_hi[0])
    assert jump > 10.0 * noise
    passline(11, f"dE0 <= 0 on all 50 points, -> 0 at weak coupling; "
                 f"slope kink {jump:.3f} = {jump / noise:.0f}x fit noise")


def test_criterion_12_ginzburg_logarithm():
    cfg = ChainConfig(kappa=0.6, boundary=Boundary.RING)
    pairs = ginzburg_parameter(cfg, n_list=(50, 100, 200, 400))
    ns = np.array([float(n) for n, _ in pairs])
    gs = np.array([g for _, g in pairs])
    assert np.all(np.diff(gs) > 0.0)
    fit = np.polyfit(np.log(ns), gs, 1)
    pred = np.polyval(fit, np.log(ns))
    r_sq = 1.0 - np.sum((gs - pred) ** 2) / np.sum((gs - np.mean(gs)) ** 2)
    assert r_sq > 0.99
    passline(12, f"same-site helical variance linear in ln N with R^2 = {r_sq:.6f}")


def test_criterion_13_correlator_symmetries():
    cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.RING)
    eq = solve_delta0(cfg)
    field = PhononField(cfg, eq)
    worst = 0.0
    for dj in range(11):
        yy = spatial_correlator(CorrelatorRequest(dj, 0, 0, "y", "y"), field)
        zz = spatial_correlator(CorrelatorRequest(dj, 0, 0, "z", "z"), field)
        xy = spatial_correlator(CorrelatorRequest(dj, 0, 0, "x", "y"), field)
        worst = max(worst, abs(yy - zz))
        assert xy == 0.0
    assert worst < 1e-12
    cfg6 = ChainConfig(kappa=0.6, n_ions=64, boundary=Boundary.RING)
    eq6 = solve_delta0(cfg6)
    field6 = PhononField(cfg6, eq6)
    xy6 = spatial_correlator(CorrelatorRequest(2, 0, 0, "x", "y"), field6)
    assert abs(xy6) > 1e-8
    passline(13, f"linear yy == zz to {worst:.1e} over separations 0..10; "
                 f"cross xy = 0 linear, {xy6:.2e} in zigzag")
