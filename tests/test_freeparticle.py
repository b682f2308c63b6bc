"""Zero-mode sector: effective masses, phase operator, thermal moments."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionphonon.bloch import CellCouplings, _cell_index
from ionphonon.chain import GENERATORS, Boundary, ChainConfig, solve_delta0
from ionphonon.freeparticle import (
    FreeParticleSector,
    _winding_moments,
    build_sectors,
    effective_masses,
    goldstone_branches,
    phase_operator,
    q_variance,
    thermal_energy_and_heat,
    thermal_p_squared,
    zero_mode_normal_form,
)
from ionphonon.observables import CorrelatorRequest, PhononField, correlator_table
from oracles import sectors


def bulk(kappa, n=32, **kw):
    return ChainConfig(kappa=kappa, n_ions=n, boundary=Boundary.BULK, **kw)


class TestEffectiveMasses:
    def test_single_mass_below_transition(self):
        masses = effective_masses(bulk(0.3))
        assert set(masses) == {"longitudinal"}
        assert masses["longitudinal"] > 0.0

    def test_two_masses_in_zigzag(self):
        masses = effective_masses(bulk(0.6))
        assert set(masses) == {"longitudinal", "radial"}

    def test_radial_mass_absent_for_anisotropic_trap(self):
        masses = effective_masses(bulk(0.6, alpha=1.3))
        assert set(masses) == {"longitudinal"}

    def test_extensivity(self):
        m16 = effective_masses(bulk(0.3, n=16))["longitudinal"]
        m32 = effective_masses(bulk(0.3, n=32))["longitudinal"]
        assert m32 / m16 == pytest.approx(2.0, abs=1e-6)

    def test_closed_form_n_over_omega(self):
        # the uniform/staggered zero patterns live on a single bare frequency,
        # which pins m_tilde = N / Omega_(support axis) exactly
        cfg = bulk(0.6)
        eq = solve_delta0(cfg)
        couplings = CellCouplings(cfg, eq)
        masses = effective_masses(cfg, eq)
        omega_x = couplings.omega_bare[_cell_index(0, 0)]
        omega_z = couplings.omega_bare[_cell_index(0, 2)]
        assert masses["longitudinal"] == pytest.approx(cfg.n_ions / omega_x, rel=1e-12)
        assert masses["radial"] == pytest.approx(cfg.n_ions / omega_z, rel=1e-12)

    def test_radial_mass_finite_at_onset(self):
        kc = 4.0 / (7.0 * 1.2020569031595942)
        masses = effective_masses(bulk(kc + 1e-3))
        assert 0.0 < masses["radial"] < 1e3

    def test_longitudinal_mass_diverges_at_weak_coupling(self):
        weak = effective_masses(bulk(1e-4))["longitudinal"]
        strong = effective_masses(bulk(0.4))["longitudinal"]
        assert weak > 10.0 * strong


@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.6])
def test_goldstone_axes_are_the_zero_pair_axes(kappa, alpha):
    cfg = bulk(kappa, alpha=alpha)
    eq = solve_delta0(cfg)
    zero_pairs = CellCouplings(cfg, eq).normal_form(0.0).zero_pairs
    carried = {axis for zp in zero_pairs for a, axis in enumerate("xyz")
               if any(abs(zp.u0[_cell_index(s, a)]) > 1e-8 for s in (0, 1))}
    branches = goldstone_branches(cfg, eq)
    assert set(branches) == carried
    assert len(branches) == len(zero_pairs)


class TestSectors:
    def test_ring_has_longitudinal_sector(self):
        cfg = ChainConfig(kappa=0.3, n_ions=16, boundary=Boundary.RING)
        found = sectors(cfg)
        assert [s.label for s in found] == ["longitudinal"]
        s = found[0]
        assert s.circumference == 16.0
        assert s.c0 > 0.0

    def test_bulk_drops_longitudinal_keeps_radial(self):
        found = sectors(bulk(0.6))
        assert [s.label for s in found] == ["radial"]
        eq = solve_delta0(bulk(0.6))
        assert found[0].circumference == pytest.approx(2.0 * np.pi * eq.delta0)

    def test_level_spectrum_is_quadratic(self):
        # E_m = E_1 m^2: the sector energy is the Boltzmann average of that
        # spectrum, summed directly over the winding numbers
        sector = sectors(bulk(0.6))[0]
        t = 3.0 * sector.level_unit
        e_m = sector.level_unit * np.arange(-40, 41) ** 2.0
        weights = np.exp(-e_m / t)
        energy, _ = thermal_energy_and_heat(sector, t)
        assert energy == pytest.approx(np.sum(e_m * weights) / np.sum(weights), rel=1e-12)

    def test_zero_pair_scalar_product(self):
        nf = zero_mode_normal_form(bulk(0.6))
        for zp in nf.zero_pairs:
            overlap = np.vdot(zp.q, np.concatenate([zp.p[:6], -zp.p[6:]]))
            assert overlap == pytest.approx(1j, abs=1e-10)


GENERATOR_AXIS = {label: axis for axis, (label, _) in GENERATORS.items()}


class TestClosedForms:
    """A sector is its generator's move, m_tilde = N / Omega_a and its circle
    of length L; it holds no zero pair."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("kappa", [0.3, 0.6], ids=["linear", "zigzag"])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_mass_is_the_k0_pairs_to_the_bit(self, kappa, alpha, boundary):
        cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=24, boundary=boundary)
        eq = solve_delta0(cfg)
        nf = zero_mode_normal_form(cfg, eq)
        pairs = {zp.label: zp for zp in nf.zero_pairs}
        found = build_sectors(cfg, eq, nf.form.omega_bare)
        assert len(found) == len(pairs) - (boundary is Boundary.BULK)
        for sector in found:
            omega_a = nf.form.omega_bare[_cell_index(0, GENERATOR_AXIS[sector.label])]
            assert sector.m_tilde == pairs[sector.label].m_tilde
            assert sector.m_tilde == cfg.n_ions / omega_a
            assert not hasattr(sector, "pair")

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("kappa, alpha", [(0.3, 1.0), (0.6, 1.0), (0.7, 1.3)])
    def test_level_unit(self, kappa, alpha, boundary):
        # E_1 = 1 / (2 m_tilde c0^2) = 2 pi^2 / (N lam^2 L^2) on both circles
        cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=64, boundary=boundary)
        eq = solve_delta0(cfg)
        for sector in sectors(cfg, eq):
            length = cfg.n_ions if sector.label == "longitudinal" else 2.0 * np.pi * eq.delta0
            want = 2.0 * np.pi**2 / (cfg.n_ions * cfg.lam**2 * length**2)
            assert sector.level_unit == pytest.approx(want, rel=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("kappa, alpha", [(0.3, 1.0), (0.6, 1.0), (0.6, 1.5)])
    def test_ring_offsets_are_the_circle_variance(self, kappa, alpha):
        # a coordinate spread evenly over a circle of length L has variance
        # L^2 / 12: xx gains N^2 / 12, zz (2 pi delta0)^2 / 12 with the
        # rotation's sign (-1)^s on each ion
        cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=24, boundary=Boundary.RING)
        field = PhononField(cfg)
        assert field.sectors()
        for sector in field.sectors():
            axis = GENERATOR_AXIS[sector.label]
            nu = "xyz"[axis]
            length = cfg.n_ions if axis == 0 else 2.0 * np.pi * field.eq.delta0
            flag = f"include_{sector.label}_zero_mode"
            for s in (0, 1):
                for sp in (0, 1):
                    off = CorrelatorRequest(0, s, sp, nu, nu, 0.1, False, False)
                    on = replace(off, **{flag: True})
                    offset = correlator_table(on, field, [0, 1, 5]) \
                        - correlator_table(off, field, [0, 1, 5])
                    sign = 1.0 if axis == 0 else (-1.0) ** (s + sp)
                    np.testing.assert_allclose(offset, sign * length**2 / 12.0, rtol=4e-15)


class TestThermalMoments:
    def test_zero_temperature(self):
        sector = sectors(bulk(0.6))[0]
        assert thermal_p_squared(sector, 0.0) == 0.0

    @pytest.mark.parametrize("temperature", [-1.0, np.nan, np.inf, -np.inf])
    def test_bad_temperature_is_a_value_error(self, temperature):
        # NaN once returned NaN, inf divided by zero in _winding_moments, and
        # the energy took a negative T for frozen
        sector = sectors(bulk(0.6))[0]
        for thermal in (thermal_p_squared, thermal_energy_and_heat):
            with pytest.raises(ValueError, match="non-negative and finite"):
                thermal(sector, temperature)

    def test_zero_temperature_energy_and_heat(self):
        assert thermal_energy_and_heat(sectors(bulk(0.6))[0], 0.0) == (0.0, 0.0)

    def test_monotone_in_temperature(self):
        sector = sectors(bulk(0.6))[0]
        temps = [0.05, 0.1, 0.3, 0.6]
        values = [thermal_p_squared(sector, t) for t in temps]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_against_high_precision_partition_sum(self):
        # kappa = 0.6, T = 0.5, with lambda chosen so that
        # lambda^2 Omega_z = 1; oracle is an mpmath partition sum at 50 digits
        mpmath = pytest.importorskip("mpmath")
        cfg = bulk(0.6)
        eq = solve_delta0(cfg)
        omega_z = CellCouplings(cfg, eq).omega_bare[_cell_index(0, 2)]
        lam = 1.0 / np.sqrt(omega_z)
        cfg = ChainConfig(kappa=0.6, n_ions=32, lam=float(lam), boundary=Boundary.BULK)
        sector = [s for s in sectors(cfg, eq) if s.label == "radial"][0]
        t = 0.5
        value = thermal_p_squared(sector, t)
        with mpmath.workdps(50):
            e1 = mpmath.mpf(sector.level_unit)
            c0 = mpmath.mpf(sector.c0)
            num = den = mpmath.mpf(0)
            for m in range(-400, 401):
                w = mpmath.exp(-e1 * m * m / t)
                num += (m / c0) ** 2 * w
                den += w
            oracle = float(num / den)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_heat_matches_finite_difference_oracle(self):
        sector = sectors(bulk(0.6))[0]
        t, h = 0.3, 1e-4
        _, heat = thermal_energy_and_heat(sector, t)
        e_hi, _ = thermal_energy_and_heat(sector, t + h)
        e_lo, _ = thermal_energy_and_heat(sector, t - h)
        assert heat == pytest.approx((e_hi - e_lo) / (2.0 * h), rel=1e-6)


def _direct_moments(a):
    """<m^2> and Var(m^2) under exp(-a m^2) by the plain sum over |m| <= M.

    M puts the first dropped weight below e^-40; each weight carries the
    rounding of its exponent a m^2 <= 40, about 1e-15 relative on Var(m^2).
    """
    cut = math.ceil(math.sqrt(40.0 / a)) + 1
    m2 = np.arange(-cut, cut + 1, dtype=float) ** 2
    w = np.exp(-a * m2)
    z = math.fsum(w)
    mean = math.fsum(m2 * w) / z
    return mean, math.fsum((m2 - mean) ** 2 * w) / z


def _unit_sector():
    # level_unit = 1 / (2 m_tilde c0^2) = 1, so a = 1 / T
    return FreeParticleSector("radial", 0.5, 1.0, 2.0 * np.pi)


class TestWindingMoments:
    @pytest.mark.parametrize("a", [
        np.pi * (1.0 - 1e-3), np.pi * (1.0 + 1e-3), 1e-3, 0.5, 2.0, 5.0, 30.0,
    ])
    def test_matches_direct_sum(self, a):
        # both sides of the switch between dual (a < pi) and direct series
        assert _winding_moments(a) == pytest.approx(_direct_moments(a), rel=1e-14)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(min_value=-6.0, max_value=2.0))
    def test_matches_direct_sum_over_decades(self, log10_a):
        a = 10.0**log10_a
        assert _winding_moments(a) == pytest.approx(_direct_moments(a), rel=1e-14)

    def test_classical_limit_is_equipartition(self):
        t = 1e12  # a = 1e-12
        energy, heat = thermal_energy_and_heat(_unit_sector(), t)
        assert energy == pytest.approx(t / 2.0, rel=1e-15)
        assert heat == pytest.approx(0.5, rel=1e-15)

    def test_frozen_limit_is_exactly_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy, heat = thermal_energy_and_heat(_unit_sector(), 1e-3)
            p2 = thermal_p_squared(_unit_sector(), 1e-3)
        assert (energy, heat, p2) == (0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def ring1024_longitudinal():
    cfg = ChainConfig(kappa=0.65, n_ions=1024, boundary=Boundary.RING)
    return [s for s in sectors(cfg) if s.label == "longitudinal"][0]


def test_ring_sector_memory_does_not_grow_with_windings(ring1024_longitudinal):
    # E_1 ~ 7e-12 here: a direct sum at T = 50 would need ~3e7 winding numbers
    tracemalloc.start()
    try:
        thermal_energy_and_heat(ring1024_longitudinal, 50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ring_sector_heat_is_equipartition_at_high_temperature(ring1024_longitudinal):
    _, heat = thermal_energy_and_heat(ring1024_longitudinal, 50.0)
    assert heat == pytest.approx(0.5, rel=1e-15)


class TestQVariance:
    def test_zero_amplitude(self):
        sector = FreeParticleSector("radial", 10.0, 0.0, 0.0)
        assert q_variance(sector) == 0.0

    def test_unit_circle(self):
        sector = FreeParticleSector("radial", 10.0, 1.0, 2.0 * np.pi)
        assert q_variance(sector) == pytest.approx(np.pi**2 / 3.0)

    def test_closed_form_for_radial_sector(self):
        cfg = bulk(0.6, n=32)
        eq = solve_delta0(cfg)
        omega_z = CellCouplings(cfg, eq).omega_bare[_cell_index(0, 2)]
        sector = [s for s in sectors(cfg, eq) if s.label == "radial"][0]
        expected = np.pi**2 * eq.delta0**2 * cfg.lam**2 * omega_z / 3.0
        assert q_variance(sector) == pytest.approx(expected, rel=1e-12)

    def test_phase_operator_variance_converges_to_closed_form(self):
        for m_max in (25, 100):
            basis = phase_operator(m_max)
            phi_sq = (basis.phi_matrix @ basis.phi_matrix).real
            diag = np.diag(phi_sq)
            assert np.max(np.abs(diag - diag[0])) < 1e-10
            assert abs(diag[0] - np.pi**2 / 3.0) < 10.0 / m_max


class TestPhaseOperator:
    def test_diagonal_vanishes_exactly(self):
        basis = phase_operator(40)
        assert np.max(np.abs(np.diag(basis.phi_matrix))) == 0.0

    def test_hermitian(self):
        basis = phase_operator(30)
        assert np.max(np.abs(basis.phi_matrix - basis.phi_matrix.conj().T)) < 1e-14

    def test_matches_direct_angular_state_sum(self):
        # oracle: build phi = sum_n phi_n |phi_n><phi_n| from the explicit
        # localized states, without the closed-form matrix elements
        m_max = 12
        dim = 2 * m_max + 1
        l_idx = np.arange(-m_max, m_max + 1)
        phi_n = 2.0 * np.pi * np.arange(-m_max, m_max + 1) / dim
        states = np.exp(-1j * np.outer(l_idx, phi_n)) / np.sqrt(dim)
        direct = (states * phi_n[None, :]) @ states.conj().T
        basis = phase_operator(m_max)
        assert np.max(np.abs(basis.phi_matrix - direct)) < 1e-13

    def test_shift_matrix_is_cyclic_permutation(self):
        basis = phase_operator(20)
        s = basis.shift_matrix
        assert np.max(np.abs(s @ s.conj().T - np.eye(basis.dimension))) < 1e-14
        assert np.linalg.matrix_power(s, basis.dimension) == pytest.approx(np.eye(basis.dimension))

    def test_exponential_of_phase_is_the_shift(self):
        m_max = 15
        basis = phase_operator(m_max)
        evals, evecs = np.linalg.eigh(basis.phi_matrix)
        exp_phi = (evecs * np.exp(1j * evals)) @ evecs.conj().T
        assert np.max(np.abs(exp_phi - basis.shift_matrix)) < 1e-12

    def test_phase_times_winding_number_diagonal_vanishes(self):
        m_max = 10
        basis = phase_operator(m_max)
        p_diag = np.diag(np.arange(-m_max, m_max + 1, dtype=float))
        product = basis.phi_matrix @ p_diag
        assert np.max(np.abs(np.diag(product))) == 0.0

    def test_rejects_tiny_space(self):
        with pytest.raises(ValueError):
            phase_operator(0)


def test_longitudinal_mass_has_minimum_at_transition():
    # m_l / N falls towards the transition, kinks there, and rises again in
    # the zigzag phase; the helical mass increases monotonically above it
    kc = 4.0 / (7.0 * 1.2020569031595942)
    kappas_lin = [kc - 0.12, kc - 0.06, kc - 0.01]
    kappas_zz = [kc + 0.01, kc + 0.06, kc + 0.12]
    m_lin = [effective_masses(bulk(k))["longitudinal"] for k in kappas_lin]
    assert m_lin[0] > m_lin[1] > m_lin[2]
    m_zz = [effective_masses(bulk(k))["longitudinal"] for k in kappas_zz]
    assert m_zz[0] < m_zz[1] < m_zz[2]
    m_rad = [effective_masses(bulk(k))["radial"] for k in kappas_zz]
    assert m_rad[0] < m_rad[1] < m_rad[2]
