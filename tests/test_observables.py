"""Correlators, heat capacity, susceptibility, energy reduction, Ginzburg."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ionphonon.bloch import _cell_index, critical_kappa
from ionphonon.chain import (
    Boundary,
    ChainConfig,
    build_hessian,
    omega_from_hessian,
    solve_delta0,
)
from ionphonon import observables
from ionphonon.errors import (
    DivergenceError,
    InternalConsistencyError,
    NoOrderParameterError,
    PhysicsError,
    ResolutionWarning,
)
from ionphonon.freeparticle import thermal_energy_and_heat
from ionphonon.observables import (
    AXES,
    CorrelatorRequest,
    PhononField,
    check_convergent,
    correlation_energy,
    correlator_table,
    ginzburg_parameter,
    heat_capacity,
    spatial_correlator,
    susceptibility,
    _einstein_heat,
)
from ionphonon.symplectic import build_quadratic_form, symplectic_diagonalize
from oracles import (
    full_space_correlation_energy,
    full_space_correlation_matrix,
    full_space_heat_capacity,
    full_space_normal_form,
    full_space_sectors,
    full_space_susceptibility,
    one_correlator,
    pair_correlators_k,
    per_term_susceptibility,
    ring_correlation_energy,
    ring_heat_capacity,
    sectors,
)
from test_symplectic import configs_near_transitions


def ring(kappa, n=32, **kw):
    return ChainConfig(kappa=kappa, n_ions=n, boundary=Boundary.RING, **kw)


def bulk(kappa, n=64, **kw):
    return ChainConfig(kappa=kappa, n_ions=n, boundary=Boundary.BULK, **kw)


@pytest.fixture(scope="module")
def linear_field():
    cfg = ring(0.3, 64)
    eq = solve_delta0(cfg)
    return cfg, eq, PhononField(cfg, eq)


@pytest.fixture(scope="module")
def zigzag_field():
    cfg = ring(0.6, 64)
    eq = solve_delta0(cfg)
    return cfg, eq, PhononField(cfg, eq)


class TestPairCorrelators:
    def test_decoupled_limit_has_no_occupation(self):
        cfg = ring(1e-8, 16)
        eq = solve_delta0(cfg)
        field = PhononField(cfg, eq)
        k = field.k[3]
        ada, aad, adad, aa = pair_correlators_k(field, k, k, 0, 0, "y", "y", 0.0)
        assert abs(ada) < 1e-12
        assert aad == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_terms_only_at_zero_temperature(self, linear_field):
        cfg, eq, field = linear_field
        k = field.k[5]
        ada, aad, adad, aa = pair_correlators_k(field, k, k, 0, 0, "y", "y", 0.0)
        # <a^dag a> = sum |v|^2 > 0 purely from vacuum fluctuations
        assert ada.real > 0.0
        assert aad.real == pytest.approx(1.0 + ada.real, abs=1e-12)

    def test_unpaired_momenta_vanish(self, linear_field):
        _, _, field = linear_field
        k1, k2 = field.k[3], field.k[4]
        values = pair_correlators_k(field, k1, k2, 0, 0, "y", "y", 0.1)
        assert all(abs(v) < 1e-14 for v in values)

    def test_negative_temperature_rejected(self, linear_field):
        _, _, field = linear_field
        with pytest.raises(ValueError):
            pair_correlators_k(field, 0.0, 0.0, 0, 0, "y", "y", -0.1)

    def test_off_grid_momentum_rejected(self, linear_field):
        _, _, field = linear_field
        with pytest.raises(ValueError):
            pair_correlators_k(field, 0.12345, 0.12345, 0, 0, "y", "y", 0.0)


@pytest.mark.parametrize("temperature", [0.0, 0.3])
@pytest.mark.parametrize("kappa", [0.3, 0.6])
def test_spatial_correlator_matches_ladder_sums(kappa, temperature):
    # spatial_correlator folds each block's four ladder averages into one sum
    # and leaves out the zero pairs' <P^2> terms, which cancel in positions;
    # the oracle keeps every term of
    # pref sum_k [e^{-2ik dj} (ada + adad) + e^{+2ik dj} (aad + aa)] / n_k
    cfg = ring(kappa, 16)
    field = PhononField(cfg, solve_delta0(cfg))
    omega_bare = field.couplings.omega_bare
    for nu, nup in (("x", "x"), ("y", "y"), ("z", "z"), ("x", "y"), ("y", "z")):
        for s, sp in ((0, 0), (0, 1)):
            i, j = _cell_index(s, AXES[nu]), _cell_index(sp, AXES[nup])
            pref = 1.0 / (2.0 * cfg.lam**2 * np.sqrt(omega_bare[i] * omega_bare[j]))
            for dj in (0, 1, 3):
                total = 0.0
                for k in field.k:
                    minus_k = (np.pi / 2.0 - k) % np.pi - np.pi / 2.0  # in the reduced zone
                    ada, aad, _, _ = pair_correlators_k(field, k, k, s, sp, nu, nup,
                                                        temperature)
                    _, _, adad, aa = pair_correlators_k(field, k, minus_k, s, sp, nu, nup,
                                                        temperature)
                    phase = np.exp(-2j * k * dj)
                    total += phase * (ada + adad) + np.conj(phase) * (aad + aa)
                total /= len(field.k)
                req = CorrelatorRequest(dj, s, sp, nu, nup, temperature)
                assert spatial_correlator(req, field) == pytest.approx(
                    (pref * total).real, rel=1e-10, abs=1e-14)
                assert abs((pref * total).imag) < 1e-14


class TestSpatialCorrelator:
    def test_matches_full_space_oracle_everywhere(self):
        cfg = ring(0.6, 8)
        eq = solve_delta0(cfg)
        field = PhononField(cfg, eq)
        oracle = full_space_correlation_matrix(cfg, eq)
        errs = []
        for dj in range(4):
            for nu in AXES:
                for nup in AXES:
                    for s in (0, 1):
                        for sp in (0, 1):
                            req = CorrelatorRequest(dj, s, sp, nu, nup)
                            mine = spatial_correlator(req, field)
                            a = 3 * (2 * dj + s) + AXES[nu]
                            b = 3 * sp + AXES[nup]
                            errs.append(abs(mine - oracle[a, b]))
        assert max(errs) < 1e-12

    def test_decoupled_same_site_variance(self):
        cfg = ring(1e-8, 16, lam=50.0)
        eq = solve_delta0(cfg)
        value = spatial_correlator(CorrelatorRequest(0, 0, 0, "y", "y"),
                                   PhononField(cfg, eq))
        assert value == pytest.approx(1.0 / (2.0 * cfg.lam**2), rel=1e-7)

    def test_linear_phase_cross_correlator_vanishes(self, linear_field):
        cfg, eq, field = linear_field
        for dj in range(5):
            req = CorrelatorRequest(dj, 0, 0, "x", "y")
            assert spatial_correlator(req, field) == 0.0

    def test_linear_phase_rotational_symmetry(self, linear_field):
        cfg, eq, field = linear_field
        for dj in range(11):
            yy = spatial_correlator(CorrelatorRequest(dj, 0, 0, "y", "y"), field)
            zz = spatial_correlator(CorrelatorRequest(dj, 0, 0, "z", "z"), field)
            assert abs(yy - zz) < 1e-12

    def test_zigzag_cross_correlator_nonzero(self, zigzag_field):
        cfg, eq, field = zigzag_field
        req = CorrelatorRequest(2, 0, 0, "x", "y")
        assert abs(spatial_correlator(req, field)) > 1e-8

    def test_radial_zero_mode_offset(self, zigzag_field):
        # closed form: (-1)^(s-s') pi^2 delta0^2 / 3 in units d^2
        cfg, eq, field = zigzag_field
        expected = np.pi**2 * eq.delta0**2 / 3.0
        for dj, s, sp in ((0, 0, 0), (3, 0, 1), (5, 1, 1)):
            on = spatial_correlator(
                CorrelatorRequest(dj, s, sp, "z", "z"), field)
            off = spatial_correlator(
                CorrelatorRequest(dj, s, sp, "z", "z",
                                  include_radial_zero_mode=False), field)
            assert on - off == pytest.approx((-1.0) ** (s - sp) * expected, rel=1e-12)

    def test_swap_symmetry(self, zigzag_field):
        # matrix symmetry of the real correlation matrix: swapping the two
        # operators maps (delta_j, s, nu | s', nu') to (-delta_j, s', nu' | s, nu),
        # which is how negative separations are covered by the request API
        cfg, eq, field = zigzag_field
        for dj, s, sp, nu, nup in ((2, 0, 1, "x", "y"), (4, 1, 0, "y", "z"),
                                   (3, 0, 0, "x", "x")):
            a = spatial_correlator(CorrelatorRequest(dj, s, sp, nu, nup), field)
            swapped = CorrelatorRequest(dj, sp, s, nup, nu)
            swapped.delta_j = -dj  # bypasses validation; internal sums accept it
            b = spatial_correlator(swapped, field)
            assert a == pytest.approx(b, abs=1e-13)

    def test_temperature_monotonicity(self, linear_field):
        cfg, eq, field = linear_field
        temps = [0.0, 0.05, 0.1, 0.2, 0.5]
        values = [
            spatial_correlator(CorrelatorRequest(0, 0, 0, "y", "y", temperature=t), field)
            for t in temps
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bulk_gapped_correlator_converges(self):
        cfg = bulk(0.3)
        eq = solve_delta0(cfg)
        value = spatial_correlator(CorrelatorRequest(1, 0, 0, "y", "y"),
                                   PhononField(cfg, eq, n_k=1024))
        assert np.isfinite(value)

    def test_bulk_gapless_correlator_raises(self):
        cfg = bulk(0.3)
        eq = solve_delta0(cfg)
        with pytest.raises(DivergenceError) as err:
            check_convergent(CorrelatorRequest(0, 0, 0, "x", "x"), cfg, eq)
        assert "axial" in str(err.value)

    def test_bulk_divergence_is_checked_on_a_given_field(self):
        cfg = bulk(0.3)
        eq = solve_delta0(cfg)
        field = PhononField(cfg, eq, n_k=64)
        with pytest.raises(DivergenceError) as err:
            spatial_correlator(CorrelatorRequest(2, 0, 1, "x", "x"), field)
        assert "axial sound" in str(err.value)

    def test_bulk_near_critical_correlator_is_finite(self):
        # the soft zone-edge mode sharpens the integrand, so the grid sets
        # the accuracy here, but no Goldstone branch carries y
        cfg = bulk(critical_kappa() - 1e-4)
        eq = solve_delta0(cfg)
        req = CorrelatorRequest(1, 0, 0, "y", "y")
        value = spatial_correlator(req, PhononField(cfg, eq, n_k=64))
        assert value == pytest.approx(4.2893e-4, rel=1e-4)

    def test_bulk_helical_correlator_raises(self):
        cfg = bulk(0.6)
        eq = solve_delta0(cfg)
        with pytest.raises(DivergenceError):
            check_convergent(
                CorrelatorRequest(0, 0, 0, "z", "z", include_radial_zero_mode=False),
                cfg, eq)

    def test_bulk_longitudinal_offset_rejected(self):
        cfg = bulk(0.3)
        eq = solve_delta0(cfg)
        with pytest.raises(DivergenceError):
            check_convergent(
                CorrelatorRequest(0, 0, 0, "x", "x",
                                  include_longitudinal_zero_mode=True),
                cfg, eq)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            CorrelatorRequest(-1)
        with pytest.raises(ValueError):
            CorrelatorRequest(0, 2, 0)
        with pytest.raises(ValueError):
            CorrelatorRequest(0, 0, 0, "w", "y")
        with pytest.raises(ValueError):
            CorrelatorRequest(0, temperature=-1.0)

    @pytest.mark.parametrize("delta_j", [np.nan, 1.5, 2.0])
    def test_request_rejects_non_integer_separation(self, delta_j):
        with pytest.raises(ValueError, match="integer"):
            CorrelatorRequest(delta_j)

    @pytest.mark.parametrize("s, sp", [(0.0, 0), (1.0, 0), (0, np.float64(1.0))],
                             ids=["s=0.0", "s=1.0", "sp=float64(1.0)"])
    def test_request_rejects_a_float_sublattice(self, s, sp):
        # a float sublattice used to pass here and fail as an index in the sum
        with pytest.raises(ValueError, match=r"sublattices must be integers 0 or 1: s="):
            CorrelatorRequest(0, s, sp)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_request_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            CorrelatorRequest(0, temperature=temperature)


AXIS_PAIRS = [("x", "x"), ("y", "y"), ("z", "z"), ("x", "y"), ("x", "z"), ("y", "z")]


@pytest.fixture(scope="module")
def table_fields():
    """Zigzag fields (both zero-mode sectors on rings) for the table tests."""
    fields = {}
    for name, cfg, n_k in (("ring64", ring(0.6, 64), 512), ("ring256", ring(0.6, 256), 512),
                           ("bulk128", bulk(0.6), 128)):
        fields[name] = PhononField(cfg, solve_delta0(cfg), n_k=n_k)
    return fields


def assert_table_is_one_by_one(field, req, separations):
    """correlator_table bitwise against one sum per separation."""
    table = correlator_table(req, field, separations)
    assert table.shape == (len(separations),)
    for dj, value in zip(separations, table.tolist()):
        expected = one_correlator(replace(req, delta_j=dj), field)
        assert value.hex() == expected.hex(), (req, dj)


class TestCorrelatorTable:
    @pytest.mark.parametrize("name", ["ring64", "ring256", "bulk128"])
    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    @pytest.mark.parametrize("radial, longitudinal", [(True, False), (False, True)])
    def test_matches_one_request_sums(self, table_fields, name, temperature,
                                      radial, longitudinal):
        field = table_fields[name]
        sp = 1 if name == "bulk128" else 0
        for nu, nup in AXIS_PAIRS:
            req = CorrelatorRequest(0, 0, sp, nu, nup, temperature, radial, longitudinal)
            try:
                check_convergent(req, field.config, field.eq)
            except DivergenceError:
                continue
            assert_table_is_one_by_one(field, req, range(11))

    def test_separations_beyond_one_chunk(self, table_fields):
        field = table_fields["ring64"]
        assert 400 > observables._CHUNK_ELEMENTS // len(field.k)
        for nu, nup in AXIS_PAIRS:
            req = CorrelatorRequest(0, 0, 0, nu, nup, 0.7)
            assert_table_is_one_by_one(field, req, range(400))

    def test_spatial_correlator_reads_the_table(self, table_fields):
        field = table_fields["ring64"]
        req = CorrelatorRequest(3, 0, 1, "y", "z", 0.2)
        table = correlator_table(req, field, [0, 3])
        assert spatial_correlator(req, field) == table[1]

    def test_non_real_value_raises(self, table_fields, monkeypatch):
        field = table_fields["ring64"]
        monkeypatch.setattr(observables, "q_variance", lambda sector: 1j)
        req = CorrelatorRequest(2, 0, 0, "z", "z")
        with pytest.raises(InternalConsistencyError, match="correlator not real"):
            correlator_table(req, field, range(5))
        with pytest.raises(InternalConsistencyError, match="correlator not real"):
            spatial_correlator(req, field)

    @pytest.mark.parametrize("separations", [[1.5], [[0, 1]], 3])
    def test_rejects_malformed_separations(self, table_fields, separations):
        with pytest.raises(ValueError, match="separations"):
            correlator_table(CorrelatorRequest(0), table_fields["ring64"], separations)

    def test_no_separations_is_an_empty_table(self, table_fields):
        table = correlator_table(CorrelatorRequest(0), table_fields["ring64"], [])
        assert table.shape == (0,)


@pytest.mark.parametrize("temperature", [1e-320, 1e-300, 1e-160])
def test_tiny_temperatures_are_frozen(temperature):
    # E_1 / T overflows: the winding sectors and every mode are frozen
    cfg = ring(0.6, 16)
    field = PhononField(cfg, solve_delta0(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = heat_capacity(temperature, field)
        heats = [thermal_energy_and_heat(sector, temperature)[1]
                 for sector in field.sectors()]
        values = [correlator_table(CorrelatorRequest(0, 0, 0, nu, nup, temperature),
                                   field, range(4)) for nu, nup in AXIS_PAIRS]
    # the ring's own notice that T lies below its resolvable modes, nothing else
    assert [w.category for w in caught] == [ResolutionWarning]
    assert c == 0.0 and heats == [0.0, 0.0]
    assert all(np.isfinite(v).all() for v in values)


class TestHeatCapacity:
    def test_einstein_term_against_finite_difference(self):
        # oracle: numerical derivative of the Bose mean energy w/(e^{w/T}-1)
        omega, t, h = 1.0, 1.0, 1e-5
        energy = lambda temp: omega / np.expm1(omega / temp)
        oracle = (energy(t + h) - energy(t - h)) / (2.0 * h)
        value = float(_einstein_heat(np.array([omega]), t)[0])
        assert value == pytest.approx(oracle, abs=1e-8)
        assert value == pytest.approx(np.e / (np.e - 1.0) ** 2, rel=1e-12)

    def test_dulong_petit_limit(self, linear_field, zigzag_field):
        for cfg, eq, field in (linear_field, zigzag_field):
            c = heat_capacity(50.0, field)
            assert c == pytest.approx(3.0, rel=0.01)

    def test_vanishes_at_low_temperature_bulk(self):
        cfg = bulk(0.3)
        eq = solve_delta0(cfg)
        field = PhononField(cfg, eq, n_k=64)
        assert heat_capacity(1e-4, field) < 1e-10

    def test_free_particle_classical_plateau(self, linear_field):
        # at T far below the phonon gap but far above the sector's level
        # spacing, only the sliding mode holds heat: c = (1/2) / N
        cfg, eq, field = linear_field
        with pytest.warns(ResolutionWarning):
            c = heat_capacity(1e-3, field)
        assert c == pytest.approx(0.5 / cfg.n_ions, rel=1e-3)

    def test_zigzag_exceeds_linear_at_matched_distance(self):
        kc = 4.0 / (7.0 * 1.2020569031595942)
        values = {}
        for kappa in (kc - 0.05, kc + 0.05):
            cfg = ring(kappa, 64)
            eq = solve_delta0(cfg)
            values[kappa] = heat_capacity(0.1, PhononField(cfg, eq))
        assert values[kc + 0.05] > values[kc - 0.05]

    def test_resolution_warning(self, linear_field):
        cfg, eq, field = linear_field
        with pytest.warns(ResolutionWarning):
            heat_capacity(1e-9, field)

    def test_rejects_nonpositive_temperature(self, linear_field):
        cfg, eq, field = linear_field
        with pytest.raises(ValueError):
            heat_capacity(0.0, field)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_rejects_non_finite_temperature(self, linear_field, temperature):
        cfg, eq, field = linear_field
        with pytest.raises(ValueError, match="finite"):
            heat_capacity(temperature, field)

    def test_sector_heat_is_exact_derivative(self):
        sector = sectors(bulk(0.6, n=32))[0]
        t, h = 0.2, 1e-4
        _, c = thermal_energy_and_heat(sector, t)
        e_p, _ = thermal_energy_and_heat(sector, t + h)
        e_m, _ = thermal_energy_and_heat(sector, t - h)
        assert c == pytest.approx((e_p - e_m) / (2 * h), rel=1e-6)


class TestSusceptibility:
    def test_vanishes_at_high_frequency(self, linear_field):
        cfg, eq, field = linear_field
        results = susceptibility([0.5, 50.0, 500.0], ("y", 0), field)
        assert abs(results[2].chi) < abs(results[1].chi) < abs(results[0].chi)
        assert abs(results[2].chi) < 1e-7

    def test_static_response_is_real_and_positive(self, linear_field):
        cfg, eq, field = linear_field
        res = susceptibility([0.0], ("y", 0), field)[0]
        assert res.chi.imag == 0.0
        assert res.chi.real > 0.0

    def test_static_compliance_matches_hessian_inverse(self, linear_field):
        # oracle: the static response of coordinate i to a force on i is the
        # (i, i) element of the inverse stiffness matrix
        cfg, eq, field = linear_field
        hess = build_hessian(cfg, eq)
        y_block = hess.matrix[1::3, 1::3]
        compliance = np.linalg.inv(y_block)[0, 0] / cfg.lam**2
        res = susceptibility([0.0], ("y", 0), field, eta=1e-7)[0]
        assert res.chi.real == pytest.approx(compliance, rel=1e-6)

    def test_below_band_in_phase_above_band_antiphase(self, linear_field):
        cfg, eq, field = linear_field
        band = field.omega[field.mask & (np.abs(field.u[:, :, 2]) ** 2
                                         + np.abs(field.u[:, :, 3]) ** 2 > 1e-6)]
        below = 0.9 * band.min()
        above = 1.5 * band.max()
        res = susceptibility([below, above], ("y", 0), field)
        assert abs(np.angle(res[0].chi)) < 0.1
        assert abs(abs(np.angle(res[1].chi)) - np.pi) < 0.05
        # the residual below-band phase is an eta-floor: linear in eta
        res3 = susceptibility([below], ("y", 0), field, eta=1e-3)[0]
        assert abs(np.angle(res3.chi)) < 0.012
        assert abs(np.angle(res3.chi)) == pytest.approx(
            0.1 * abs(np.angle(res[0].chi)), rel=0.15)

    def test_on_resonance_quarter_turn(self):
        # nearly flat band at the trap frequency: driving at its centroid is
        # a Lorentzian center and gives a phase of +pi/2
        cfg = ring(1e-6, 32)
        eq = solve_delta0(cfg)
        field = PhononField(cfg, eq)
        y_weight = np.abs(field.u[:, :, 2]) ** 2 > 0.1
        centroid = float(np.mean(field.omega[field.mask & y_weight]))
        res = susceptibility([centroid], ("y", 0), field, eta=1e-3)[0]
        assert np.angle(res.chi) == pytest.approx(np.pi / 2.0, abs=1e-3)

    def test_reality_structure_away_from_resonances(self, linear_field):
        cfg, eq, field = linear_field
        omega = 0.3  # below the transverse band
        chis = [susceptibility([omega], ("y", 0), field, eta=eta)[0].chi
                for eta in (1e-2, 1e-4, 1e-6)]
        assert abs(chis[-1].imag) < 1e-8
        assert abs(chis[0].imag) > abs(chis[1].imag) > abs(chis[2].imag)

    def test_conjugation_symmetry(self, linear_field):
        cfg, eq, field = linear_field
        plus = susceptibility([0.7], ("y", 0), field)[0].chi
        minus = susceptibility([-0.7], ("y", 0), field)[0].chi
        assert minus == pytest.approx(np.conj(plus), rel=1e-12)

    def test_kramers_kronig_reconstruction(self, linear_field):
        # Re chi(w0) = (2/pi) PV int_0^inf w' Im chi(w') / (w'^2 - w0^2) dw',
        # with the singular part subtracted analytically
        cfg, eq, field = linear_field
        grid = np.linspace(1e-4, 20.0, 20001)
        chi = np.array([r.chi for r in
                        susceptibility(grid, ("y", 0), field)])
        for w0 in (0.3, 0.8, 1.2):
            i0 = int(np.argmin(np.abs(grid - w0)))
            w0g, im0 = grid[i0], chi.imag[i0]
            den = grid**2 - w0g**2
            num = grid * chi.imag - w0g * im0
            integrand = np.where(np.abs(den) > 1e-12, num / np.where(den == 0.0, 1.0, den), 0.0)
            integrand[i0] = 0.5 * (integrand[i0 - 1] + integrand[i0 + 1])
            pv_tail = np.log((grid[-1] - w0g) / (grid[-1] + w0g)) / (2.0 * w0g)
            recon = 2.0 / np.pi * (np.trapezoid(integrand, grid) + w0g * im0 * pv_tail)
            assert recon == pytest.approx(chi.real[i0], rel=0.01)

    def test_chunked_grid_is_bitwise_one_omega_at_a_time(self, linear_field):
        # a grid spans several chunks with a ragged last one; each row is
        # summed as if its omega were evaluated alone
        cfg, eq, field = linear_field
        grid = np.linspace(0.0, 3.0, 301)
        results = susceptibility(grid, ("z", 1), field)
        assert [r.omega for r in results] == grid.tolist()
        assert [r.chi for r in results] == [
            susceptibility([om], ("z", 1), field)[0].chi for om in grid]

    def test_result_is_one_array(self, linear_field):
        cfg, eq, field = linear_field
        grid = np.linspace(0.0, 3.0, 31)
        res = susceptibility(grid, ("y", 0), field)
        assert type(res.chi) is np.ndarray and res.chi.shape == grid.shape
        assert np.array_equal(res.omega, grid)
        one_by_one = np.array([susceptibility([om], ("y", 0), field).chi[0] for om in grid])
        assert res.chi.tobytes() == one_by_one.tobytes()

    def test_component_validation(self, linear_field):
        cfg, eq, field = linear_field
        with pytest.raises(ValueError):
            susceptibility([0.1], ("w", 0), field)
        with pytest.raises(ValueError):
            susceptibility([0.1], ("y", 2), field)
        with pytest.raises(ValueError):
            susceptibility([0.1], ("y", 0), field, eta=0.0)

    def test_rejects_infinite_eta(self, linear_field):
        with pytest.raises(ValueError, match="eta"):
            susceptibility([0.1], ("y", 0), linear_field[2], eta=np.inf)

    @pytest.mark.parametrize("grid", [np.zeros((2, 3)), 0.3, [0.1, np.nan], [np.inf]],
                             ids=["2-D", "scalar", "nan", "inf"])
    def test_rejects_malformed_omega_grid(self, linear_field, grid):
        with pytest.raises(ValueError, match="omega_grid must be a 1-D and finite"):
            susceptibility(grid, ("y", 0), linear_field[2])


class TestCorrelationEnergy:
    def test_vanishes_at_weak_coupling(self):
        values = []
        for kappa in (1e-2, 1e-3, 1e-4):
            cfg = ring(kappa, 32)
            values.append(abs(correlation_energy(PhononField(cfg))))
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_never_positive(self):
        for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = ring(kappa, 32)
            assert correlation_energy(PhononField(cfg)) <= 0.0

    def test_uncorrelated_reference_is_variational_optimum(self):
        # one-time verification: minimize <H_ph> over zero-mean per-site
        # Gaussian widths on N = 4 and compare with sum of local ground
        # energies (1/2) sum Omega
        cfg = ring(0.45, 4)
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        diag = np.diag(hess.matrix)

        def product_energy(log_sigma):
            var = np.exp(2.0 * log_sigma)
            return float(np.sum(1.0 / (8.0 * var) + 0.5 * diag * var))

        best = min(
            (minimize(product_energy, x0, method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
             for x0 in (np.zeros(12), 0.3 * np.ones(12), -0.4 * np.ones(12))),
            key=lambda r: r.fun,
        )
        reference = 0.5 * np.sum(np.sqrt(diag))
        assert best.fun == pytest.approx(reference, rel=1e-8)

    def test_matches_full_space_sum(self):
        cfg = ring(0.6, 16)
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        omegas = omega_from_hessian(hess)
        nf = symplectic_diagonalize(build_quadratic_form(hess, omegas),
                                    axis_map=hess.axis_map, p_norm=16)
        expected = 0.5 * (nf.frequencies().sum() - omegas.sum()) / cfg.n_ions
        assert correlation_energy(PhononField(cfg, eq)) == pytest.approx(expected, rel=1e-10)


class TestGinzburg:
    def test_values_increase_with_system_size(self):
        cfg = ring(0.6)
        values = ginzburg_parameter(cfg, n_list=(50, 100, 200))
        params = [v for _, v in values]
        assert params[0] < params[1] < params[2]

    def test_below_transition_rejected(self):
        with pytest.raises(NoOrderParameterError):
            ginzburg_parameter(ring(0.3), n_list=(50,))

    def test_semiclassical_regime_is_small(self):
        cfg = ring(0.7, lam=200.0)
        values = ginzburg_parameter(cfg, n_list=(50,))
        assert values[0][1] < 0.1


@pytest.fixture(scope="module")
def small_zigzag():
    cfg = ring(0.6, 8)
    eq = solve_delta0(cfg)
    return (cfg, eq, *full_space_normal_form(cfg, eq))


class TestFullSpaceOracles:
    """Bloch-path observables against direct 3N-dimensional evaluations."""

    def test_heat_capacity(self, small_zigzag):
        cfg, eq, nf, _ = small_zigzag
        t = 0.7
        per_mode = _einstein_heat(nf.frequencies(), t)
        oracle = float(per_mode.sum())
        for sector in sectors(cfg, eq):
            oracle += thermal_energy_and_heat(sector, t)[1]
        oracle /= cfg.n_ions
        assert heat_capacity(t, PhononField(cfg, eq)) == pytest.approx(oracle, rel=1e-10)

    def test_susceptibility(self, small_zigzag):
        cfg, eq, nf, omegas = small_zigzag
        eta, grid = 1e-2, np.array([0.0, 0.4, 0.9, 1.6])
        a = 1  # ion 0, axis y  <->  component (y, sublattice 0)
        results = susceptibility(grid, ("y", 0), PhononField(cfg, eq), eta=eta)
        for res in results:
            oracle = 0.0 + 0.0j
            for mode in nf.modes:
                weight = abs(mode.u[a] - mode.v[a]) ** 2
                oracle += weight * (1.0 / (res.omega + mode.omega + 1j * eta)
                                    - 1.0 / (res.omega - mode.omega + 1j * eta))
            oracle /= 2.0 * cfg.lam**2 * omegas[a]
            assert res.chi == pytest.approx(oracle, rel=1e-10)

    def test_finite_temperature_correlators(self, small_zigzag):
        cfg, eq, nf, omegas = small_zigzag
        t = 0.3
        oracle = full_space_correlation_matrix(cfg, eq, t, full=(nf, omegas))
        field = PhononField(cfg, eq)
        for dj, s, sp, nu, nup in ((0, 0, 0, "y", "y"), (1, 0, 1, "x", "x"),
                                   (2, 1, 1, "z", "z"), (1, 0, 1, "x", "y")):
            req = CorrelatorRequest(dj, s, sp, nu, nup, temperature=t)
            mine = spatial_correlator(req, field)
            a = 3 * (2 * dj + s) + AXES[nu]
            b = 3 * sp + AXES[nup]
            assert mine == pytest.approx(oracle[a, b], abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(cfg=configs_near_transitions().filter(
           lambda c: c.boundary is Boundary.RING and c.n_ions <= 24),
       temperature=st.floats(min_value=1e-3, max_value=10.0),
       eta=st.floats(min_value=1e-3, max_value=0.5))
def test_ring_observables_match_the_full_space_normal_form(cfg, temperature, eta):
    """Every ring observable of the band path against the paper's 3N x 3N
    normal form, which shares no Bloch or glide structure with it: both
    paths end in the same PhysicsError class, or they agree.

    The tolerance is 1e-12 of each observable's scale, widened by the
    softest mode's conditioning.  Either path gives each lam = omega^2 to a
    backward error of about N eps lam_max (a sum of N pair terms; 16 N eps
    here), so whatever the softest mode dominates holds to that error over
    lam_min, and a pole at w moves by that error over 2 w, which a line of
    width eta resolves.
    """
    try:
        eq = solve_delta0(cfg)
    except PhysicsError:
        return

    def outcome(build):
        try:
            return build()
        except PhysicsError as exc:
            return type(exc)

    def band():
        field = PhononField(cfg, eq)
        field.sectors()
        return field

    def full_space():
        full = full_space_normal_form(cfg, eq)
        full_space_sectors(cfg, eq, *full)
        return full

    field, full = outcome(band), outcome(full_space)
    if isinstance(field, type) or isinstance(full, type):
        assert field is full
        return
    nf, omegas = full
    lam = np.sort(field.omega[field.mask]) ** 2
    assert len(lam) == len(nf.omega)
    assert np.max(np.abs(lam - nf.omega**2)) <= 1e-12 * lam[-1]
    backward = 16 * cfg.n_ions * np.finfo(float).eps * lam[-1]
    rtol = 1e-12 + backward / lam[0]

    separations = np.arange(field.n_cells)
    cells = 3 * (2 * separations)
    for t in (0.0, temperature):
        for offsets in (True, False):
            oracle = full_space_correlation_matrix(cfg, eq, t, offsets, offsets, full)
            variance = np.diag(oracle)
            for nu in AXES:
                for nup in AXES:
                    # |C_ab| <= sqrt(C_aa C_bb): the block's largest entry
                    scale = np.sqrt(variance[AXES[nu]::3].max() * variance[AXES[nup]::3].max())
                    for s in (0, 1):
                        for sp in (0, 1):
                            req = CorrelatorRequest(0, s, sp, nu, nup, t, offsets, offsets)
                            table = correlator_table(req, field, separations)
                            expected = oracle[cells + 3 * s + AXES[nu], 3 * sp + AXES[nup]]
                            assert np.max(np.abs(table - expected)) <= rtol * scale, \
                                (t, offsets, nu, nup, s, sp)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        heat = heat_capacity(temperature, field)
    # c <= 3, its Dulong-Petit value
    assert abs(heat - full_space_heat_capacity(temperature, cfg, eq, full)) <= 3.0 * rtol
    bare = float(np.sum(omegas)) / (2 * cfg.n_ions)
    assert abs(correlation_energy(field) - full_space_correlation_energy(cfg, full)) \
        <= rtol * bare
    grid = np.array([0.0, 0.4, 1.1, 2.5])
    for nu in AXES:
        for s in (0, 1):
            chi = susceptibility(grid, (nu, s), field, eta=eta).chi
            expected = full_space_susceptibility(grid, (nu, s), cfg, full, eta)
            tol = rtol + backward / (2.0 * nf.omega[0] * eta)
            assert np.max(np.abs(chi - expected)) <= tol * np.max(np.abs(expected)), (nu, s)


def test_longitudinal_offset_closed_form(linear_field):
    # delocalizing the chain over the ring adds the uniform-distribution
    # variance N^2/12 to every same-axis axial correlator
    cfg, eq, field = linear_field
    base = spatial_correlator(CorrelatorRequest(3, 0, 0, "x", "x"), field)
    shifted = spatial_correlator(
        CorrelatorRequest(3, 0, 0, "x", "x",
                          include_longitudinal_zero_mode=True), field)
    assert shifted - base == pytest.approx(cfg.n_ions**2 / 12.0, rel=1e-12)


def test_transverse_correlations_oscillate_and_decay(linear_field):
    cfg, eq, field = linear_field
    values = [
        spatial_correlator(CorrelatorRequest(dj, 0, 0, "y", "y"), field)
        for dj in range(1, 7)
    ]
    assert values[0] * values[1] < 0.0  # initial sign oscillation
    assert abs(values[5]) < abs(values[0])


def test_out_of_plane_fluctuations_enhanced_by_soft_helical_mode():
    kc = 4.0 / (7.0 * 1.2020569031595942)
    results = {}
    for kappa in (kc - 0.05, kc + 0.05):
        cfg = ring(kappa, 64)
        eq = solve_delta0(cfg)
        req = CorrelatorRequest(0, 0, 0, "z", "z", include_radial_zero_mode=False)
        results[kappa] = spatial_correlator(req, PhononField(cfg, eq))
    assert results[kc + 0.05] > 1.5 * results[kc - 0.05]


def test_thermal_correlators_match_textbook_coth_formula():
    """Fully independent oracle: harmonic thermal equilibrium gives
    C = sum_m e_m e_m^T coth(w_m / 2T) / (2 w_m) over Hessian eigenmodes,
    with no ladder-operator machinery at all."""
    cfg = ring(0.6, 8)
    eq = solve_delta0(cfg)
    hess = build_hessian(cfg, eq)
    evals, evecs = np.linalg.eigh(hess.matrix)
    t = 0.25
    oracle = np.zeros((24, 24))
    for m in range(24):
        if evals[m] < 1e-10:
            continue  # zero modes carry no oscillator variance
        w = np.sqrt(evals[m])
        oracle += np.outer(evecs[:, m], evecs[:, m]) / np.tanh(w / (2 * t)) / (2 * w)
    oracle /= cfg.lam**2
    field = PhononField(cfg, eq)
    for dj in range(3):
        for nu in AXES:
            for nup in AXES:
                req = CorrelatorRequest(dj, 0, 1, nu, nup, temperature=t,
                                        include_radial_zero_mode=False)
                mine = spatial_correlator(req, field)
                a = 3 * (2 * dj + 0) + AXES[nu]
                b = 3 * 1 + AXES[nup]
                assert mine == pytest.approx(oracle[a, b], abs=1e-14)


def test_correlators_invariant_under_mode_phase_rotations(zigzag_field):
    """Every ladder average closes over one block's own modes, so the
    arbitrary per-mode eigenvector phases must drop out of all k sums.  The
    observables read each mode's screw vector (ion 0's phi, which the twist
    carries to ion 1), so rotating phi rotates the whole mode."""
    import copy

    cfg, eq, field = zigzag_field
    rotated = copy.copy(field)
    rng = np.random.default_rng(99)
    phases = np.exp(2j * np.pi * rng.random(field.omega.shape))
    rotated.phi = field.phi * phases[:, :, None]
    for dj, s, sp, nu, nup, t in ((0, 0, 0, "z", "z", 0.0),
                                  (2, 0, 1, "x", "y", 0.3),
                                  (4, 1, 1, "y", "y", 0.1)):
        req = CorrelatorRequest(dj, s, sp, nu, nup, temperature=t)
        a = spatial_correlator(req, field)
        b = spatial_correlator(req, rotated)
        assert a == pytest.approx(b, abs=1e-13)
    chi_a = susceptibility([0.5], ("y", 0), field)[0].chi
    chi_b = susceptibility([0.5], ("y", 0), rotated)[0].chi
    assert chi_a == pytest.approx(chi_b, rel=1e-12)


CONFIGS = st.builds(
    ChainConfig,
    kappa=st.floats(min_value=0.05, max_value=1.2),
    alpha=st.sampled_from([1.0, 1.5, 2.0]),
    n_ions=st.integers(2, 32).map(lambda h: 2 * h),
    boundary=st.sampled_from([Boundary.RING, Boundary.BULK]),
)


@settings(deadline=None, max_examples=40)
@given(config=CONFIGS)
def test_correlation_energy_is_never_positive(config):
    try:
        value = correlation_energy(PhononField(config, n_k=64))
    except PhysicsError:
        return
    assert value <= 0.0


@settings(deadline=None, max_examples=40)
@given(config=CONFIGS)
def test_heat_capacity_reaches_the_classical_limit(config):
    # each phonon mode gives 1 and each free-particle sector 1/2, so a ring
    # tends to 3 - n_zero / 2N; a bulk grid holds no zero pair and gives 3
    try:
        field = PhononField(config, n_k=64)
        value = heat_capacity(1e3, field)
    except PhysicsError:
        return
    n_zero = len(field.sectors()) if config.boundary is Boundary.RING else 0
    assert value == pytest.approx(3.0 - n_zero / (2 * config.n_ions), rel=1e-6)


@settings(deadline=None, max_examples=20)
@given(n_ions=st.integers(2, 32).map(lambda h: 2 * h),
       kappa=st.floats(min_value=0.2, max_value=0.9),
       alpha=st.sampled_from([1.0, 1.5]),
       temperature=st.floats(min_value=0.05, max_value=20.0))
# N = 4 at kappa 0.5 is the ring at its own kappa_c, where the free-particle
# sectors cannot be built
@example(n_ions=4, kappa=0.5, alpha=1.0, temperature=1.0)
def test_ring_zone_averages_are_the_per_ion_sums(n_ions, kappa, alpha, temperature):
    # a ring's grid holds N/2 momenta, so half the zone average of the cell
    # modes is their sum over N ions
    try:
        field = PhononField(ring(kappa, n_ions, alpha=alpha))
        heat = heat_capacity(temperature, field)
        energy = correlation_energy(field)
    except PhysicsError:
        return
    assert heat == pytest.approx(ring_heat_capacity(temperature, field), rel=1e-14, abs=0.0)
    assert energy == pytest.approx(ring_correlation_energy(field), rel=1e-14, abs=0.0)


@settings(deadline=None, max_examples=25)
@given(boundary=st.sampled_from([Boundary.RING, Boundary.BULK]),
       size=st.integers(2, 128),
       kappa=st.floats(min_value=1e-6, max_value=1.0),
       alpha=st.sampled_from([1.0, 1.5]),
       nu=st.sampled_from(list(AXES)),
       s=st.sampled_from([0, 1]),
       eta=st.floats(min_value=1e-4, max_value=0.5))
# the smallest ring, and a nearly flat band where many poles nearly coincide
@example(boundary=Boundary.RING, size=2, kappa=0.3, alpha=1.0, nu="y", s=0, eta=1e-2)
@example(boundary=Boundary.RING, size=16, kappa=1e-6, alpha=1.0, nu="y", s=0, eta=1e-3)
@example(boundary=Boundary.BULK, size=64, kappa=1e-6, alpha=1.5, nu="z", s=1, eta=1e-3)
def test_susceptibility_matches_the_per_term_sum(boundary, size, kappa, alpha, nu, s, eta):
    # size is a ring's N / 2 or a bulk grid's n_k
    if boundary is Boundary.RING:
        field = PhononField(ring(kappa, 2 * size, alpha=alpha))
    else:
        field = PhononField(bulk(kappa, alpha=alpha), n_k=size)
    grid = np.linspace(-0.5, 3.0, 71)
    chi = susceptibility(grid, (nu, s), field, eta=eta).chi
    oracle = per_term_susceptibility(grid, (nu, s), field, eta=eta)
    assert np.max(np.abs(chi - oracle)) <= 1e-12 * np.max(np.abs(oracle))


# midpoint-rule errors C n^-p of bulk zone sums against 8192 momenta, at
# the worst kappa measured (0.6): the heat capacity at T = 0.1, the
# correlation energy, and the x susceptibility at omega = 0.05 and eta = 0.1
# (at eta = 1e-2 it is not yet resolved on 64-256 momenta)
MIDPOINT_ERROR = {"heat": (1.2, 3), "energy": (0.16, 2), "chi": (0.4, 3)}


@settings(deadline=None, max_examples=10)
@given(kappa=st.floats(min_value=0.1, max_value=0.9),
       alpha=st.sampled_from([1.0, 1.5]),
       n_k=st.integers(64, 512))
# an odd grid once put its middle node on k = 0 and dropped the Goldstone
# slots there: c fell by 0.5 / n_k per gapless branch
@example(kappa=0.6, alpha=1.0, n_k=401)
@example(kappa=0.3, alpha=1.0, n_k=65)
def test_bulk_observables_agree_on_neighbouring_grids(kappa, alpha, n_k):
    cfg = bulk(kappa, alpha=alpha)
    try:
        eq = solve_delta0(cfg)
    except PhysicsError:
        return
    values = {name: [] for name in MIDPOINT_ERROR}
    for n in (n_k, n_k + 1):
        field = PhononField(cfg, eq, n_k=n)
        values["heat"].append(heat_capacity(0.1, field))
        values["energy"].append(correlation_energy(field))
        values["chi"].append(susceptibility([0.05], ("x", 0), field, eta=0.1).chi[0])
    for name, (scale, order) in MIDPOINT_ERROR.items():
        first, second = values[name]
        assert abs(first - second) <= 20.0 * scale * n_k ** -order, name


GLIDE_SIGN = {"x": 1.0, "y": -1.0, "z": 1.0}


@settings(deadline=None, max_examples=20)
@given(n_ions=st.integers(4, 64).map(lambda h: 2 * h),
       kappa=st.floats(min_value=0.2, max_value=0.9),
       alpha=st.sampled_from([1.0, 1.5]),
       temperature=st.sampled_from([0.0, 0.4]))
@example(n_ions=64, kappa=0.6, alpha=1.0, temperature=0.0)
def test_ring_correlators_obey_exchange_and_the_glide_mirror(n_ions, kappa, alpha, temperature):
    # exchange: <R_a(j) R_b(j - dj)> = <R_b(j) R_a(j + dj)>; glide (shift
    # by one ion, then y -> -y): the s = 1 same-sublattice correlators are
    # the s = 0 ones times sigma_nu sigma_nu'
    try:
        field = PhononField(ring(kappa, n_ions, alpha=alpha))
        field.sectors()
    except PhysicsError:
        return

    def table(s, sp, nu, nup, separations):
        req = CorrelatorRequest(0, s, sp, nu, nup, temperature, True, True)
        return correlator_table(req, field, separations)

    # |C_ab| <= sqrt(C_aa C_bb): the largest same-site variance bounds them all
    scale = max(table(0, 0, nu, nu, [0])[0] for nu in AXES)
    separations = np.arange(field.n_cells)
    for nu, nup in AXIS_PAIRS:
        for s, sp in ((0, 0), (0, 1), (1, 0), (1, 1)):
            exchanged = table(sp, s, nup, nu, separations)
            assert np.max(np.abs(table(s, sp, nu, nup, -separations) - exchanged)) \
                <= 1e-13 * scale, (nu, nup, s, sp)
        sign = GLIDE_SIGN[nu] * GLIDE_SIGN[nup]
        mirrored = sign * table(0, 0, nu, nup, separations)
        assert np.max(np.abs(table(1, 1, nu, nup, separations) - mirrored)) \
            <= 1e-13 * scale, (nu, nup)
