"""The band core (``CellCouplings.bands``: closed-form screw blocks) against
per-k and full-space oracles."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionphonon import bloch, cli, symplectic
from ionphonon.bloch import (
    CellCouplings,
    dispersion_zigzag,
    reduced_zone_grid,
    ring_momenta,
)
from ionphonon.chain import (
    SUBLATTICE_MIRROR,
    Boundary,
    ChainConfig,
    Equilibrium,
    broken_symmetries,
    build_hessian,
    k0_pair_sums,
    solve_delta0,
)
from ionphonon.errors import (
    BareInstabilityError,
    DynamicalInstabilityError,
    PhysicsError,
    ZeroModeToleranceError,
)
from ionphonon.freeparticle import build_sectors, zero_mode_normal_form
from ionphonon.observables import PhononField
from ionphonon.symplectic import W_RESIDUAL_TOL, assemble_W, completeness_residual
from oracles import cell_normal_form
from test_symplectic import configs_near_transitions


def couplings(kappa, alpha=1.0, n=64, boundary=Boundary.RING):
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)
    return CellCouplings(cfg, solve_delta0(cfg))


def linear_couplings(kappa, n, boundary):
    """Couplings expanded around the linear chain, unstable past kappa_c."""
    cfg = ChainConfig(kappa=kappa, n_ions=n, boundary=boundary)
    return CellCouplings(cfg, Equilibrium(0.0))


def test_negative_onsite_curvature_is_a_bare_instability():
    # bulk linear chain past 1/zeta(3): Omega_y^2 = 1 - kappa zeta(3) < 0
    with pytest.raises(BareInstabilityError, match="on-site curvature"):
        linear_couplings(0.9, 64, Boundary.BULK)


def assert_matches_per_k_oracle(cc, grid):
    """bands(grid) against one 6 x 6 normal form per k of the same raw table.

    The per-k oracle is ``cell_normal_form`` on the grid's raw couplings
    (``normal_form(k)`` itself evaluates k as a grid of one, which a uniform
    grid's FFT rounds differently).  The band core solves
    the screw blocks in closed form instead, so:
    - omega agrees within 1e-12, and the zero slots to the bit;
    - the amplitudes agree up to each mode's phase, and inside a group of
      modes degenerate within 1e-9 up to a rotation of the group: per group,
      sum u u^dag, sum v v^dag and sum u v^dag agree within 1e-12 (1 + 1 /
      gap + 1 / omega^2) relative to their largest entry.  Eigenvectors are
      known to roundoff over gap, the distance to the row's nearest other
      frequency, and omega^2 to roundoff of the block's scale, which a soft
      mode's u ~ omega^-1/2 amplifies;
    - a -k row is the conjugate of its +k row to the bit.
    """
    bands = cc.bands(grid)
    raw = cc.raw_coupling(grid)
    for i, k in enumerate(grid):
        mirrored = k < -1e-12 and abs(k + np.pi / 2.0) >= 1e-12 \
            and np.min(np.abs(grid + k)) < 1e-9
        if mirrored:
            j = int(np.argmin(np.abs(grid + k)))
            assert np.array_equal(bands.omega[i], bands.omega[j])
            assert np.array_equal(bands.mask[i], bands.mask[j])
            assert np.array_equal(bands.u[i], bands.u[j].conj())
            assert np.array_equal(bands.v[i], bands.v[j].conj())
            continue
        nf = cell_normal_form(cc, k, raw[i])
        n_modes = len(nf.omega)
        assert np.array_equal(bands.mask[i], np.arange(6) < n_modes)
        assert np.max(np.abs(bands.omega[i, :n_modes] - nf.omega)) <= 1e-12
        assert np.array_equal(bands.omega[i, n_modes:], np.zeros(6 - n_modes))
        assert not np.any(bands.u[i, n_modes:]) and not np.any(bands.v[i, n_modes:])
        for group, gap in degenerate_groups(nf.omega):
            for a, b in (("u", "u"), ("v", "v"), ("u", "v")):
                got = getattr(bands, a)[i, group].T @ getattr(bands, b)[i, group].conj()
                want = getattr(nf, a)[group].T @ getattr(nf, b)[group].conj()
                tol = 1e-12 * (1.0 + 1.0 / gap + nf.omega[group[0]] ** -2) \
                    * max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= tol


def degenerate_groups(omega):
    """Runs of ascending ``omega`` within 1e-9, each with its distance to
    the nearest frequency outside it (inf for a single run)."""
    runs = np.split(np.arange(len(omega)), np.flatnonzero(np.diff(omega) > 1e-9) + 1)
    for run in runs:
        others = np.delete(omega, run)
        yield run, np.min(np.abs(others - omega[run[0]]), initial=np.inf)


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
            assert np.max(np.abs(bands.omega[i, :len(nf.omega)] - nf.omega)) <= 1e-12


def inject_screw_defects(monkeypatch, defects):
    """Add ``defects[row]`` to Re D_xy of both screw blocks of each row, in
    every ``CellCouplings``.

    The screw path reads no 6 x 6 block, and its blocks have no xz entry
    for a z defect to sit in: a broken Hermiticity of the same size is what
    it certifies against.
    """
    screw_table = CellCouplings._screw_table

    def defective(self, k0, n):
        table = screw_table(self, k0, n)
        for i, size in defects.items():
            table[i, :, 3] += size
        return table

    monkeypatch.setattr(CellCouplings, "_screw_table", defective)


def oracle_error(cc, grid, raw):
    """The error of the first block, in descending k, whose per-k 6 x 6
    normal form fails, with that block's k; (None, None) when none does."""
    for i in np.argsort(-grid, kind="stable"):
        try:
            cell_normal_form(cc, grid[i], raw[i])
        except (PhysicsError, ValueError) as exc:
            return exc, float(grid[i])
    return None, None


def assert_same_instability(got, want):
    """The same count of imaginary frequencies f, each within 1e-12 (1 +
    1 / |f|): both paths know f^2 to roundoff of the block's scale, which
    moves f by that over 2 |f| (2.4e-12 at |f| = 4.6e-5, on a 10-ion ring
    just past kappa_c)."""
    assert len(got.frequencies) == len(want.frequencies) > 0
    f = np.abs(want.frequencies)
    assert np.all(np.abs(np.subtract(got.frequencies, want.frequencies)) <= 1e-12 * (1.0 + 1.0 / f))


class TestFallback:
    """The screw checks raise the error class of the per-k 6 x 6 oracle for
    the first failing block in descending k, the block whose 6 x 6 normal
    form the band path once fell back to."""

    @pytest.mark.parametrize("boundary, grid", [
        (Boundary.RING, ring_momenta(64)),
        (Boundary.BULK, reduced_zone_grid(64, include_edge=False)),
    ])
    def test_instability_names_the_first_failing_block(self, boundary, grid):
        cc = linear_couplings(0.6, 64, boundary)
        expected, _ = oracle_error(cc, grid, cc.raw_coupling(grid))
        assert isinstance(expected, DynamicalInstabilityError)
        with pytest.raises(DynamicalInstabilityError) as err:
            cc.bands(grid)
        assert_same_instability(err.value, expected)

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
        expected, k = oracle_error(cc, grid, raw)
        assert type(expected) is PhysicsError
        inject_screw_defects(monkeypatch, {i: size for i, (_, size) in defects.items()})
        with pytest.raises(PhysicsError) as err:
            cc.bands(grid)
        assert type(err.value) is PhysicsError
        assert f"k={k} " in str(err.value)

    def test_generator_off_its_zero_names_the_k0_block(self):
        # off equilibrium the helical generator is no zero mode: D(pi)_zz
        # exceeds lam_tol, and both paths name the radial generator
        cfg = ChainConfig(kappa=0.6, n_ions=64)
        cc = CellCouplings(cfg, Equilibrium(solve_delta0(cfg).delta0 * (1.0 + 1e-4)))
        grid = ring_momenta(64)
        i = int(np.argmin(np.abs(grid)))
        with pytest.raises(ZeroModeToleranceError, match="radial generator"):
            cell_normal_form(cc, 0.0, cc.raw_coupling(grid)[i])
        with pytest.raises(ZeroModeToleranceError, match="the radial generator entry at k = 0"):
            cc.bands(grid)

    def test_stable_linear_chain_bands_match_per_k(self):
        # below kappa_c the folded linear chain has regular blocks only
        # (bulk) or the rigid-translation zero pair at k = 0 (ring)
        assert_matches_per_k_oracle(linear_couplings(0.3, 64, Boundary.RING),
                                    ring_momenta(64))


class TestDiagonalizationCount:
    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        for owner, name in ((bloch, "symplectic_diagonalize"), (np.linalg, "eigh")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("n, boundary, grid", [
        (64, Boundary.RING, ring_momenta(64)),
        (32, Boundary.BULK, reduced_zone_grid(64, include_edge=False)),
        (32, Boundary.BULK, reduced_zone_grid(64, include_edge=True)),
    ], ids=["ring", "bulk", "bulk-edge"])
    def test_sound_grid_runs_no_eigh(self, count, n, boundary, grid):
        # k = 0 and the zone edge included: every block in closed form
        couplings(0.6, n=n, boundary=boundary).bands(grid)
        assert count == []

    @pytest.mark.parametrize("boundary", ["ring", "bulk"])
    @pytest.mark.parametrize("kappa", ["0.3", "0.6"], ids=["linear", "zigzag"])
    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_no_command_diagonalizes_a_cell_block(self, monkeypatch, capsys, tmp_path,
                                                  command, kappa, boundary):
        # every import site of symplectic_diagonalize in the package refuses
        # it: the bands, the k = 0 normal form, the free-particle sectors and
        # the band errors all come from the screw blocks
        def refuse(*args, **kwargs):
            raise AssertionError("symplectic_diagonalize on a runtime path")

        sites = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("ionphonon.") and hasattr(module, "symplectic_diagonalize")]
        assert bloch in sites
        for module in sites:
            monkeypatch.setattr(module, "symplectic_diagonalize", refuse)
        argv = [command, "--kappa", kappa, "--boundary", boundary, "--n-ions", "16",
                "--k-points", "16", "--n-list", "16,32", "--t-steps", "3",
                "--omega-steps", "5", "--max-separation", "2", "--component", "y",
                "--output", str(tmp_path / "out.csv")]
        # the linear chain has no zigzag order parameter
        assert cli.main(argv) == (3 if (command, kappa) == ("ginzburg", "0.3") else 0)
        capsys.readouterr()

    @pytest.mark.parametrize("boundary", ["ring", "bulk"])
    @pytest.mark.parametrize("kappa", ["0.3", "0.6"], ids=["linear", "zigzag"])
    def test_field_commands_build_no_cell_amplitudes(self, monkeypatch, capsys, tmp_path,
                                                     kappa, boundary):
        # every import site of cell_amplitudes in the package refuses it: the
        # bands, the fields and their observables read omega and the screw
        # vectors alone; the modes table reads the amplitudes, so it fails
        def refuse(*args, **kwargs):
            raise AssertionError("cell_amplitudes on a field command")

        sites = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("ionphonon.") and hasattr(module, "cell_amplitudes")]
        assert bloch in sites
        for module in sites:
            monkeypatch.setattr(module, "cell_amplitudes", refuse)
        for command in ("heat-capacity", "energy-reduction", "correlations", "susceptibility",
                        "modes"):
            argv = [command, "--kappa", kappa, "--boundary", boundary, "--n-ions", "16",
                    "--k-points", "16", "--t-steps", "3", "--omega-steps", "5",
                    "--max-separation", "2", "--component", "y",
                    "--output", str(tmp_path / "out.csv")]
            if command == "modes":
                with pytest.raises(AssertionError, match="cell_amplitudes"):
                    cli.main(argv)
            else:
                assert cli.main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("boundary", ["ring", "bulk"])
    def test_no_command_builds_a_cell_table(self, monkeypatch, capsys, tmp_path, boundary):
        # the bands read the screw table, the k = 0 form the stored k = 0
        # sums: the 6 x 6 raw table is the tests' oracle alone
        def refuse(*args, **kwargs):
            raise AssertionError("CellCouplings.raw_coupling on a runtime path")

        monkeypatch.setattr(CellCouplings, "raw_coupling", refuse)
        for command in sorted(cli._RUNNERS):
            argv = [command, "--kappa", "0.6", "--boundary", boundary, "--n-ions", "16",
                    "--k-points", "16", "--n-list", "16", "--t-steps", "3",
                    "--omega-steps", "5", "--max-separation", "2", "--component", "y",
                    "--output", str(tmp_path / "out.csv")]
            assert cli.main(argv) == 0
        capsys.readouterr()


class TestZeroPairsLeaveTheBandCore:
    @pytest.fixture
    def refused(self, monkeypatch):
        # every import site of generator_pair in the package refuses it: the
        # band core's account of the generators is its zero slots alone
        def refuse(*args, **kwargs):
            raise AssertionError("generator_pair in the band core")

        sites = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("ionphonon.") and hasattr(module, "generator_pair")]
        assert sites
        for module in sites:
            monkeypatch.setattr(module, "generator_pair", refuse)

    @pytest.mark.parametrize("n, boundary, grid", [
        (64, Boundary.RING, ring_momenta(64)),
        (32, Boundary.BULK, reduced_zone_grid(65, include_edge=False)),
        (32, Boundary.BULK, reduced_zone_grid(64, include_edge=True)),
    ], ids=["ring", "bulk", "bulk-edge"])
    def test_bands_build_no_zero_pair(self, refused, n, boundary, grid):
        assert np.min(np.abs(grid)) < 1e-12  # each grid holds k = 0
        bands = couplings(0.6, n=n, boundary=boundary).bands(grid)
        assert (~bands.mask).sum() == 2
        assert not hasattr(bands, "zero_pairs")

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("kappa", [0.3, 0.6], ids=["linear", "zigzag"])
    def test_phonon_field_builds_no_zero_pair(self, refused, kappa, boundary):
        field = PhononField(ChainConfig(kappa=kappa, n_ions=16, boundary=boundary), n_k=16)
        assert not hasattr(field, "zero_pairs")


class TestZeroPairsStayInTheNormalForms:
    """Only the full-space solve and the k = 0 form build zero pairs; the
    free-particle sectors are closed forms."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # every import site of generator_pair in the package records the axis
        # of each call
        axes = []
        original = symplectic.generator_pair

        def counting(axis, *args, **kwargs):
            axes.append(axis)
            return original(axis, *args, **kwargs)

        for name, module in sorted(sys.modules.items()):
            if name.startswith("ionphonon.") and hasattr(module, "generator_pair"):
                monkeypatch.setattr(module, "generator_pair", counting)
        return axes

    def test_modes_builds_each_pair_once(self, calls, capsys, tmp_path):
        argv = ["modes", "--kappa", "0.6", "--n-ions", "16", "--output", str(tmp_path / "m.csv")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        cfg = ChainConfig(kappa=0.6, n_ions=16)
        assert calls == list(broken_symmetries(cfg, solve_delta0(cfg))) == [0, 2]

    @pytest.mark.parametrize("kappa", [0.3, 0.6], ids=["linear", "zigzag"])
    def test_ring_sectors_build_no_pair(self, calls, kappa):
        field = PhononField(ChainConfig(kappa=kappa, n_ions=16, boundary=Boundary.RING))
        assert field.sectors()
        assert calls == []

    def test_two_package_callers(self):
        # the functions of the package whose bodies call generator_pair
        callers = set()
        for path in sorted(Path(symplectic.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "generator_pair" for call in ast.walk(node)):
                    callers.add(f"{path.stem}.{node.name}")
        assert callers == {"symplectic.symplectic_diagonalize",
                           "freeparticle.zero_mode_normal_form"}


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("kappa, alpha", [(0.3, 1.0), (0.6, 1.0), (0.6, 1.5)],
                         ids=["linear", "zigzag", "zigzag-a1.5"])
def test_k0_normal_form_is_the_six_by_six_one(kappa, alpha, boundary):
    # the screw modes at k = 0 and the generator pairs against the 6 x 6
    # path: omega within 1e-12, the same form and zero pairs to the bit, and
    # a certificate within the bound assemble_W keeps; the free-particle
    # sectors carry those pairs' generator moves and masses
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=16, boundary=boundary)
    eq = solve_delta0(cfg)
    nf = zero_mode_normal_form(cfg, eq)
    oracle = CellCouplings(cfg, eq).normal_form(0.0)
    assert len(nf.omega) == len(oracle.omega)
    assert np.max(np.abs(nf.omega - oracle.omega)) <= 1e-12
    assert np.array_equal(nf.form.g, oracle.form.g)
    assert np.array_equal(nf.form.omega_bare, oracle.form.omega_bare)
    assert len(nf.zero_pairs) == len(oracle.zero_pairs) > 0
    for got, want in zip(nf.zero_pairs, oracle.zero_pairs):
        assert np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)
        assert got.m_tilde == want.m_tilde and got.label == want.label
    assert completeness_residual(nf) <= W_RESIDUAL_TOL
    assemble_W(nf)
    sectors = build_sectors(cfg, eq, nf.form.omega_bare)
    pairs = {zp.label: zp for zp in oracle.zero_pairs}
    for sector in sectors:
        want = pairs[sector.label]
        assert np.array_equal(sector.move, np.sign(want.u0.imag))
        assert sector.m_tilde == want.m_tilde
    assert len(sectors) == len(pairs) - (boundary is Boundary.BULK)


@pytest.mark.parametrize("grid", [
    np.array([]), 0.3, np.nan, np.zeros((2, 4)), np.array([0.1, np.nan]), [0.0, np.inf],
], ids=["empty", "scalar", "nan-scalar", "2-D", "nan", "inf"])
def test_malformed_grid_is_a_value_error(grid):
    # raw_coupling (and so block and the per-k oracle) takes one finite
    # momentum as a scalar; every other malformed grid fails there as in bands
    cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=Boundary.BULK)
    cc = CellCouplings(cfg, solve_delta0(cfg))
    calls = [lambda: cc.bands(grid), lambda: dispersion_zigzag(grid, cfg)]
    if np.ndim(grid) or not np.isfinite(grid):
        calls += [lambda: cc.raw_coupling(grid), lambda: cc.block(grid)]
    for call in calls:
        with pytest.raises(ValueError, match="k_grid must be a 1-D, non-empty and finite"):
            call()


@pytest.mark.parametrize("n_k", [0, -4, -3, 2.5, 64.5])
def test_empty_zone_grid_is_a_value_error(n_k):
    # a non-integral n_k would put a node on +pi/2 (2.5) or, rounded up in
    # bulk to 65, on k = 0 (64.5); a bulk field checks n_k before it rounds
    # an odd count up to even, so every message names the argument
    cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=Boundary.BULK)
    calls = [lambda: reduced_zone_grid(n_k), lambda: reduced_zone_grid(n_k, include_edge=False),
             lambda: PhononField(cfg, n_k=n_k)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"n_k must be at least 1 and an integer, "
                                                       f"got {n_k!r}")):
            call()


def test_soft_mode_error_states_its_k_and_lam():
    # far from any transition, at k = 2e-6 the softer gapless root of the
    # bulk zigzag (0.1387 k^2) falls below lam_tol: the error says where,
    # and by how much
    cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.BULK)
    with pytest.raises(ZeroModeToleranceError) as err:
        dispersion_zigzag(np.array([2e-6]), cfg)
    text = str(err.value)
    assert text.startswith("1 zero mode(s) that no symmetry generator explains at k = 2e-06: ")
    found = re.search(r"smallest lam = omega\^2 there is (\S+), within lam_tol = (\S+) of zero$",
                      text)
    lam, lam_tol = float(found[1]), float(found[2])
    assert 0.0 < lam < lam_tol and lam == pytest.approx(0.1387 * 2e-6**2, rel=0.01)
    assert lam_tol == pytest.approx(1.43e-12, rel=0.01)
    assert "transition" not in text


@settings(deadline=None, max_examples=100)
@given(cfg=configs_near_transitions(), linear=st.booleans(), include_edge=st.booleans())
def test_bands_end_in_the_oracles_outcome_class(cfg, linear, include_edge):
    """``bands`` and the per-k 6 x 6 oracle, run in descending k, both
    succeed or both raise the same class, an instability with the same
    imaginary frequencies; ``linear`` expands around the linear chain,
    unstable past kappa_c."""
    try:
        cc = CellCouplings(cfg, Equilibrium(0.0) if linear else solve_delta0(cfg))
    except PhysicsError:
        return
    grid = ring_momenta(cfg.n_ions) if cfg.boundary is Boundary.RING \
        else reduced_zone_grid(cfg.n_ions, include_edge=include_edge)
    expected, _ = oracle_error(cc, grid, cc.raw_coupling(grid))
    try:
        cc.bands(grid)
        got = None
    except (PhysicsError, ValueError) as exc:
        got = exc
    assert type(got) is type(expected), (got, expected)
    if isinstance(expected, DynamicalInstabilityError):
        assert_same_instability(got, expected)


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
    # the k = 0 normal form's block comes from the stored sums, to the bit
    form, want = cc.k0_block(), cc.block(0.0)
    assert np.array_equal(form.g, want.g) and np.array_equal(form.omega_bare, want.omega_bare)
    assert form.sectors == want.sectors and form.g.dtype == want.g.dtype


def test_k0_form_and_generator_check_run_no_fold_or_fft(monkeypatch):
    # both read the k = 0 sums that CellCouplings.__init__ folded already
    cc = couplings(0.6, n=32, boundary=Boundary.BULK)

    def refuse(*args, **kwargs):
        raise AssertionError("a fold or an FFT")

    for owner, name in ((np.fft, "fft"), (bloch, "fold_pair_blocks"),
                        (bloch, "fold_pair_entries"), (bloch, "power_law_sums")):
        monkeypatch.setattr(owner, name, refuse)
    cc.k0_block()
    cc.check_generators()


@pytest.mark.parametrize("kappa, alpha", [(0.3, 1.0), (0.6, 1.0), (0.6, 1.5)],
                         ids=["linear", "zigzag", "zigzag-a1.5"])
@pytest.mark.parametrize("n, boundary", [(16, Boundary.RING), (32, Boundary.BULK)],
                         ids=["ring", "bulk"])
def test_generator_check_reads_the_k0_screw_row(monkeypatch, kappa, alpha, n, boundary):
    # the row the check hands _check_rows holds the screw path's k = 0 roots
    # and generators, to rounding; at equilibrium it passes
    cc = couplings(kappa, alpha, n, boundary)
    seen, check = [], CellCouplings._check_rows
    monkeypatch.setattr(CellCouplings, "_check_rows",
                        lambda self, *args: seen.append(args) or check(self, *args))
    cc._screw_modes(np.zeros(1), cc._screw_table(0.0, 1))
    cc.check_generators()
    (k, lam, generator, table), (k0, lam0, generator0, table0) = seen
    assert np.array_equal(k0, k) and np.array_equal(generator0, generator)
    assert np.max(np.abs(lam0 - lam)) <= 1e-15
    assert np.max(np.abs(table0 - table)) <= 1e-15  # D(pi), then D(0)


@pytest.mark.parametrize("offset", [1e-4, 1e-9])
def test_off_equilibrium_bulk_field_names_the_radial_generator(offset):
    # a bulk grid holds no k = 0 row; the field checks its generators on the
    # k = 0 sums, so off delta0 the helical zero is named, not summed over
    cfg = ChainConfig(kappa=0.6, boundary=Boundary.BULK)
    off = Equilibrium(solve_delta0(cfg).delta0 * (1.0 + offset))
    with pytest.raises(ZeroModeToleranceError, match="the radial generator entry at k = 0"):
        PhononField(cfg, off)


@pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kappa", [0.3, 0.6], ids=["linear", "zigzag"])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_screw_blocks_hold_the_full_space_spectrum(alpha, kappa, n, boundary):
    # the N screw blocks D(p), p = k and k + pi over a ring's N / 2 reduced
    # momenta, split the 3N x 3N Hessian: their closed-form roots are its
    # eigenvalues (in bulk, those of its N-site fold)
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)
    eq = solve_delta0(cfg)
    cc = CellCouplings(cfg, eq)
    grid = ring_momenta(n)
    lam = cc._screw_modes(grid, cc._screw_table(grid[0], len(grid)))[0]
    full = np.linalg.eigvalsh(build_hessian(cfg, eq).matrix)
    assert np.max(np.abs(np.sort(lam.ravel()) - full)) <= 1e-13


def glide(k, c):
    """The glide (one site along the chain, then y -> -y) on cell vectors
    c[..., 6] of momentum k: ion 0 takes e^{-2ik} M times ion 1's entries,
    ion 1 M times ion 0's."""
    mirror = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    out = np.empty_like(c)
    out[..., 0::2] = np.exp(-2j * k) * c[..., 1::2]
    out[..., 1::2] = c[..., 0::2]
    return out * mirror


@settings(deadline=None, max_examples=30)
@given(kappa=st.floats(min_value=0.1, max_value=1.2),
       alpha=st.sampled_from([1.0, 1.5, 3.0]),
       n=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h),
       boundary=st.sampled_from(list(Boundary)),
       include_edge=st.booleans())
# the golden dispersion's config, whose branches 1 and 5 the overlap
# tracker swapped at k > 0
@example(kappa=0.6, alpha=1.0, n=16, boundary=Boundary.RING, include_edge=True)
def test_band_modes_have_a_glide_parity_and_one_sector(kappa, alpha, n, boundary, include_edge):
    """Every mode of the bands (here in ``dispersion_zigzag``'s branch
    order) is a glide eigenvector, e^{-ik} times a parity of +-1, and lies
    in the z or the in-plane sector; its label states both, and its root:
    upper or lower by omega in the zigzag, x or y on the linear chain.  Each
    branch keeps one label and one parity, the zero slots carry their
    generators' labels, and omega_b(-k) = omega_b(k) to the bit on every
    mirrored pair."""
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)
    grid = ring_momenta(n) if boundary is Boundary.RING \
        else reduced_zone_grid(n, include_edge=include_edge)
    try:
        eq = solve_delta0(cfg)
        bands = dispersion_zigzag(grid, cfg, eq)
    except PhysicsError:
        return
    assert np.array_equal(bands.labels, np.broadcast_to(bands.labels[0], bands.labels.shape))
    assert np.array_equal(np.sort(bands.labels[0]), np.arange(6))
    parities = np.zeros((len(grid), 6))
    for i, k in enumerate(grid):
        in_plane_modes = []
        for b in np.flatnonzero(bands.mask[i]):
            u, v = bands.u[i, b], bands.v[i, b]
            modes = np.stack([u, v])
            parity = np.real(np.exp(1j * k) * np.vdot(u, glide(k, u))) / np.vdot(u, u).real
            assert abs(abs(parity) - 1.0) <= 1e-12
            parities[i, b] = np.sign(parity)
            sign = np.sign(parity) * np.exp(-1j * k)
            scale = np.max(np.abs(modes))
            assert np.max(np.abs(glide(k, modes) - sign * modes)) <= 1e-12 * scale
            in_plane, z = np.max(np.abs(modes[:, :4])), np.max(np.abs(modes[:, 4:]))
            assert min(in_plane, z) <= 1e-13 * scale
            label = bands.labels[i, b]
            assert label // 3 == (parity < 0.0)
            assert (label % 3 == 2) == (z > in_plane)
            if z < in_plane:
                in_plane_modes.append((b, parity < 0.0))
        for b, odd in in_plane_modes:
            if eq.delta0 == 0.0:
                w = np.abs(bands.u[i, b]) ** 2
                lower = w[2] + w[3] > w[0] + w[1]
            else:
                lower = any(bands.omega[i, c] > bands.omega[i, b]
                            for c, odd_c in in_plane_modes if odd_c == odd)
            assert bands.labels[i, b] % 3 == lower
        zero_labels = {int(label) for label in bands.labels[i, ~bands.mask[i]]}
        generators = broken_symmetries(cfg, eq) if abs(k) < 1e-12 else ()
        # the x translation is D(0)'s lower root in the zigzag, its x root on
        # the linear chain
        translation = 0 if eq.delta0 == 0.0 else 1
        assert zero_labels == {translation if axis == 0 else 5 for axis in generators}
    for b in range(6):
        assert len(set(parities[bands.mask[:, b], b])) == 1
    for i, k in enumerate(grid):
        if 1e-12 < k < np.pi / 2.0 - 1e-12:
            j = int(np.argmin(np.abs(grid + k)))
            if abs(grid[j] + k) < 1e-12:
                assert np.array_equal(bands.omega[j], bands.omega[i])


@pytest.mark.parametrize("boundary", list(Boundary))
def test_grid_from_k0_numbers_the_helical_branch_by_its_generator(boundary):
    # isotropic zigzag on a grid whose first row is k = 0: the zero slots,
    # last in that row, keep their generators' labels, the rotation's 5
    # (odd, z) before the x translation's 1 (even, lower in-plane root), so
    # branch 4 is the gapless helical z branch at every k > 0
    cfg = ChainConfig(kappa=0.6, alpha=1.0, n_ions=16, boundary=boundary)
    grid = np.roll(ring_momenta(16), -4)
    assert grid[0] == 0.0
    bands = dispersion_zigzag(grid, cfg)
    assert not bands.mask[0, 4:].any()
    assert bands.labels[0, 4:].tolist() == [5, 1]
    for i, k in enumerate(grid[1:], start=1):
        u = bands.u[i, 4]
        assert np.max(np.abs(u[:4])) == 0.0
        parity = np.real(np.exp(1j * k) * np.vdot(u, glide(k, u))) / np.vdot(u, u).real
        assert parity == pytest.approx(-1.0, abs=1e-12)
    omega_z = bands.omega[1, bands.labels[1] % 3 == 2]
    assert bands.omega[1, 4] == omega_z.min()


@pytest.mark.parametrize("kappa, alpha", [(0.3, 1.5), (0.6, 1.0)])
@pytest.mark.parametrize("boundary, grid", [
    (Boundary.RING, ring_momenta(64)),
    (Boundary.BULK, reduced_zone_grid(64)),
], ids=["ring", "bulk"])
def test_zone_edge_modes_are_pairs_of_glide_partners(kappa, alpha, boundary, grid):
    # the real cell block at the edge holds D(-pi/2) and its conjugate
    # D(pi/2): every frequency twice, to the bit, the odd glide parity's
    # mode first, so a grid that starts at the edge numbers its branches
    # from the same order every time
    # (alpha = 1.5: at alpha = 1 the linear chain's y and z pairs coincide)
    bands = couplings(kappa, alpha, n=64, boundary=boundary).bands(grid)
    i = int(np.argmin(np.abs(grid + np.pi / 2.0)))
    k, omega, u = grid[i], bands.omega[i], bands.u[i]
    assert np.array_equal(omega[0::2], omega[1::2])
    parity = [np.real(np.exp(1j * k) * np.vdot(m, glide(k, m))) / np.vdot(m, m).real for m in u]
    assert np.allclose(parity, [-1.0, 1.0] * 3, rtol=0.0, atol=1e-12)


def sorted_tracker(bands):
    """Branch slots by greedy eigenvector overlap, one sorted() of the
    candidate pairs per k: the numbering that symmetry labels replaced."""
    slots = np.zeros((len(bands.k), 6), dtype=int)
    prev_u = np.zeros((6, 6), dtype=complex)
    prev_v = np.zeros((6, 6), dtype=complex)
    seen = np.zeros(6, dtype=bool)
    for i in range(len(bands.k)):
        overlap = np.abs(prev_u.conj() @ bands.u[i].T - prev_v.conj() @ bands.v[i].T)
        row = np.full(6, -1)
        for _, b, j in sorted((-overlap[b, j], b, j) for b in np.flatnonzero(seen)
                              for j in np.flatnonzero(bands.mask[i])):
            if row[b] < 0 and j not in row:
                row[b] = j
        row[row < 0] = [j for j in range(6) if j not in row]
        tracked = bands.mask[i, row]
        prev_u[tracked] = bands.u[i, row[tracked]]
        prev_v[tracked] = bands.v[i, row[tracked]]
        seen |= tracked
        slots[i] = row
    return slots


@pytest.mark.parametrize("kappa", [0.25, 0.5, 0.6, 0.75])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("case", ["ring64", "ring256", "ring1024", "bulk401",
                                  "bulk64", "bulk128"])
def test_branch_tracker_matches_sorted_greedy(kappa, alpha, case):
    # on grids this fine the symmetry labels number the branches as the
    # greedy overlap tracker did, slot for slot, so the benchmark's
    # dispersion tables keep their branch column (its reference check
    # merges the labels of degenerate modes; this does not)
    if case.startswith("bulk"):
        cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=32, boundary=Boundary.BULK)
        grid = reduced_zone_grid(int(case[4:]))
    else:
        cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=int(case[4:]))
        grid = ring_momenta(cfg.n_ions)
    eq = solve_delta0(cfg)
    bands = CellCouplings(cfg, eq).bands(grid)
    slots = sorted_tracker(bands)
    rows = np.arange(len(grid))[:, None]
    tracked = dispersion_zigzag(grid, cfg, eq)
    assert np.array_equal(tracked.omega, bands.omega[rows, slots])
    assert np.array_equal(tracked.mask, bands.mask[rows, slots])
    assert np.array_equal(tracked.u, bands.u[rows, slots])
