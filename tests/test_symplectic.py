"""Symplectic diagonalization, zero-mode completion, certificates."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionphonon import bloch, symplectic
from ionphonon.bloch import (
    CellCouplings,
    cell_amplitudes,
    dispersion_zigzag,
    mode_vectors_linear,
    ring_momenta,
)
from ionphonon.chain import (
    GENERATORS,
    Boundary,
    ChainConfig,
    Equilibrium,
    broken_symmetries,
    build_hessian,
    critical_kappa_classical,
    omega_from_hessian,
    solve_delta0,
)
from ionphonon.errors import (
    BareInstabilityError,
    DynamicalInstabilityError,
    InternalConsistencyError,
    PhysicsError,
    ZeroModeToleranceError,
)
from ionphonon.freeparticle import zero_mode_normal_form
from ionphonon.symplectic import (
    W_RESIDUAL_TOL,
    NormalForm,
    QuadraticForm,
    _bogoliubov,
    assemble_W,
    bogoliubov_amplitudes,
    build_quadratic_form,
    completeness_residual,
    k_matrix,
    sigma_apply,
    symplectic_diagonalize,
)
from oracles import (
    cell_normal_form,
    dense_W,
    eigen_residual,
    full_matrix,
    place_W,
    sigma_matrix,
    x_vector,
    y_vector,
    zero_pair_axis,
)


def chain_normal_form(kappa, n, boundary=Boundary.RING, alpha=1.0):
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)
    eq = solve_delta0(cfg)
    hess = build_hessian(cfg, eq)
    form = build_quadratic_form(hess, omega_from_hessian(hess))
    return symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=n), cfg


def random_stable_form(rng, dim):
    """Random real-symmetric stable form: h - g = diag(Omega) > 0, h+g > 0."""
    omega = rng.uniform(0.5, 2.0, dim)
    g = rng.normal(size=(dim, dim))
    g = 0.05 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    # shrink the coupling until K = h+g is safely positive definite
    while np.linalg.eigvalsh(k_matrix(g, omega)).min() < 0.05:
        g *= 0.5
    return QuadraticForm(g, omega)


class TestSmallBlocks:
    def test_single_oscillator(self):
        form = QuadraticForm(np.zeros((1, 1)), np.array([1.3]))
        nf = symplectic_diagonalize(form)
        assert len(nf.modes) == 1 and not nf.zero_pairs
        mode = nf.modes[0]
        assert mode.omega == pytest.approx(1.3)
        assert mode.u[0] == pytest.approx(1.0)
        assert mode.v[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("f", [0.3, -0.3])
    def test_paired_block_closed_form(self, f):
        # 2x2 coupling [(Omega+f, f), (f, Omega+f)] on (a, a^dag):
        # omega = sqrt((Omega+f)^2 - f^2), u/v from the standard squeezing
        omega_bare = 1.0
        a = omega_bare + f
        form = QuadraticForm(np.array([[f]]), np.array([omega_bare]))
        # the form holds g and Omega; h = Omega + g is implied
        nf = symplectic_diagonalize(form)
        w = np.sqrt(a**2 - f**2)
        mode = nf.modes[0]
        assert mode.omega == pytest.approx(w, rel=1e-14)
        assert mode.u[0] == pytest.approx(np.sqrt(a / (2 * w) + 0.5), rel=1e-13)
        assert mode.v[0] == pytest.approx(
            np.sign(f) * np.sqrt(a / (2 * w) - 0.5), rel=1e-13
        )

    def test_two_site_zero_pair_closed_form(self):
        # g = [[0, f], [f, 0]] with f = -W/2, so h = [[W, f], [f, W]]:
        # K = h+g = W [[1, -1], [-1, 1]] has kernel (1,1)/sqrt(2) and the
        # finite mode omega = sqrt(2) W.  Hand algebra for the pair with
        # p^dag p = 2: p = i (1,1,1,1)/sqrt(2), q = (1,1,-1,-1)/(2 sqrt(2)),
        # Sigma H q = -(i/m) p with m = 2/W, and q^dag q = 1/2.  The form
        # names the translation, which both sites on axis 0 place at (1, 1).
        w_bare = 0.8
        f = -w_bare / 2.0
        g = np.array([[0.0, f], [f, 0.0]])
        form = QuadraticForm(g, np.array([w_bare, w_bare]), generators=(0,))
        nf = symplectic_diagonalize(form, axis_map=np.array([0, 0]), p_norm=2.0)
        assert len(nf.modes) == 1 and len(nf.zero_pairs) == 1
        assert nf.modes[0].omega == pytest.approx(np.sqrt(2.0) * w_bare, rel=1e-13)
        zp = nf.zero_pairs[0]
        assert zp.m_tilde == pytest.approx(2.0 / w_bare, rel=1e-13)
        assert np.vdot(zp.p, zp.p).real == pytest.approx(2.0, rel=1e-13)
        assert np.vdot(zp.q, zp.q).real == pytest.approx(0.5, rel=1e-13)
        assert np.vdot(zp.q, sigma_apply(zp.p)) == pytest.approx(1j, abs=1e-12)
        h_full = full_matrix(form)
        lhs = sigma_apply(h_full @ zp.q)
        assert np.max(np.abs(lhs + 1j / zp.m_tilde * zp.p)) < 1e-12
        assert np.max(np.abs(sigma_apply(h_full @ zp.p))) < 1e-12

    def test_mixed_kernel_is_not_an_axis_zero_pair(self):
        # the same block with its two sites on two axis classes: the kernel
        # (1, 1)/sqrt(2) moves both, so no broken symmetry of one axis
        # accounts for it
        w_bare = 0.8
        g = np.array([[0.0, -w_bare / 2.0], [-w_bare / 2.0, 0.0]])
        form = QuadraticForm(g, np.array([w_bare, w_bare]))
        with pytest.raises(ZeroModeToleranceError):
            symplectic_diagonalize(form, axis_map=np.array([0, 1]), p_norm=2.0)

    def test_a_named_generator_needs_its_axis_in_the_axis_map(self):
        form = QuadraticForm(np.zeros((2, 2)), np.array([1.0, 1.0]), generators=(2,))
        with pytest.raises(ValueError, match="radial generator"):
            symplectic_diagonalize(form, axis_map=np.array([0, 0]))


class TestRandomFormProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    # a draw whose h + diag(Omega) was positive definite but K = h + g not
    @example(6, 155696)
    def test_pairing_against_general_eigensolver(self, dim, seed):
        """The stated +-omega pairing with swap-conjugated partners, checked
        with scipy's general complex eigensolver as the independent oracle."""
        rng = np.random.default_rng(seed)
        form = random_stable_form(rng, dim)
        nf = symplectic_diagonalize(form)
        h_full = full_matrix(form)
        sigma = sigma_matrix(dim)
        eigvals, eigvecs = scipy.linalg.eig(sigma @ h_full)
        assert np.max(np.abs(eigvals.imag)) < 1e-9
        ours = np.sort(nf.omega)
        theirs = np.sort(eigvals.real)[dim:]
        assert np.max(np.abs(ours - theirs)) < 1e-9
        for mode in nf.modes:
            assert eigen_residual(form, mode) < 1e-10
            y = y_vector(mode)
            resid = sigma_apply(h_full @ y) + mode.omega * y
            assert np.max(np.abs(resid)) < 1e-10  # -omega partner

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    def test_commutator_algebra_relations(self, dim, seed):
        rng = np.random.default_rng(seed)
        form = random_stable_form(rng, dim)
        nf = symplectic_diagonalize(form)
        xs = [x_vector(m) for m in nf.modes]
        ys = [y_vector(m) for m in nf.modes]
        for r, xr in enumerate(xs):
            for s, xz in enumerate(xs):
                assert np.vdot(xr, sigma_apply(xz)) == pytest.approx(
                    1.0 if r == s else 0.0, abs=1e-10
                )
                assert np.vdot(ys[r], sigma_apply(ys[s])) == pytest.approx(
                    -1.0 if r == s else 0.0, abs=1e-10
                )
                assert np.vdot(xr, sigma_apply(ys[s])) == pytest.approx(0.0, abs=1e-10)
        assert completeness_residual(nf) < 1e-10


class TestChainCertificates:
    def test_completeness_linear_chain(self):
        nf, _ = chain_normal_form(0.3, 16)
        assert completeness_residual(nf) < 1e-10

    def test_completeness_zigzag_two_zero_pairs(self):
        nf, _ = chain_normal_form(0.6, 16)
        assert len(nf.zero_pairs) == 2
        assert completeness_residual(nf) < 1e-10

    def test_zero_pair_scalar_products(self):
        nf, cfg = chain_normal_form(0.6, 16)
        for zp in nf.zero_pairs:
            assert np.vdot(zp.q, sigma_apply(zp.p)) == pytest.approx(1j, abs=1e-10)
            assert np.vdot(zp.p, zp.p).real == pytest.approx(cfg.n_ions, rel=1e-12)
            assert np.vdot(zp.q, zp.q).real == pytest.approx(1.0 / cfg.n_ions, rel=1e-12)
            assert abs(np.vdot(zp.p, sigma_apply(zp.p))) < 1e-12
            assert abs(np.vdot(zp.q, sigma_apply(zp.q))) < 1e-12

    def test_zero_pairs_orthogonal_to_modes(self):
        nf, _ = chain_normal_form(0.6, 12)
        for zp in nf.zero_pairs:
            for mode in nf.modes:
                x = x_vector(mode)
                assert abs(np.vdot(zp.p, sigma_apply(x))) < 1e-10
                assert abs(np.vdot(zp.q, sigma_apply(x))) < 1e-10

    def test_mode_count_matches_dimension(self):
        nf, cfg = chain_normal_form(0.6, 12)
        assert len(nf.modes) + len(nf.zero_pairs) == nf.dimension == 3 * cfg.n_ions

    def test_mass_extensivity(self):
        # N enters only through the zero-pair normalization when the bulk
        # (N-independent) cell couplings feed the diagonalizer
        from ionphonon.bloch import CELL_AXIS_MAP

        masses = {}
        for n in (16, 32):
            cfg = ChainConfig(kappa=0.3, n_ions=n, boundary=Boundary.BULK)
            block = CellCouplings(cfg, solve_delta0(cfg)).block(0.0)
            nf = symplectic_diagonalize(block, axis_map=CELL_AXIS_MAP, p_norm=n)
            masses[n] = nf.zero_pairs[0].m_tilde
        assert masses[32] / masses[16] == pytest.approx(2.0, abs=1e-6)

    def test_mass_extensivity_full_space_scaling(self):
        # the N-folded full-space representation keeps m_tilde extensive up
        # to its 1/N^3 self-image correction
        masses = {}
        for n in (16, 32):
            nf, _ = chain_normal_form(0.3, n, Boundary.BULK)
            masses[n] = nf.zero_pairs[0].m_tilde
        assert masses[32] / masses[16] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("offset", [-1e-10, 1e-10])
def test_full_space_beside_own_transition(boundary, n, alpha, offset):
    """1e-10 from a chain's own kappa_c the soft mode sits just above the zero
    threshold; the zero pairs still come out exact and the form complete."""
    from ionphonon.freeparticle import goldstone_branches

    kappa = critical_kappa_classical(
        ChainConfig(kappa=0.3, alpha=alpha, n_ions=n, boundary=boundary)) + offset
    nf, cfg = chain_normal_form(kappa, n, boundary, alpha)
    assert len(nf.zero_pairs) == len(goldstone_branches(cfg, solve_delta0(cfg)))
    assert completeness_residual(nf) <= 1e-10
    assemble_W(nf)
    k_mat = k_matrix(nf.form.g, nf.form.omega_bare)
    scale = max(1.0, np.max(np.abs(k_mat)))
    for zp in nf.zero_pairs:
        w = zp.p[: nf.dimension].imag  # p = i c (w, w)
        w = w / np.linalg.norm(w)
        assert np.max(np.abs(k_mat @ w)) <= 1e-14 * scale


@pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
@pytest.mark.parametrize("n, alpha", [
    *(pytest.param(n, 1.0, id=str(n)) for n in (4, 8, 16, 32)),
    *(pytest.param(n, alpha, id=f"{alpha}-{n}")
      for alpha in (0.7, 0.8, 0.9) for n in range(4, 33, 4)),
])
def test_linear_chain_below_own_transition_has_no_radial_pair(boundary, n, alpha):
    """Within 1e-12 below its z-buckling point alpha kappa_c the soft z
    zone-edge mode has the rotation's pattern, but the linear chain breaks
    no rotation: the translation is the one zero pair, or the soft modes
    raise (at alpha = 1 the y and z ones together)."""
    kappa_c = critical_kappa_classical(ChainConfig(kappa=0.3, n_ions=n, boundary=boundary))
    for offset in np.linspace(2e-13, 1e-12, 9):
        try:
            nf, _ = chain_normal_form(alpha * kappa_c - offset, n, boundary, alpha)
        except ZeroModeToleranceError as exc:
            assert f"{2 if alpha == 1.0 else 1} zero mode(s)" in str(exc)
            continue
        assert [zp.label for zp in nf.zero_pairs] == ["longitudinal"]


@pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
def test_off_equilibrium_zigzag_fails_on_its_radial_generator(boundary):
    """1e-9 off the zigzag's delta0 the rotation is no zero mode of the
    Hessian; both paths name the generator instead of dropping its pair."""
    cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=boundary)
    off = Equilibrium(solve_delta0(cfg).delta0 * (1.0 + 1e-9))
    hess = build_hessian(cfg, off)
    form = build_quadratic_form(hess, omega_from_hessian(hess))
    with pytest.raises(ZeroModeToleranceError, match="the radial generator"):
        symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=16)
    with pytest.raises(ZeroModeToleranceError, match="the radial generator"):
        CellCouplings(cfg, off).k0_modes()  # the k = 0 normal form's modes


@st.composite
def configs_near_transitions(draw, max_ions=32):
    """Chain configs of 4 to ``max_ions`` ions, half of them within 1e-14 to
    1e-2 of kappa_c or alpha kappa_c (where the linear chain buckles along y
    or along z)."""
    boundary = draw(st.sampled_from([Boundary.RING, Boundary.BULK]))
    n = 2 * draw(st.integers(2, max_ions // 2))
    alpha = draw(st.sampled_from([1.0, 1.0 + 5e-13, 0.7, 0.9, 1.5])
                 | st.floats(min_value=0.5, max_value=3.0))
    if draw(st.booleans()):
        kappa = draw(st.floats(min_value=0.05, max_value=1.2))
    else:
        kappa_c = critical_kappa_classical(
            ChainConfig(kappa=0.3, alpha=alpha, n_ions=n, boundary=boundary))
        centre = draw(st.sampled_from([kappa_c, alpha * kappa_c]))
        offset = 10.0 ** draw(st.floats(min_value=-14.0, max_value=-2.0))
        kappa = centre + draw(st.sampled_from([-1.0, 1.0])) * offset
    return ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)


@settings(deadline=None, max_examples=100)
@given(configs_near_transitions())
# just below a chain's z-buckling point the soft z zone-edge mode once
# passed as the rotation on both paths
@example(ChainConfig(kappa=0.35, alpha=0.7, n_ions=4))
@example(ChainConfig(kappa=0.3339846068369559, alpha=0.7, n_ions=16))
@example(ChainConfig(kappa=0.332762949032083, alpha=0.7, n_ions=32, boundary=Boundary.BULK))
def test_zero_pairs_are_the_owners_generators(cfg):
    """The full-space path and the k = 0 cell block each end in a named
    PhysicsError, or hold one zero pair per broken symmetry, labelled as
    ``chain.broken_symmetries`` names them."""
    from ionphonon.bloch import CellCouplings

    def labels(build):
        try:
            return sorted(zp.label for zp in build().zero_pairs)
        except PhysicsError:
            return None

    def full_space():
        hess = build_hessian(cfg, eq)
        form = build_quadratic_form(hess, omega_from_hessian(hess))
        nf = symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=cfg.n_ions)
        assemble_W(nf)
        return nf

    try:
        eq = solve_delta0(cfg)
    except PhysicsError:
        return
    owner = sorted(GENERATORS[axis][0] for axis in broken_symmetries(cfg, eq))
    for found in (labels(full_space),
                  labels(lambda: cell_normal_form(CellCouplings(cfg, eq), 0.0))):
        assert found is None or found == owner


@settings(deadline=None, max_examples=30)
@given(configs_near_transitions())
def test_normal_form_keeps_each_mode_in_its_sector(cfg):
    """Each mode's u and v vanish outside the sector it is recorded in, each
    zero pair lies in one sector, and the per-sector certificate is the
    whole-block one: to 1e-14 of the largest |u|^2, since a soft mode's
    amplitudes grow as omega^(-1/2) and the two certificates round their
    sums in different orders."""
    try:
        hess = build_hessian(cfg, solve_delta0(cfg))
        form = build_quadratic_form(hess, omega_from_hessian(hess))
        nf = symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=cfg.n_ions)
    except PhysicsError:
        return
    entries = form.sectors or (np.arange(form.dimension),)
    assert len(nf.sector_rows) == len(entries)
    assert np.array_equal(np.sort(np.concatenate(nf.sector_rows)), np.arange(len(nf.omega)))
    for i, rows in zip(entries, nf.sector_rows):
        outside = np.ones(form.dimension, dtype=bool)
        outside[i] = False
        assert not np.any(nf.u[rows][:, outside]) and not np.any(nf.v[rows][:, outside])
    for zp in nf.zero_pairs:
        support = np.flatnonzero(np.any(np.vstack([zp.p, zp.q]).reshape(4, -1) != 0, axis=0))
        assert any(np.all(np.isin(support, i)) for i in entries), zp.label
    whole = NormalForm(nf.omega, nf.u, nf.v, nf.zero_pairs, dataclasses.replace(form, sectors=()))
    scale = max(1.0, float(np.max(np.abs(nf.u))) ** 2)
    assert abs(completeness_residual(nf) - completeness_residual(whole)) <= 1e-14 * scale


# ring and bulk, linear and zigzag, alpha 1 and 1.5: (boundary, kappa, alpha, n, zero pairs)
FULL_SPACE_CASES = [
    (Boundary.RING, 0.3, 1.0, 32, 1),
    (Boundary.RING, 0.6, 1.0, 64, 2),
    (Boundary.RING, 0.6, 1.5, 16, 1),
    (Boundary.BULK, 0.3, 1.5, 64, 1),
    (Boundary.BULK, 0.6, 1.0, 32, 2),
    (Boundary.BULK, 0.75, 1.0, 64, 2),
]


def placed_W(nf):
    """Dense W and W^-1 placed from the sector blocks of ``assemble_W``."""
    return place_W(assemble_W(nf), nf.dimension)


class TestAssembleW:
    def test_single_oscillator_identity(self):
        form = QuadraticForm(np.zeros((1, 1)), np.array([1.0]))
        blocks = assemble_W(symplectic_diagonalize(form))
        assert len(blocks) == 1
        w, w_inv = place_W(blocks, 1)
        assert np.max(np.abs(w - np.eye(2))) < 1e-14
        assert np.max(np.abs(w_inv - np.eye(2))) < 1e-14

    def test_inverse_without_inversion(self):
        nf, _ = chain_normal_form(0.3, 8)
        w, w_inv = placed_W(nf)
        dim = nf.dimension
        assert np.max(np.abs(w @ w_inv - np.eye(2 * dim))) < 1e-11
        sigma = sigma_matrix(dim)
        sigma_tilde = w.conj().T @ sigma @ w
        assert np.max(np.abs(sigma_tilde @ sigma_tilde - np.eye(2 * dim))) < 1e-10
        assert np.max(np.abs(sigma_tilde - sigma_tilde.conj().T)) < 1e-10

    def test_sigma_tilde_squares_to_identity_with_zero_pairs(self):
        nf, _ = chain_normal_form(0.6, 8)
        w, _ = placed_W(nf)
        sigma = sigma_matrix(nf.dimension)
        sigma_tilde = w.conj().T @ sigma @ w
        assert np.max(np.abs(sigma_tilde @ sigma_tilde - np.eye(2 * nf.dimension))) < 1e-10

    @pytest.mark.parametrize("boundary, kappa, alpha, n, pairs", FULL_SPACE_CASES)
    def test_blocks_are_the_dense_reference(self, boundary, kappa, alpha, n, pairs):
        nf, _ = chain_normal_form(kappa, n, boundary, alpha)
        dim = nf.dimension
        blocks = assemble_W(nf)
        assert len(blocks) == len(nf.form.sectors) and sum(len(b.rows) for b in blocks) == 2 * dim
        for index in ("rows", "columns"):
            every = np.concatenate([getattr(b, index) for b in blocks])
            assert np.array_equal(np.sort(every), np.arange(2 * dim))
        w_ref, w_inv_ref = dense_W(nf)
        inside = np.zeros((2 * dim, 2 * dim), dtype=bool)
        for b in blocks:
            assert np.all(np.diff(b.rows) > 0) and np.all(np.diff(b.columns) > 0)
            # bitwise, block by block; the reference holds -0.0 where -v
            # vanishes outside the blocks, which placing writes as 0.0
            assert b.w.tobytes() == w_ref[np.ix_(b.rows, b.columns)].tobytes()
            assert b.w_inv.tobytes() == w_inv_ref[np.ix_(b.columns, b.rows)].tobytes()
            assert np.max(np.abs(b.w @ b.w_inv - np.eye(len(b.rows)))) < 1e-11
            inside[np.ix_(b.rows, b.columns)] = True
        assert np.all(w_ref[~inside] == 0.0) and np.all(w_inv_ref[~inside.T] == 0.0)
        w, w_inv = place_W(blocks, dim)
        assert np.array_equal(w, w_ref) and np.array_equal(w_inv, w_inv_ref)

    def test_a_normal_form_built_by_hand_is_one_block(self):
        nf, _ = chain_normal_form(0.6, 8)
        by_hand = NormalForm(nf.omega, nf.u, nf.v, nf.zero_pairs, nf.form)
        (block,) = assemble_W(by_hand)
        everything = np.arange(2 * nf.dimension)
        assert np.array_equal(block.rows, everything) and np.array_equal(block.columns, everything)
        w_ref, w_inv_ref = dense_W(by_hand)
        assert block.w.tobytes() == w_ref.tobytes()
        assert block.w_inv.tobytes() == w_inv_ref.tobytes()

    def test_blocks_are_read_only(self):
        nf, _ = chain_normal_form(0.6, 8)
        block = assemble_W(nf)[0]
        for arr in (block.rows, block.columns, block.w, block.w_inv):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.w = np.zeros_like(block.w)

    def test_allocates_little_beyond_its_blocks(self):
        # two dense 2D x 2D arrays were 1.8 times the blocks of a zigzag
        # (sectors xy and z); the blocks alone are the floor
        nf, _ = chain_normal_form(0.6, 64)
        assert len(nf.form.sectors) == 2
        completeness_residual(nf)  # cached, as assemble_W reads it
        tracemalloc.start()
        try:
            blocks = assemble_W(nf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(b.w.nbytes + b.w_inv.nbytes for b in blocks)
        assert kept == 2 * 16 * (256**2 + 128**2)
        assert peak < 1.25 * kept


class TestBuildQuadraticForm:
    def test_neighbor_coupling_element(self):
        cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.RING)
        hess = build_hessian(cfg, solve_delta0(cfg))
        omega = omega_from_hessian(hess)
        form = build_quadratic_form(hess, omega)
        # x-branch nearest neighbor: V = -kappa -> g = -kappa / (2 Omega_x)
        assert form.g[0, 3] == pytest.approx(-cfg.kappa / (2.0 * omega[0]), rel=1e-14)

    def test_validate_rejects_non_hermitian_g(self):
        form = QuadraticForm(np.array([[0.0, 0.1], [0.2, 0.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="Hermitian"):
            form.validate()

    def test_h_minus_g_is_bare_diagonal(self):
        cfg = ChainConfig(kappa=0.5, n_ions=8, boundary=Boundary.RING)
        hess = build_hessian(cfg, solve_delta0(cfg))
        omega = omega_from_hessian(hess)
        form = build_quadratic_form(hess, omega)
        form.validate()
        assert np.array_equal(form.omega_bare, omega)
        assert np.all(np.diag(form.g) == 0.0)
        # the dense [[h, g], [g, h]] with h = g + diag(Omega)
        dim = form.dimension
        h_full = full_matrix(form)
        assert np.max(np.abs(h_full[:dim, :dim] - h_full[:dim, dim:] - np.diag(omega))) == 0.0
        assert np.array_equal(h_full[dim:, dim:], h_full[:dim, :dim])

    def test_ring_form_keeps_one_matrix(self):
        # the form stores g alone: one D x D array kept, two at the peak
        # (g and the frequency denominator); storing h as well kept two
        cfg = ChainConfig(kappa=0.6, n_ions=256, boundary=Boundary.RING)
        hess = build_hessian(cfg, solve_delta0(cfg))
        omega = omega_from_hessian(hess)
        unit = hess.matrix.nbytes
        tracemalloc.start()
        try:
            form = build_quadratic_form(hess, omega)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert form.dimension == 3 * cfg.n_ions
        assert kept <= 1.1 * unit
        assert peak < 2.5 * unit

    def test_rejects_nonpositive_bare_frequency(self):
        with pytest.raises(BareInstabilityError):
            build_quadratic_form(np.eye(2), np.array([1.0, -0.2]))


def test_dynamical_instability_reports_imaginary_frequencies():
    # expand around the linear configuration above the transition: the
    # transverse zone-edge mode has omega^2 < 0
    cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.RING)
    eq = Equilibrium(0.0)
    hess = build_hessian(cfg, eq)
    form = build_quadratic_form(hess, omega_from_hessian(hess))
    with pytest.raises(DynamicalInstabilityError) as err:
        symplectic_diagonalize(form)
    assert err.value.frequencies
    assert all(abs(f.real) < 1e-12 and f.imag > 0 for f in err.value.frequencies)


def without_rows(nf, rows):
    """The normal form with the modes at ``rows`` left out."""
    return NormalForm(nf.omega[rows], nf.u[rows], nf.v[rows], nf.zero_pairs, nf.form)


def test_assemble_w_rejects_inconsistent_mode_count():
    nf, _ = chain_normal_form(0.6, 8)
    with pytest.raises(InternalConsistencyError):
        assemble_W(without_rows(nf, slice(None, -1)))


def test_completeness_flags_a_missing_mode():
    nf, _ = chain_normal_form(0.6, 8)
    assert completeness_residual(without_rows(nf, slice(1, None))) > 0.1


def test_single_site_quadratic_form_has_no_coupling():
    form = build_quadratic_form(np.array([[1.69]]), np.array([1.3]))
    assert form.g == pytest.approx(np.array([[0.0]]))
    assert form.omega_bare == pytest.approx(np.array([1.3]))
    assert full_matrix(form) == pytest.approx(np.diag([1.3, 1.3]))


def test_completeness_trivial_oscillator():
    form = QuadraticForm(np.zeros((1, 1)), np.array([1.0]))
    assert completeness_residual(symplectic_diagonalize(form)) < 1e-14


class TestBlockCertificate:
    """The completeness certificate, from D x D blocks, against the dense
    max |W W^-1 - 1| of the assembled 2D x 2D matrices."""

    @staticmethod
    def dense_residual(nf):
        w, w_inv = placed_W(nf)
        return float(np.max(np.abs(w @ w_inv - np.eye(2 * nf.dimension))))

    @pytest.mark.parametrize("boundary, kappa, alpha, n, pairs", FULL_SPACE_CASES)
    def test_full_space_equals_dense_product(self, boundary, kappa, alpha, n, pairs):
        nf, _ = chain_normal_form(kappa, n, boundary, alpha)
        assert len(nf.zero_pairs) == pairs
        assert np.isrealobj(nf.u) and np.isrealobj(nf.v)
        dense = self.dense_residual(nf)
        assert abs(completeness_residual(nf) - dense) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
    def test_complex_bloch_form_equals_dense_product(self, boundary):
        from ionphonon.bloch import CellCouplings, ring_momenta

        cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=boundary)
        k = float(ring_momenta(16)[-3])
        nf = cell_normal_form(CellCouplings(cfg, solve_delta0(cfg)), k)
        assert k != 0.0 and np.iscomplexobj(nf.u)
        dense = self.dense_residual(nf)
        assert abs(completeness_residual(nf) - dense) <= 8 * np.finfo(float).eps

    def test_computed_once_per_normal_form(self, monkeypatch):
        cached = NormalForm.__dict__["_residual"]
        blocks, calls = cached.func, []

        def counted(nf):
            calls.append(nf)
            return blocks(nf)

        monkeypatch.setattr(cached, "func", counted)
        nf, _ = chain_normal_form(0.6, 16)
        residual = completeness_residual(nf)
        assemble_W(nf)
        assert completeness_residual(nf) == residual
        assert calls == [nf]

    def test_assemble_w_reads_the_cached_certificate(self):
        nf, _ = chain_normal_form(0.3, 8)
        completeness_residual(nf)
        vars(nf)["_residual"] = 2.0 * W_RESIDUAL_TOL
        with pytest.raises(InternalConsistencyError):
            assemble_W(nf)

    def test_cached_form_rejects_writes(self):
        nf, _ = chain_normal_form(0.6, 8)
        completeness_residual(nf)
        zp = nf.zero_pairs[0]
        for arr in (nf.omega, nf.u, nf.v, zp.p, zp.q):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            nf.omega = np.zeros_like(nf.omega)
        with pytest.raises(dataclasses.FrozenInstanceError):
            zp.p = np.zeros_like(zp.p)


@settings(deadline=None, max_examples=50)
@given(kappa=st.floats(min_value=0.2, max_value=0.9),
       alpha=st.sampled_from([1.0, 1.5]), n=st.integers(2, 32).map(lambda h: 2 * h))
# the kernel basis nearly along the axes: a 1e-6 projection once stood in
# for the helical zero mode, and completeness read 4.4e-11
@example(kappa=0.8633438409321761, alpha=1.0, n=4)
# just above the 16-ion ring's own kappa_c the soft mode (omega 2e-5) once
# mixed with the zero pairs, and completeness read 7.6e-8
@example(kappa=0.47712086701022277, alpha=1.0, n=16)
# at kappa_c itself the soft zone-edge modes are exact zeros beside the
# Goldstone ones: a PhysicsError
@example(kappa=0.47712086691022276, alpha=1.0, n=16)
def test_ring_full_space_invariants(kappa, alpha, n):
    """The full-space normal form is complete, holds one zero pair per broken
    symmetry, and has the Bloch bands' spectrum."""
    from ionphonon.bloch import CellCouplings, ring_momenta
    from ionphonon.freeparticle import goldstone_branches

    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=Boundary.RING)
    try:
        eq = solve_delta0(cfg)
        hess = build_hessian(cfg, eq)
        form = build_quadratic_form(hess, omega_from_hessian(hess))
        nf = symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=n)
        bands = CellCouplings(cfg, eq).bands(ring_momenta(n))
    except PhysicsError:
        return
    assert completeness_residual(nf) <= 1e-12
    assert len(nf.omega) + len(nf.zero_pairs) == 3 * n
    assert len(nf.zero_pairs) == len(goldstone_branches(cfg, eq))
    for zp in nf.zero_pairs:
        axis = zero_pair_axis(zp, hess.axis_map)
        assert axis is not None and (zp.label == "longitudinal") == (axis == 0)
    full = np.sort(np.concatenate([nf.omega, np.zeros(len(nf.zero_pairs))]))
    assert np.max(np.abs(full - np.sort(bands.omega.ravel()))) <= 1e-10


class TestSectors:
    """A full-space form carries the sectors its Hessian leaves uncoupled;
    each is diagonalized and certified on its own."""

    @pytest.mark.parametrize("boundary", [Boundary.RING, Boundary.BULK])
    @pytest.mark.parametrize("kappa, axes", [(0.3, [[0], [1], [2]]), (0.6, [[0, 1], [2]])])
    def test_linear_chain_has_three_sectors_and_the_zigzag_two(self, boundary, kappa, axes):
        cfg = ChainConfig(kappa=kappa, n_ions=16, boundary=boundary)
        hess = build_hessian(cfg, solve_delta0(cfg))
        form = build_quadratic_form(hess, omega_from_hessian(hess))
        assert [sorted(set(hess.axis_map[i])) for i in form.sectors] == axes
        form.validate()

    def test_bare_matrix_and_cell_blocks_carry_none(self):
        from ionphonon.bloch import CellCouplings, ring_momenta

        assert build_quadratic_form(np.eye(3), np.ones(3)).sectors == ()
        cfg = ChainConfig(kappa=0.3, n_ions=16)
        couplings = CellCouplings(cfg, solve_delta0(cfg))
        assert couplings.block(float(ring_momenta(16)[-3])).sectors == ()
        assert cell_normal_form(couplings, 0.0).form.sectors == ()

    @pytest.mark.parametrize("sectors", [
        (np.array([0, 1]), np.array([1, 2])),   # overlap
        (np.array([0]), np.array([2])),         # a gap
        (np.array([1, 0]), np.array([2])),      # not ascending
    ])
    def test_validate_rejects_sectors_that_are_no_partition(self, sectors):
        form = QuadraticForm(np.zeros((3, 3)), np.ones(3), sectors=sectors)
        with pytest.raises(ValueError, match="partition"):
            form.validate()

    def test_validate_rejects_g_between_sectors(self):
        g = np.zeros((3, 3))
        g[0, 2] = g[2, 0] = 1e-300
        form = QuadraticForm(g, np.ones(3), sectors=(np.array([0, 1]), np.array([2])))
        with pytest.raises(ValueError, match="couples two sectors"):
            form.validate()

    @pytest.mark.parametrize("entry", [(0, 1), (2, 2)])
    def test_validate_rejects_a_non_hermitian_sector(self, entry):
        # Hermiticity is checked per sector, against the scale of the whole g
        g = np.zeros((3, 3), dtype=complex)
        g[0, 1] = g[1, 0] = 5.0
        g[entry] += 1e-6j
        form = QuadraticForm(g, np.ones(3), sectors=(np.array([0, 1]), np.array([2])))
        with pytest.raises(ValueError, match="not Hermitian"):
            form.validate()
        g[entry] -= 1e-6j
        g[entry] += 1e-10j  # within HERMITIAN_TOL * max(1, max|g|) = 5e-10
        form.validate()

    def test_a_generator_split_across_sectors_is_named(self):
        cfg = ChainConfig(kappa=0.3, n_ions=8)
        hess = build_hessian(cfg, solve_delta0(cfg))
        form = build_quadratic_form(hess, omega_from_hessian(hess))
        axis_map = hess.axis_map.copy()
        axis_map[1] = 0  # a y entry joins the x translation
        with pytest.raises(ValueError, match="longitudinal generator in more than one sector"):
            symplectic_diagonalize(form, axis_map=axis_map, p_norm=8)

    @pytest.mark.parametrize("kappa", [0.3, 0.6])
    def test_completeness_flags_a_missing_mode(self, kappa):
        nf, _ = chain_normal_form(kappa, 8)
        assert nf.form.sectors
        assert completeness_residual(without_rows(nf, slice(1, None))) > 0.1

    def test_rows_mixed_across_sectors_take_the_whole_block(self):
        # rotating two mode rows of different sectors leaves P and Q as
        # they are, but puts entries between the sectors
        nf, _ = chain_normal_form(0.6, 16)
        rows = [int(np.flatnonzero(np.any(nf.u[:, i] != 0, axis=1))[0]) for i in nf.form.sectors]
        rot = np.eye(len(nf.omega))
        rot[np.ix_(rows, rows)] = [[0.6, 0.8], [-0.8, 0.6]]
        mixed = NormalForm(nf.omega, rot @ nf.u, rot @ nf.v, nf.zero_pairs, nf.form)
        assert completeness_residual(mixed) <= 1e-13
        missing = without_rows(mixed, slice(1, None))
        whole = dataclasses.replace(nf.form, sectors=())
        assert completeness_residual(missing) == completeness_residual(
            NormalForm(missing.omega, missing.u, missing.v, nf.zero_pairs, whole)) > 0.01


@settings(deadline=None, max_examples=100)
@given(kappa=st.floats(min_value=0.2, max_value=0.9),
       alpha=st.sampled_from([1.0, 1.5]), n=st.integers(2, 24).map(lambda h: 2 * h),
       boundary=st.sampled_from([Boundary.RING, Boundary.BULK]), linear=st.booleans())
# 1e-10 below and above the 16-ion ring's kappa_c, and at it (a PhysicsError)
@example(kappa=0.47712086681022276, alpha=1.0, n=16, boundary=Boundary.RING, linear=False)
@example(kappa=0.47712086701022277, alpha=1.0, n=16, boundary=Boundary.RING, linear=False)
@example(kappa=0.47712086691022276, alpha=1.0, n=16, boundary=Boundary.RING, linear=False)
@example(kappa=0.47712086701022277, alpha=1.5, n=16, boundary=Boundary.RING, linear=False)
# the same beside the bulk kappa_c
@example(kappa=0.47537564137468997, alpha=1.0, n=16, boundary=Boundary.BULK, linear=False)
@example(kappa=0.47537564157468997, alpha=1.0, n=16, boundary=Boundary.BULK, linear=False)
@example(kappa=0.47537564147468997, alpha=1.5, n=8, boundary=Boundary.BULK, linear=False)
# the linear configuration above kappa_c: imaginary frequencies
@example(kappa=0.6, alpha=1.0, n=32, boundary=Boundary.RING, linear=True)
def test_sectors_match_the_one_eigh_path(kappa, alpha, n, boundary, linear):
    """The sectors give the one-``eigh`` path's normal form: omega^2 within
    1e-12 of the largest, the same zero pairs and masses, both complete; or
    the same PhysicsError, with the same imaginary frequencies.  ``linear``
    expands around delta0 = 0, which is unstable above kappa_c.

    omega^2 is what both paths compute to rounding; omega = sqrt(omega^2)
    magnifies that rounding at a soft mode: 1e-10 above the bulk kappa_c,
    omega^2 = 4.2e-10 agrees to 4.7e-16 and omega = 2.05e-5 to 1.2e-11."""
    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=boundary)
    try:
        hess = build_hessian(cfg, Equilibrium(0.0) if linear else solve_delta0(cfg))
        form = build_quadratic_form(hess, omega_from_hessian(hess))
    except PhysicsError:
        return
    assert len(form.sectors) in (2, 3)
    outcomes = []
    for f in (form, dataclasses.replace(form, sectors=())):
        try:
            outcomes.append(symplectic_diagonalize(f, axis_map=hess.axis_map, p_norm=n))
        except PhysicsError as exc:
            outcomes.append(exc)
    split, whole = outcomes
    assert type(split) is type(whole)
    if isinstance(whole, DynamicalInstabilityError):
        squares = [np.sort(np.square(np.imag(e.frequencies))) for e in outcomes]
        assert len(squares[0]) == len(squares[1])
        assert np.max(np.abs(squares[0] - squares[1])) <= 1e-12
    if isinstance(whole, PhysicsError):
        return
    squares = [np.square(nf.omega) for nf in outcomes]
    assert np.max(np.abs(squares[0] - squares[1])) <= 1e-12 * np.max(squares[1])
    assert [zp.label for zp in split.zero_pairs] == [zp.label for zp in whole.zero_pairs]
    for zp, zp_whole in zip(split.zero_pairs, whole.zero_pairs):
        assert zp.m_tilde == pytest.approx(zp_whole.m_tilde, rel=1e-12)
    assert completeness_residual(split) <= W_RESIDUAL_TOL
    assert completeness_residual(whole) <= W_RESIDUAL_TOL


class TestOneBogoliubovMap:
    """``symplectic.bogoliubov_amplitudes`` builds u and v on every path."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # every import site of bogoliubov_amplitudes in the package records the
        # shape of each call's root
        shapes = []

        def counting(e, root):
            shapes.append(np.shape(root))
            return bogoliubov_amplitudes(e, root)

        sites = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("ionphonon.") and hasattr(module, "bogoliubov_amplitudes")]
        assert symplectic in sites and bloch in sites
        for module in sites:
            monkeypatch.setattr(module, "bogoliubov_amplitudes", counting)
        return shapes

    def test_the_full_space_solve_reads_it(self, calls):
        # the 16-ion zigzag ring has two sectors, xy (32 entries) and z (16)
        nf, _ = chain_normal_form(0.6, 16)
        assert [len(i) for i in nf.form.sectors] == [32, 16]
        assert calls == [(32, 32), (16, 16)]

    def test_the_cell_amplitudes_read_it(self, calls):
        cfg = ChainConfig(kappa=0.6, n_ions=16)
        bands = dispersion_zigzag(ring_momenta(16), cfg)
        assert calls == []  # the bands build no amplitudes
        cell_amplitudes(bands.omega, bands.phi, bands.twist, bands.omega_bare)
        assert calls == [(8, 6, 6)]
        zero_mode_normal_form(cfg)  # the one runtime reader: its four set slots
        assert calls == [(8, 6, 6), (4, 6)]

    def test_the_linear_chain_reads_it(self, calls):
        u, v = mode_vectors_linear(1.0, "y", 0.3)
        assert calls == [()]
        assert u * u - v * v == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k_mat", [
        np.diag([-0.5, 0.0, 1.0]),
        np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.0], [0.0, 0.0, -1.0]]),
    ], ids=["real", "complex"])
    def test_a_column_without_a_mode_is_exactly_zero(self, k_mat):
        # lam <= 0 gives omega = 0, so root = 0 and u = v = 0 there, and the
        # phase step divides no zero column by its own modulus
        with np.errstate(all="raise"):
            lam, omega, u, v = _bogoliubov(k_mat, np.array([1.0, 2.0, 3.0]))
        empty = lam <= 0.0
        assert empty.sum() == (2 if np.isrealobj(k_mat) else 1)
        assert np.all(omega[empty] == 0.0) and np.all(omega[~empty] > 0.0)
        assert np.all(u[empty] == 0.0) and np.all(v[empty] == 0.0)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
        norms = np.sum(np.abs(u[~empty]) ** 2 - np.abs(v[~empty]) ** 2, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-14)


def test_phase_survives_a_one_ulp_nudge_of_tied_entries():
    """An open chain of equal oscillators is symmetric under reflection, so
    the largest |u| of each mode sits on two entries that tie within rounding.
    Phasing by the largest entry flipped some modes' signs under a one-ulp
    nudge of any Omega or of g[0, 1]; the lowest-index entry within 1e-9 of
    the largest does not."""
    n = 6
    g = np.zeros((n, n))
    g[np.arange(n - 1), np.arange(1, n)] = g[np.arange(1, n), np.arange(n - 1)] = 0.1
    base = symplectic_diagonalize(QuadraticForm(g, np.ones(n))).u
    for direction in (-1.0, 1.0):
        forms = []
        for j in range(n):
            omega = np.ones(n)
            omega[j] = np.nextafter(1.0, 1.0 + direction)
            forms.append(QuadraticForm(g, omega))
        nudged = g.copy()
        nudged[0, 1] = nudged[1, 0] = np.nextafter(0.1, 0.1 + direction)
        forms.append(QuadraticForm(nudged, np.ones(n)))
        for form in forms:
            u = symplectic_diagonalize(form).u
            assert np.max(np.abs(u - base)) < 1e-12
