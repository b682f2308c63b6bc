"""Symplectic diagonalization, zero-mode completion, certificates."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ionphonon.chain import (
    Boundary,
    ChainConfig,
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
from ionphonon.symplectic import (
    W_RESIDUAL_TOL,
    NormalForm,
    QuadraticForm,
    assemble_W,
    build_quadratic_form,
    completeness_residual,
    sigma_apply,
    symplectic_diagonalize,
)
from oracles import (
    eigen_residual,
    full_matrix,
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
    k = g + np.diag(omega)
    # shrink the coupling until h+g is safely positive definite
    while np.linalg.eigvalsh(k).min() < 0.05:
        g *= 0.5
        k = g + np.diag(omega)
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
        # Sigma H q = -(i/m) p with m = 2/W, and q^dag q = 1/2.
        w_bare = 0.8
        f = -w_bare / 2.0
        g = np.array([[0.0, f], [f, 0.0]])
        form = QuadraticForm(g, np.array([w_bare, w_bare]))
        nf = symplectic_diagonalize(form, p_norm=2.0)
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


class TestRandomFormProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
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
        ours = np.sort(nf.frequencies())
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
        from ionphonon.bloch import CELL_AXIS_MAP, CellCouplings

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


class TestAssembleW:
    def test_single_oscillator_identity(self):
        form = QuadraticForm(np.zeros((1, 1)), np.array([1.0]))
        w, w_inv = assemble_W(symplectic_diagonalize(form))
        assert np.max(np.abs(w - np.eye(2))) < 1e-14
        assert np.max(np.abs(w_inv - np.eye(2))) < 1e-14

    def test_inverse_without_inversion(self):
        nf, _ = chain_normal_form(0.3, 8)
        w, w_inv = assemble_W(nf)
        dim = nf.dimension
        assert np.max(np.abs(w @ w_inv - np.eye(2 * dim))) < 1e-11
        sigma = sigma_matrix(dim)
        sigma_tilde = w.conj().T @ sigma @ w
        assert np.max(np.abs(sigma_tilde @ sigma_tilde - np.eye(2 * dim))) < 1e-10
        assert np.max(np.abs(sigma_tilde - sigma_tilde.conj().T)) < 1e-10

    def test_sigma_tilde_squares_to_identity_with_zero_pairs(self):
        nf, _ = chain_normal_form(0.6, 8)
        w, _ = assemble_W(nf)
        sigma = sigma_matrix(nf.dimension)
        sigma_tilde = w.conj().T @ sigma @ w
        assert np.max(np.abs(sigma_tilde @ sigma_tilde - np.eye(2 * nf.dimension))) < 1e-10


class TestBuildQuadraticForm:
    def test_neighbor_coupling_element(self):
        cfg = ChainConfig(kappa=0.3, n_ions=64, boundary=Boundary.RING)
        hess = build_hessian(cfg, solve_delta0(cfg))
        omega = omega_from_hessian(hess)
        form = build_quadratic_form(hess, omega)
        # x-branch nearest neighbor: V = -kappa -> g = -kappa / (2 Omega_x)
        assert form.g[0, 3] == pytest.approx(-cfg.kappa / (2.0 * omega[0]), rel=1e-14)

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
    eq = solve_delta0(cfg)
    eq.delta0 = 0.0
    eq.positions[:, 1] = 0.0
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
        w, w_inv = assemble_W(nf)
        return float(np.max(np.abs(w @ w_inv - np.eye(2 * nf.dimension))))

    @pytest.mark.parametrize("boundary, kappa, alpha, n, pairs", [
        (Boundary.RING, 0.3, 1.0, 32, 1),
        (Boundary.RING, 0.6, 1.0, 64, 2),
        (Boundary.RING, 0.6, 1.5, 16, 1),
        (Boundary.BULK, 0.3, 1.5, 64, 1),
        (Boundary.BULK, 0.6, 1.0, 32, 2),
        (Boundary.BULK, 0.75, 1.0, 64, 2),
    ])
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
        nf = CellCouplings(cfg, solve_delta0(cfg)).normal_form(k)
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
def test_ring_full_space_invariants(kappa, alpha, n):
    """The full-space normal form is complete, holds one zero pair per broken
    symmetry, and has the Bloch bands' spectrum."""
    from ionphonon.bloch import CellCouplings, ring_momenta
    from ionphonon.freeparticle import goldstone_branches

    cfg = ChainConfig(kappa=kappa, alpha=alpha, n_ions=n, boundary=Boundary.RING)
    # at the ring's own transition (kappa = 1/2 for four ions) the soft
    # zone-edge modes are exact zero modes beside the Goldstone ones
    assume(abs(kappa - critical_kappa_classical(cfg)) > 1e-3)
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
