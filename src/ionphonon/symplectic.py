"""Symplectic (Bogoliubov) diagonalization with zero-mode completion.

A quadratic bosonic form ``H_ph = [[h, g], [g, h]]`` on the doubled space
``(b, b^dag)`` is brought to normal form on the symplectic space defined by
``Sigma = diag(1, -1)``.  Nonzero modes come in (omega, -omega) pairs with
Sigma-normalized eigenvectors ``x = (u, -v)``; each zero eigenvalue is
defective and is completed by a conjugate pair of vectors (p, q) describing
an effective free particle with mass-like constant m_tilde.

Because every form built in this package satisfies ``h - g = diag(Omega)``
with ``Omega > 0``, the non-normal eigenproblem for ``Sigma H_ph`` reduces
exactly to the Hermitian problem ``Omega^(1/2) (h+g) Omega^(1/2)`` whose
eigenvalues are ``omega^2``.  This sidesteps the numerically fragile general
complex eigensolver; the general solver is kept as a cross-check in the test
suite.  Degenerate modes come out Sigma-orthogonal automatically because the
Hermitian eigenbasis is orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import Hessian
from .errors import (
    BareInstabilityError,
    DynamicalInstabilityError,
    InternalConsistencyError,
    ZeroModeToleranceError,
)

_EPS = np.finfo(float).eps

# frequencies below ZERO_MODE_TOL * max(omega_bare) are zero modes
ZERO_MODE_TOL = 1e-8

# largest entry of W W^-1 - 1 that assemble_W certifies
W_RESIDUAL_TOL = 1e-10


@dataclass
class QuadraticForm:
    """Coupling matrices of a quadratic bosonic Hamiltonian.

    ``h`` and ``g`` are D x D Hermitian (real symmetric for real-space
    forms); ``h - g`` must equal ``diag(omega_bare)`` exactly, which encodes
    h = delta*Omega + g.  ``e0`` is the scalar classical offset.
    """

    h: np.ndarray
    g: np.ndarray
    omega_bare: np.ndarray
    e0: float = 0.0

    @property
    def dimension(self) -> int:
        return len(self.omega_bare)

    def full_matrix(self) -> np.ndarray:
        """The 2D x 2D coupling matrix [[h, g], [g, h]]."""
        return np.block([[self.h, self.g], [self.g, self.h]])

    def validate(self, tol: float = 1e-10) -> None:
        fault = form_faults(self.h[None], self.g[None], self.omega_bare, tol)[0]
        if fault:
            raise ValueError(FORM_FAULTS[fault - 1])


FORM_FAULTS = ("h is not Hermitian", "g is not Hermitian",
               "h - g does not equal diag(omega_bare)")


def form_faults(h: np.ndarray, g: np.ndarray, omega_bare: np.ndarray,
                tol: float = 1e-10) -> np.ndarray:
    """Per form of a stack, 1 + the index in ``FORM_FAULTS`` of the first
    type invariant it breaks, or 0 (``QuadraticForm.validate`` on each).

    Entries are compared with ``tol * max(1, max|h|)``.
    """
    def defect(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a), axis=(-2, -1))

    bound = tol * np.maximum(1.0, defect(h))
    broken = np.stack([
        defect(h - np.swapaxes(h, -2, -1).conj()) > bound,
        defect(g - np.swapaxes(g, -2, -1).conj()) > bound,
        defect(h - g - np.diag(omega_bare)) > bound,
    ])
    return np.where(broken.any(axis=0), np.argmax(broken, axis=0) + 1, 0)


def sigma_matrix(dim: int) -> np.ndarray:
    """Sigma = diag(1_D, -1_D) defining the symplectic pseudo-norm."""
    return np.diag(np.concatenate([np.ones(dim), -np.ones(dim)]))


def build_quadratic_form(hessian: Hessian | np.ndarray, omega_bare: np.ndarray,
                         e0: float = 0.0) -> QuadraticForm:
    """Quadratic form of a Hessian in the local-oscillator ladder basis.

    ``g = (1 - delta) V / (2 sqrt(Omega Omega'))`` and ``h = diag(Omega) + g``
    (units m_I = 1).  ``omega_bare`` is per flat index; every entry must be
    positive, otherwise the system is unstable at the single-site level.
    """
    mat = hessian.matrix if isinstance(hessian, Hessian) else np.asarray(hessian)
    omega_bare = np.asarray(omega_bare, dtype=float)
    if np.any(omega_bare <= 0.0):
        raise BareInstabilityError(
            f"bare frequencies must be positive (min {omega_bare.min():.6g})"
        )
    denom = 2.0 * np.sqrt(np.outer(omega_bare, omega_bare))
    g = mat / denom
    np.fill_diagonal(g, 0.0)
    h = g + np.diag(omega_bare)
    return QuadraticForm(h, g, omega_bare, e0)


@dataclass
class BogoliubovMode:
    """One phonon mode: frequency and Sigma-normalized (u, v) amplitudes."""

    omega: float
    u: np.ndarray
    v: np.ndarray
    label: object = None

    def x_vector(self) -> np.ndarray:
        return np.concatenate([self.u, -self.v])

    def y_vector(self) -> np.ndarray:
        """Negative-norm partner at -omega within the same block."""
        return np.concatenate([-self.v, self.u])

    def sigma_norm(self) -> float:
        return float(np.vdot(self.u, self.u).real - np.vdot(self.v, self.v).real)


@dataclass
class ZeroModePair:
    """Conjugate (p, q) completion of one defective zero eigenvalue.

    p = (u0, -u0*) annihilated by Sigma H; q solves
    Sigma H q = -(i/m_tilde) p with (q|p) = i.  Normalization: p^dag p equals
    the ion number, q^dag q its inverse, making m_tilde extensive.
    """

    p: np.ndarray
    q: np.ndarray
    m_tilde: float
    label: str = "zero"

    @property
    def u0(self) -> np.ndarray:
        return self.p[: len(self.p) // 2]

    @property
    def v0(self) -> np.ndarray:
        # q = -i (v0, v0*)
        return 1j * self.q[: len(self.q) // 2]


@dataclass
class NormalForm:
    """Result of a symplectic diagonalization."""

    modes: list[BogoliubovMode]
    zero_pairs: list[ZeroModePair]
    dimension: int
    form: QuadraticForm = field(repr=False)

    @property
    def zero_point_shift(self) -> float:
        """Zero-point energy shift (1/2) sum_m omega_m, in omega_I."""
        return 0.5 * sum(m.omega for m in self.modes)

    def frequencies(self) -> np.ndarray:
        return np.array([m.omega for m in self.modes])


def _kernel_vectors(k_mat: np.ndarray, phi_cols: np.ndarray, s: np.ndarray,
                    axis_map: np.ndarray | None) -> list[np.ndarray]:
    """Orthonormal real kernel vectors of K = h + g, split by axis support.

    The physical zero patterns (rigid x translation, staggered z rotation)
    are axis-pure, so projecting the numerically mixed kernel basis onto the
    per-axis index subsets separates degenerate pairs without an explicit
    symmetry catalogue.  Falls back to plain orthonormalization when the
    projections are not themselves kernel vectors.
    """
    raw = s[:, None] * phi_cols  # kernel of K, unnormalized
    if np.iscomplexobj(raw):
        if np.max(np.abs(raw.imag)) > 1e-8 * np.max(np.abs(raw)):
            raise ZeroModeToleranceError(
                "zero modes of a genuinely complex block are unsupported; "
                "they only arise in real (k = 0) blocks for this system"
            )
        raw = raw.real
    k_scale = max(np.max(np.abs(k_mat)), 1.0)
    candidates: list[np.ndarray] = []
    if axis_map is not None:
        for axis in (0, 1, 2):
            sel = axis_map == axis
            for col in raw.T:
                part = np.where(sel, col, 0.0)
                norm = np.linalg.norm(part)
                if norm < 1e-8:
                    continue
                part = part / norm
                if np.linalg.norm(k_mat @ part) < 1e-7 * k_scale:
                    candidates.append(part)
    if len(candidates) < raw.shape[1]:
        candidates = [c for c in raw.T]
    basis: list[np.ndarray] = []
    for cand in candidates:
        vec = cand.astype(float)
        for prev in basis:
            vec = vec - prev * (prev @ vec)
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            basis.append(vec / norm)
    if len(basis) != raw.shape[1]:
        raise ZeroModeToleranceError(
            f"found {len(basis)} independent kernel vectors for "
            f"{raw.shape[1]} zero eigenvalues at ZERO_MODE_TOL = {ZERO_MODE_TOL:g}"
        )
    return basis


def _zero_label(w: np.ndarray, axis_map: np.ndarray | None) -> str:
    if axis_map is None:
        return "zero"
    weights = [float(np.sum(w[axis_map == a] ** 2)) for a in (0, 1, 2)]
    return "longitudinal" if int(np.argmax(weights)) == 0 else "radial"


def bogoliubov_stack(k_mat: np.ndarray,
                     omega_bare: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bogoliubov step of a stack of forms that share ``h - g = diag(omega_bare)``.

    ``k_mat`` holds ``K = h + g`` per form, shape (n, D, D).  One stacked
    ``eigh`` of ``Omega^(1/2) K Omega^(1/2)`` gives per form the ascending
    ``lam = omega^2``, the eigenvectors ``phi`` (columns) and the zero
    threshold ``lam_tol = (ZERO_MODE_TOL max(omega_bare))^2`` with a
    machine-precision floor.  Every column
    with ``lam > lam_tol`` is a mode: ``omega[i, m] = sqrt(lam[i, m])`` and
    Sigma-normalized amplitudes ``u[i, m]``, ``v[i, m]``, phased so that the
    largest entry of u is real and positive.  Zero and unstable columns hold
    omega = 0 and u = v = 0.

    Returns ``lam, phi, lam_tol, omega, u, v``.
    """
    s = np.sqrt(omega_bare)
    lam, phi = np.linalg.eigh(s[:, None] * k_mat * s[None, :])
    omega_scale = float(np.max(omega_bare))
    # a defective zero pair splits as sqrt(roundoff) under assembly noise, so
    # the omega^2 threshold needs a generous machine floor; it stays several
    # orders below any physical soft mode
    lam_floor = 4096.0 * _EPS * np.maximum(np.max(np.abs(lam), axis=-1), omega_scale**2)
    lam_tol = np.maximum((ZERO_MODE_TOL * omega_scale) ** 2, lam_floor)
    is_mode = lam > lam_tol[:, None]
    # zero and unstable columns get a placeholder omega = 1, cleared below
    omega = np.sqrt(np.where(is_mode, lam, 1.0))[..., None]
    phi_hat = np.swapaxes(phi, -2, -1)  # [form, mode, component]
    # u = (x + p) / 2 sqrt(omega), v = (p - x) / 2 sqrt(omega) with x = s phi
    # and p = omega phi / s, in place: full-space forms are 3N x 3N
    x_part = s * phi_hat
    u = omega * phi_hat
    u /= s
    v = u - x_part
    u += x_part
    del x_part
    u /= 2.0 * np.sqrt(omega)
    v /= 2.0 * np.sqrt(omega)
    u_max = np.take_along_axis(u, np.argmax(np.abs(u), axis=-1)[..., None], axis=-1)
    phase = np.conj(u_max / np.abs(u_max))
    u *= phase
    v *= phase
    u[~is_mode] = 0.0
    v[~is_mode] = 0.0
    return lam, phi, lam_tol, np.where(is_mode, omega[..., 0], 0.0), u, v


def symplectic_diagonalize(form: QuadraticForm,
                           axis_map: np.ndarray | None = None,
                           p_norm: float | None = None) -> NormalForm:
    """Full normal form of a quadratic bosonic coupling matrix.

    Parameters
    ----------
    form : QuadraticForm
        Must satisfy the type invariants (``form.validate``).
    axis_map : ndarray, optional
        Axis label (0, 1, 2) per flat index; enables symmetry separation and
        longitudinal/radial labelling of degenerate zero pairs.
    p_norm : float, optional
        Target p^dag p for zero pairs (the ion number for chain problems).
        Defaults to the block dimension.

    Raises
    ------
    DynamicalInstabilityError
        If any squared frequency is negative beyond tolerance; the error
        carries the offending imaginary frequencies.
    """
    form.validate()
    omega_bare = form.omega_bare
    dim = form.dimension
    k_mat = form.h + form.g
    lam, phi, lam_tol, omega, u, v = (
        a[0] for a in bogoliubov_stack(k_mat[None], omega_bare))
    if lam[0] < -lam_tol:
        bad = np.sqrt(-lam[lam < -lam_tol])
        raise DynamicalInstabilityError(
            f"dynamically unstable: {bad.size} imaginary mode frequencies "
            f"(largest {bad.max():.6g} i)",
            frequencies=[1j * b for b in bad],
        )

    zero_sel = np.abs(lam) <= lam_tol
    # eigh sorts lam ascending, so the modes come out in ascending omega; each
    # mode owns its amplitudes rather than pinning the stacked arrays
    modes = [BogoliubovMode(float(omega[m]), u[m].copy(), v[m].copy())
             for m in np.flatnonzero(~zero_sel)]

    zero_pairs: list[ZeroModePair] = []
    n_zero = int(np.sum(zero_sel))
    if n_zero:
        target = float(p_norm) if p_norm is not None else float(dim)
        c = np.sqrt(target / 2.0)
        s = np.sqrt(omega_bare)
        for w in _kernel_vectors(k_mat, phi[:, zero_sel], s, axis_map):
            u0 = 1j * c * w
            p = np.concatenate([u0, u0])  # (u0, -u0*) with u0 purely imaginary
            mu = 2.0 * c * c * float(np.sum(w * w / omega_bare))
            q_top = c * (w / omega_bare) / mu
            q = np.concatenate([q_top, -q_top]).astype(complex)
            overlap = np.vdot(q, sigma_apply(p))
            if abs(overlap - 1j) > 1e-9:
                raise InternalConsistencyError(
                    f"zero-pair scalar product (q|p) = {overlap}, expected i"
                )
            zero_pairs.append(ZeroModePair(p, q, mu, _zero_label(w, axis_map)))

    return NormalForm(modes, zero_pairs, dim, form)


def sigma_apply(vec: np.ndarray) -> np.ndarray:
    """Apply Sigma = diag(1, -1) without materializing the matrix."""
    dim = len(vec) // 2
    out = vec.copy()
    out[dim:] *= -1.0
    return out


def eigen_residual(form: QuadraticForm, mode: BogoliubovMode) -> float:
    """|| Sigma H x - omega x ||_max for one mode."""
    h_full = form.full_matrix()
    x = mode.x_vector()
    sx = sigma_apply(h_full @ x)
    return float(np.max(np.abs(sx - mode.omega * x)))


def _w_and_inverse(nf: NormalForm) -> tuple[np.ndarray, np.ndarray]:
    """W = [x.., i p.., y.., i q..] and Sigma_tilde W^dag Sigma, W^-1 if complete.

    ``Sigma_tilde = W^dag Sigma W`` pairs each x with +1, each y with -1 and
    each i p with its i q, so ``W Sigma_tilde = [x.., -q.., -y.., p..]``.
    """
    def columns(vectors: list[np.ndarray]) -> np.ndarray:
        return np.array(vectors, dtype=complex).reshape(-1, 2 * nf.dimension).T

    x = columns([m.x_vector() for m in nf.modes])
    y = columns([m.y_vector() for m in nf.modes])
    p = columns([zp.p for zp in nf.zero_pairs])
    q = columns([zp.q for zp in nf.zero_pairs])
    w_inv = np.hstack([x, -q, -y, p]).conj().T
    w_inv[:, nf.dimension:] *= -1.0  # right-multiply by Sigma
    return np.hstack([x, 1j * p, y, 1j * q]), w_inv


def completeness_residual(nf: NormalForm) -> float:
    """Max-norm deviation of the resolved identity on the doubled space.

    Checks ``sum_m (x x^dag - y y^dag) Sigma + i sum_n (q p^dag - p q^dag)
    Sigma = W Sigma_tilde W^dag Sigma = 1``; a small residual certifies that
    modes plus zero pairs span all degrees of freedom.
    """
    w, w_inv = _w_and_inverse(nf)
    return float(np.max(np.abs(w @ w_inv - np.eye(2 * nf.dimension))))


def assemble_W(nf: NormalForm) -> tuple[np.ndarray, np.ndarray]:
    """Transformation matrix W = [x.., i p.., y.., i q..] and its inverse.

    The inverse is obtained without numerical inversion as
    ``W^-1 = Sigma_tilde W^dag Sigma`` where ``Sigma_tilde = W^dag Sigma W``
    is Hermitian and unitary (squares to the identity).
    """
    dim = nf.dimension
    n_m, n_z = len(nf.modes), len(nf.zero_pairs)
    if n_m + n_z != dim:
        raise InternalConsistencyError(
            f"mode count {n_m} + zero pairs {n_z} != dimension {dim}"
        )
    w, w_inv = _w_and_inverse(nf)
    residual = float(np.max(np.abs(w @ w_inv - np.eye(2 * dim))))
    if residual > W_RESIDUAL_TOL:
        raise InternalConsistencyError(
            f"||W W^-1 - 1|| = {residual:.3e} > {W_RESIDUAL_TOL:.1e}")
    return w, w_inv
