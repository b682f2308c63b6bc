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

import functools
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
    h = delta*Omega + g.
    """

    h: np.ndarray
    g: np.ndarray
    omega_bare: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.omega_bare)

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


def build_quadratic_form(hessian: Hessian | np.ndarray,
                         omega_bare: np.ndarray) -> QuadraticForm:
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
    return QuadraticForm(h, g, omega_bare)


@dataclass
class BogoliubovMode:
    """One phonon mode (a row of a :class:`NormalForm`): frequency and
    Sigma-normalized (u, v) amplitudes."""

    omega: float
    u: np.ndarray
    v: np.ndarray

    def sigma_norm(self) -> float:
        return float(np.vdot(self.u, self.u).real - np.vdot(self.v, self.v).real)


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Result of a symplectic diagonalization: the modes at ``omega``
    (ascending) with amplitudes ``u[m]``, ``v[m]`` (shape (M, D)), and the
    zero pairs.  Read-only, so the cached certificate cannot go stale.
    """

    omega: np.ndarray
    u: np.ndarray
    v: np.ndarray
    zero_pairs: tuple[ZeroModePair, ...]
    form: QuadraticForm = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "zero_pairs", tuple(self.zero_pairs))
        for arr in (self.omega, self.u, self.v,
                    *(a for zp in self.zero_pairs for a in (zp.p, zp.q))):
            arr.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.form.dimension

    @property
    def modes(self) -> list[BogoliubovMode]:
        """One :class:`BogoliubovMode` per row, built on each access."""
        return [BogoliubovMode(float(w), u, v) for w, u, v in zip(self.omega, self.u, self.v)]

    def frequencies(self) -> np.ndarray:
        return self.omega.copy()

    @functools.cached_property
    def _residual(self) -> float:
        """max |W Sigma_tilde W^dag Sigma - 1| from D x D blocks.

        With x = (u, -v), y = (-v, u) the modes add [[P, Q], [Q, P]], P =
        sum u u^dag - v v^dag, Q = sum u v^dag - v u^dag; a zero pair p =
        (i a, i a), q = (b, -b) (a, b real) adds X + X^T to P and X - X^T to
        Q, X = a b^T.  The residual is max(|P - 1|, |Q|), real on real forms.
        """
        dim = self.dimension
        u, v = self.u, self.v
        p_blk = u.T @ u.conj() - v.T @ v.conj()
        x = u.T @ v.conj()
        if self.zero_pairs:
            a = np.array([zp.p[:dim].imag for zp in self.zero_pairs])
            b = np.array([zp.q[:dim].real for zp in self.zero_pairs])
            pairs = a.T @ b
            p_blk += pairs + pairs.T
            x += pairs
        p_blk[np.diag_indices(dim)] -= 1.0
        q_blk = x - x.conj().T
        return float(max(np.max(np.abs(p_blk)), np.max(np.abs(q_blk))))


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

    # lam ascends from above -lam_tol: zero columns first, then the modes
    return NormalForm(omega[n_zero:], u[n_zero:], v[n_zero:], zero_pairs, form)


def sigma_apply(vec: np.ndarray) -> np.ndarray:
    """Apply Sigma = diag(1, -1) without materializing the matrix."""
    dim = len(vec) // 2
    out = vec.copy()
    out[dim:] *= -1.0
    return out


def completeness_residual(nf: NormalForm) -> float:
    """Max-norm deviation of the resolved identity on the doubled space.

    Checks ``sum_m (x x^dag - y y^dag) Sigma + i sum_n (q p^dag - p q^dag)
    Sigma = W Sigma_tilde W^dag Sigma = 1``; a small residual certifies that
    modes plus zero pairs span all degrees of freedom.  Evaluated once per
    normal form, from D x D blocks (``NormalForm._residual``).
    """
    return nf._residual


def assemble_W(nf: NormalForm) -> tuple[np.ndarray, np.ndarray]:
    """Transformation matrix W = [x.., i p.., y.., i q..] and its inverse.

    The inverse is obtained without numerical inversion as
    ``W^-1 = Sigma_tilde W^dag Sigma`` where ``Sigma_tilde = W^dag Sigma W``
    is Hermitian and unitary (squares to the identity); W W^-1 = 1 is
    certified by the completeness certificate, up to ``W_RESIDUAL_TOL``.
    """
    dim = nf.dimension
    n_m, n_z = len(nf.omega), len(nf.zero_pairs)
    if n_m + n_z != dim:
        raise InternalConsistencyError(
            f"mode count {n_m} + zero pairs {n_z} != dimension {dim}"
        )
    residual = nf._residual
    if residual > W_RESIDUAL_TOL:
        raise InternalConsistencyError(
            f"||W W^-1 - 1|| = {residual:.3e} > {W_RESIDUAL_TOL:.1e}")
    p = np.array([zp.p for zp in nf.zero_pairs], dtype=complex).reshape(-1, 2 * dim)
    q = np.array([zp.q for zp in nf.zero_pairs], dtype=complex).reshape(-1, 2 * dim)
    x, ip, y, iq = (slice(0, n_m), slice(n_m, dim),
                    slice(dim, dim + n_m), slice(dim + n_m, 2 * dim))
    top, bottom = slice(0, dim), slice(dim, 2 * dim)
    w = np.empty((2 * dim, 2 * dim), dtype=complex)
    w[top, x], w[bottom, x], w[:, ip] = nf.u.T, -nf.v.T, 1j * p.T
    w[top, y], w[bottom, y], w[:, iq] = -nf.v.T, nf.u.T, 1j * q.T
    # rows x^dag, -q^dag, -y^dag, p^dag, each right-multiplied by Sigma
    w_inv = np.empty_like(w)
    w_inv[x, top], w_inv[x, bottom] = nf.u.conj(), nf.v.conj()
    w_inv[ip, top], w_inv[ip, bottom] = -q[:, top].conj(), q[:, bottom].conj()
    w_inv[y, top], w_inv[y, bottom] = nf.v.conj(), nf.u.conj()
    w_inv[iq, top], w_inv[iq, bottom] = p[:, top].conj(), -p[:, bottom].conj()
    return w, w_inv
