"""Symplectic (Bogoliubov) diagonalization with zero-mode completion.

A quadratic bosonic form ``H_ph = [[h, g], [g, h]]`` on the doubled space
``(b, b^dag)`` is brought to normal form on the symplectic space defined by
``Sigma = diag(1, -1)``.  Nonzero modes come in (omega, -omega) pairs with
Sigma-normalized eigenvectors ``x = (u, -v)``; each zero eigenvalue is
defective and is completed by a conjugate pair of vectors (p, q) describing
an effective free particle with mass-like constant m_tilde.

In local-oscillator ladder operators ``H = sum Omega b^dag b + 1/2 sum g
(b + b^dag)(b + b^dag)``, so ``h = diag(Omega) + g`` and a form is just
``(g, Omega)`` (:class:`QuadraticForm`) with ``Omega > 0``.  The non-normal
eigenproblem for ``Sigma H_ph`` then reduces exactly to the Hermitian problem
``Omega^(1/2) K Omega^(1/2)``, ``K = h + g`` (:func:`k_matrix`), whose
eigenvalues are ``omega^2`` (Colpa, Physica A 93, 327 (1978)).  This
sidesteps the numerically fragile general complex eigensolver.  The test
suite keeps the general solver as a cross-check.  Degenerate modes come out
Sigma-orthogonal, because the Hermitian eigenbasis is orthonormal.

For a chain ``Omega^(1/2) K Omega^(1/2)`` is the Hessian, whose kernel the
generators of the broken symmetries span in closed form; the form names
them (``chain.broken_symmetries``), and they give the zero pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .chain import GENERATORS, Hessian
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

# a form is sound when max |g - g^dag| <= HERMITIAN_TOL * max(1, max|g|)
HERMITIAN_TOL = 1e-10


@dataclass
class QuadraticForm:
    """Coupling matrix g and bare frequencies Omega of a quadratic bosonic
    Hamiltonian; its diagonal block is h = diag(omega_bare) + g.

    ``g`` is D x D Hermitian (real symmetric for real-space forms).  A
    generic form has no ``generators`` (axes of ``chain.GENERATORS``) and
    no ``sectors``: ascending index arrays that partition range(D), between
    which g is exactly zero (none: one sector of all D entries).
    """

    g: np.ndarray
    omega_bare: np.ndarray
    generators: tuple[int, ...] = ()
    sectors: tuple[np.ndarray, ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.omega_bare)

    def validate(self) -> None:
        """Raise ValueError unless the sectors (``_sector_entries``) partition
        the entries in ascending order, g has no nonzero entry between two of
        them, and g is Hermitian.

        Hermiticity is then checked on each sector's diagonal block, against
        the scale of the whole g (``is_hermitian``).
        """
        sectors = _sector_entries(self)
        if not (all(np.all(np.diff(i) > 0) for i in sectors) and np.array_equal(
                np.sort(np.concatenate(sectors)), np.arange(self.dimension))):
            raise ValueError("the sectors do not partition the entries in ascending order")
        blocks = [self.g[i[:, None], i] for i in sectors]
        if sum(map(np.count_nonzero, blocks)) < np.count_nonzero(self.g):
            raise ValueError("g couples two sectors of the form")
        scale = max(float(np.max(np.abs(blk), initial=1.0)) for blk in blocks)
        if not all(is_hermitian(blk, scale) for blk in blocks):
            raise ValueError("g is not Hermitian")


def _sector_entries(form: QuadraticForm) -> tuple[np.ndarray, ...]:
    """The sectors of a form; one sector of all D entries when it has none."""
    return form.sectors or (np.arange(form.dimension),)


def _decoupled_sectors(magnitude: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """Ascending index sets of the classes of ``labels`` that a matrix of
    entry magnitudes ``magnitude`` leaves uncoupled, in the order of their
    smallest class: classes joined by a nonzero entry, directly or through
    other classes, share a sector."""
    classes = (labels[:, None] == np.unique(labels)).astype(float)
    links = classes.T @ magnitude @ classes != 0  # a sum of |entries| is 0 only if each is
    reach = links | links.T | np.eye(len(links), dtype=bool)
    for _ in range(len(links)):
        reach = reach @ reach
    return [np.flatnonzero(classes @ r) for a, r in enumerate(reach) if np.argmax(r) == a]


def is_hermitian(g: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Whether each form of a stack (the last two axes) has a Hermitian g,
    within ``HERMITIAN_TOL * scale``; the scale defaults to max(1, max|g|)."""
    if scale is None:
        scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    defect = np.max(np.abs(g - np.swapaxes(g, -2, -1).conj()), axis=(-2, -1))
    return defect <= HERMITIAN_TOL * scale


def k_matrix(g: np.ndarray, omega_bare: np.ndarray) -> np.ndarray:
    """K = h + g, with h = g + diag(omega_bare), of one form or a stack."""
    return g + np.diag(omega_bare) + g


def build_quadratic_form(hessian: Hessian | np.ndarray,
                         omega_bare: np.ndarray) -> QuadraticForm:
    """Quadratic form of a Hessian in the local-oscillator ladder basis.

    ``g = (1 - delta) V / (2 sqrt(Omega Omega'))`` (units m_I = 1).
    ``omega_bare`` is per flat index; every entry must be positive,
    otherwise the system is unstable at the single-site level.  The form
    takes a Hessian's generators, and its sectors from the exact zero
    pattern of the matrix between the axis classes of ``axis_map``; a bare
    matrix has neither.
    """
    if isinstance(hessian, Hessian):
        mat, generators = hessian.matrix, hessian.generators
        sectors = _decoupled_sectors(np.abs(mat), hessian.axis_map)
    else:
        mat, generators, sectors = np.asarray(hessian), (), []
    omega_bare = np.asarray(omega_bare, dtype=float)
    if np.any(omega_bare <= 0.0):
        raise BareInstabilityError(
            f"bare frequencies must be positive (min {omega_bare.min():.6g})"
        )
    denom = 2.0 * np.sqrt(np.outer(omega_bare, omega_bare))
    g = mat / denom
    np.fill_diagonal(g, 0.0)
    return QuadraticForm(g, omega_bare, generators, tuple(sectors) if len(sectors) > 1 else ())


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
    label: str

    @property
    def u0(self) -> np.ndarray:
        return self.p[: len(self.p) // 2]


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Result of a symplectic diagonalization: the modes at ``omega``
    (ascending) with amplitudes ``u[m]``, ``v[m]`` (shape (M, D)), and the
    zero pairs.  ``sector_rows[j]`` holds the ascending rows of the modes
    that sector j of the form (``_sector_entries``) gave, whose u and v
    vanish outside it; a normal form built by hand holds no record and is
    one sector of all rows and entries.  Read-only, so the cached
    certificate cannot go stale.
    """

    omega: np.ndarray
    u: np.ndarray
    v: np.ndarray
    zero_pairs: tuple[ZeroModePair, ...]
    form: QuadraticForm = field(repr=False)
    sector_rows: tuple[np.ndarray, ...] = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "zero_pairs", tuple(self.zero_pairs))
        for arr in (self.omega, self.u, self.v, *self.sector_rows,
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
        """max |W Sigma_tilde W^dag Sigma - 1| from D x D blocks, per sector.

        With x = (u, -v), y = (-v, u) the modes add [[P, Q], [Q, P]], P =
        sum u u^dag - v v^dag, Q = sum u v^dag - v u^dag; a zero pair p =
        (i a, i a), q = (b, -b) (a, b real) adds X + X^T to P and X - X^T to
        Q, X = a b^T.  The residual is max(|P - 1|, |Q|), real on real forms.
        Each recorded mode and each zero pair (its generator's entries) lies
        in one sector, so P and Q vanish between sectors: each sector's
        block takes its recorded rows and its entries of the zero pairs.
        Without a record the whole D x D block is the one sector.
        """
        dim = self.dimension
        a = np.array([zp.p[:dim].imag for zp in self.zero_pairs]).reshape(-1, dim)
        b = np.array([zp.q[:dim].real for zp in self.zero_pairs]).reshape(-1, dim)
        sectors = (zip(_sector_entries(self.form), self.sector_rows, strict=True)
                   if self.sector_rows else [(slice(None), slice(None))])
        return max(_completeness_block(self.u[r][:, i], self.v[r][:, i], a[:, i], b[:, i])
                   for i, r in sectors)


def _completeness_block(u, v, a, b) -> float:
    """max(|P - 1|, |Q|) of :attr:`NormalForm._residual` on one block."""
    p_blk = u.T @ u.conj() - v.T @ v.conj()
    x = u.T @ v.conj()
    if len(a):
        pairs = a.T @ b
        p_blk += pairs + pairs.T
        x += pairs
    p_blk[np.diag_indices(len(p_blk))] -= 1.0
    q_blk = x - x.conj().T
    return float(max(np.max(np.abs(p_blk)), np.max(np.abs(q_blk))))


def zero_threshold(lam_scale, omega_scale: float):
    """``lam_tol`` of forms whose |lam| reach ``lam_scale``."""
    # a defective zero pair splits as sqrt(roundoff) under assembly noise, so
    # the omega^2 threshold needs a generous machine floor; it stays several
    # orders below any physical soft mode
    lam_floor = 4096.0 * _EPS * np.maximum(lam_scale, omega_scale**2)
    return np.maximum((ZERO_MODE_TOL * omega_scale) ** 2, lam_floor)


def _bogoliubov(k_mat: np.ndarray, omega_bare: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ascending ``lam = omega^2`` and the modes of one form: one ``eigh`` of
    ``Omega^(1/2) K Omega^(1/2)`` (``K = k_matrix(g, omega_bare)``), whose
    unit eigenvectors phi give every column with ``lam > 0`` omega =
    sqrt(lam) and Sigma-normalized amplitudes ``u[m]``, ``v[m]``, phased so
    that the largest entry of u is real and positive; columns with ``lam <=
    0`` hold omega = 0 and u = v = 0.  Returns ``lam, omega, u, v``."""
    s = np.sqrt(omega_bare)
    lam, phi = np.linalg.eigh(s[:, None] * k_mat * s[None, :])
    phi = phi.T
    # amplitudes for every lam > 0, not only above a zero threshold: the
    # caller takes its threshold from the columns it keeps; lam <= 0 gets a
    # placeholder omega = 1, cleared below
    positive = lam > 0.0
    omega = np.sqrt(np.where(positive, lam, 1.0))[..., None]
    # u = (x + p) / 2 sqrt(omega), v = (p - x) / 2 sqrt(omega) with x = s phi
    # and p = omega phi / s, in place: full-space forms are 3N x 3N
    u = omega * phi
    u /= s
    x_part = phi
    x_part *= s
    v = u - x_part
    u += x_part
    u /= 2.0 * np.sqrt(omega)
    v /= 2.0 * np.sqrt(omega)
    u_max = np.take_along_axis(u, np.argmax(np.abs(u), axis=-1)[..., None], axis=-1)
    phase = np.conj(u_max / np.abs(u_max))
    u *= phase
    v *= phase
    u[~positive] = 0.0
    v[~positive] = 0.0
    return lam, np.where(positive, omega[..., 0], 0.0), u, v


def generator_move(axis: int, axis_map: np.ndarray) -> np.ndarray:
    """How the generator of ``axis`` (``chain.GENERATORS``) moves each entry of ``axis_map``:
    the x translation every axis-0 entry by 1, the rotation the axis-2 ones by (-1)^l."""
    rows = np.flatnonzero(axis_map == axis)
    if not len(rows):
        raise ValueError(f"axis_map places the {GENERATORS[axis][0]} generator on no entry")
    move = np.zeros(len(axis_map))
    move[rows] = 1.0 if axis == 0 else (-1.0) ** np.arange(len(rows))
    return move


def generator_mass(move: np.ndarray, omega_bare: np.ndarray, p_norm: float) -> float:
    """m_tilde of a zero pair with p^dag p = ``p_norm``: p_norm / mean Omega on moved entries."""
    return p_norm / float(np.mean(omega_bare[move != 0.0]))


def generator_pair(axis: int, axis_map: np.ndarray, omega_bare: np.ndarray,
                   p_norm: float) -> tuple[np.ndarray, ZeroModePair]:
    """The unit generator t (``generator_move``, normalized) of ``axis`` on the
    entries of ``axis_map``, and its zero pair with p^dag p = ``p_norm``: p =
    (i c w, i c w) with w the unit kernel vector Omega^(1/2) t of K, c^2 =
    p_norm / 2, and q = c (w / Omega, -w / Omega) / m_tilde, where m_tilde =
    2 c^2 sum w^2 / Omega is ``generator_mass``.
    """
    move = generator_move(axis, axis_map)
    t = move / np.sqrt(np.count_nonzero(move))
    c = np.sqrt(p_norm / 2.0)
    st = np.sqrt(omega_bare) * t
    w = st / np.linalg.norm(st)  # a unit kernel vector of K
    u0 = 1j * c * w
    p = np.concatenate([u0, u0])  # (u0, -u0*) with u0 purely imaginary
    mu = generator_mass(move, omega_bare, p_norm)
    q_top = c * (w / omega_bare) / mu
    q = np.concatenate([q_top, -q_top]).astype(complex)
    overlap = np.vdot(q, sigma_apply(p))
    if abs(overlap - 1j) > 1e-9:
        raise InternalConsistencyError(
            f"zero-pair scalar product (q|p) = {overlap}, expected i"
        )
    return t, ZeroModePair(p, q, mu, GENERATORS[axis][0])


def symplectic_diagonalize(form: QuadraticForm,
                           axis_map: np.ndarray | None = None,
                           p_norm: float | None = None) -> NormalForm:
    """Full normal form of a quadratic bosonic coupling matrix.

    One ``eigh`` per sector of the form (one of all D entries without
    ``form.sectors``); the modes of all sectors come out together, in
    ascending omega, with dense (M, D) ``u`` and ``v`` and the rows of each
    sector's modes (``NormalForm.sector_rows``).

    Parameters
    ----------
    form : QuadraticForm
        Its g must be Hermitian (``form.validate``); the diagonal block
        h = diag(omega_bare) + g is implied.
    axis_map : ndarray, optional
        Axis label (0, 1, 2) per flat index.  It places the generators that
        the form names (``form.generators``) by ``generator_move``.  Each
        gives one zero pair (``generator_pair``), labelled by
        ``chain.GENERATORS``, and is shifted out of the sector that holds
        it.  Without an axis_map a form has no zero pairs.
    p_norm : float, optional
        Target p^dag p for zero pairs (the ion number for chain problems).
        Defaults to the block dimension.

    Raises
    ------
    ValueError
        If the axis_map places a generator on no entry, or on entries of
        more than one sector.
    DynamicalInstabilityError
        If any squared frequency is negative beyond tolerance; the error
        carries the offending imaginary frequencies.
    ZeroModeToleranceError
        If s K s (s = Omega^(1/2)) does not annihilate a generator the form
        names, or a zero frequency remains that no generator explains.
    """
    form.validate()
    omega_bare = form.omega_bare
    dim = form.dimension
    omega_scale = float(np.max(omega_bare))
    s = np.sqrt(omega_bare)
    sectors = _sector_entries(form)
    k_mats = [k_matrix(form.g[i[:, None], i], omega_bare[i]) for i in sectors]
    generators = () if axis_map is None else form.generators
    if generators:
        # Gershgorin bound on the spectrum of s K s
        bound = max(float(np.max(s[i] * (np.abs(k) @ s[i]))) for i, k in zip(sectors, k_mats))
        kernel_tol = zero_threshold(bound, omega_scale)
        labels = np.zeros(dim, dtype=int)  # the sector of every entry
        for j, i in enumerate(sectors):
            labels[i] = j
    zero_pairs: list[ZeroModePair] = []
    shifted = [0] * len(sectors)
    for axis in generators:
        t, pair = generator_pair(axis, axis_map, omega_bare,
                                 dim if p_norm is None else p_norm)
        rows = np.flatnonzero(t)
        j = labels[rows[0]]
        if np.any(labels[rows] != j):
            raise ValueError(
                f"axis_map places the {pair.label} generator in more than one sector")
        i, k_mat = sectors[j], k_mats[j]
        local = np.searchsorted(i, rows)
        defect = np.linalg.norm(s[i] * (k_mat @ (s * t)[i]))
        if defect > kernel_tol:
            raise ZeroModeToleranceError(
                f"the {pair.label} generator is no zero mode: |s K s t| = {defect:.3g} "
                f"> {kernel_tol:.3g} (is the chain at its equilibrium?)")
        # s K s gains 2 bound t t^T, far above the spectrum; the axis classes
        # are disjoint, so the next generator's test still sees K
        shift = t[rows] / s[rows]
        k_mat[np.ix_(local, local)] += 2.0 * bound * np.outer(shift, shift)
        shifted[j] += 1
        zero_pairs.append(pair)

    parts = []
    for i, k_mat, n_shifted in zip(sectors, k_mats, shifted):
        lam, omega, u, v = _bogoliubov(k_mat, omega_bare[i])
        n_modes = len(lam) - n_shifted  # the shifted generators are the top columns
        parts.append((lam[:n_modes], omega[:n_modes], u[:n_modes], v[:n_modes]))
    del k_mats, k_mat
    lam, omega, u, v, sector_rows = _merge_sectors(sectors, parts, dim)
    lam_tol = zero_threshold(np.max(np.abs(lam)), omega_scale)
    if lam[0] < -lam_tol:
        bad = np.sqrt(-lam[lam < -lam_tol])
        raise DynamicalInstabilityError(
            f"dynamically unstable: {bad.size} imaginary mode frequencies "
            f"(largest {bad.max():.6g} i)",
            frequencies=[1j * b for b in bad],
        )
    if lam[0] <= lam_tol:
        raise ZeroModeToleranceError(
            f"{np.sum(lam <= lam_tol)} zero mode(s) that no symmetry generator "
            f"explains (ZERO_MODE_TOL = {ZERO_MODE_TOL:g}): a soft mode at a transition")
    return NormalForm(omega, u, v, zero_pairs, form, sector_rows)


def _merge_sectors(sectors, parts, dim):
    """lam, omega, u and v of every sector's modes in ascending lam, each
    sector's amplitudes in its columns of dense (M, D) arrays, and the rows
    that hold each sector's modes."""
    lam, omega = (np.concatenate([part[n] for part in parts]) for n in (0, 1))
    order = np.argsort(lam, kind="stable")
    rows = np.split(np.argsort(order), np.cumsum([len(part[0]) for part in parts[:-1]]))
    u, v = (np.zeros((len(lam), dim), dtype=parts[0][2].dtype) for _ in range(2))
    for i, r, (_, _, u_sec, v_sec) in zip(sectors, rows, parts):
        u[r[:, None], i], v[r[:, None], i] = u_sec, v_sec
    return lam[order], omega[order], u, v, tuple(rows)


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
