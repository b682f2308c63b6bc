"""Quasi-momentum block structure of the chain.

Linear phase: per-(k, axis) scalar blocks with closed-form couplings built
on Li3(e^{-ik d}); zigzag phase: two-ion unit cells with 6 x 6 coupling
blocks g per k in the reduced Brillouin zone ``[-pi/2d, pi/2d)``, which
decouple into an in-plane (x, y) and an out-of-plane (z) sector.

Band core: :meth:`CellCouplings.raw_coupling` gives the cell blocks of a
whole uniform momentum grid from one fold of the pair blocks summed directly
(shared with the full-space Hessian, ``chain.fold_pair_blocks``) and one FFT,
plus in bulk the closed-form sums of ``chain.power_law_sums`` at each k;
:meth:`CellCouplings.bands` diagonalizes the regular +k blocks of a grid in
one stacked ``symplectic.bogoliubov_stack`` (the Bogoliubov step that
``symplectic_diagonalize`` runs on a stack of one), sends the self-paired
k = 0 and zone-edge blocks, and any block with a zero or unstable mode,
through ``CellCouplings.normal_form`` one by one, and fills each -k row by
conjugation; ``observables.PhononField`` reads its :class:`Bands`, and
:func:`dispersion_zigzag` returns them in branch order.

Axis convention (fixed throughout the package): the zigzag displacement is
along y, so the in-plane sector is {x, y} and the gapless helical motion is
along z.  Block basis ordering: (s=0,x), (s=1,x), (s=0,y), (s=1,y),
(s=0,z), (s=1,z); the reduced-zone cell length is ``2d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    SUBLATTICE_MIRROR,
    ZETA3,
    Boundary,
    ChainConfig,
    Equilibrium,
    BULK_SUM_BUDGET,
    bulk_sum_bound,
    fold_pair_blocks,
    half_pair_blocks,
    k0_pair_sums,
    polylog,
    power_law_sums,
    solve_delta0,
)
from .errors import (
    BareInstabilityError,
    ConvergenceError,
    DynamicalInstabilityError,
    PhysicsError,
)
from .symplectic import (
    NormalForm,
    QuadraticForm,
    bogoliubov_stack,
    is_hermitian,
    k_matrix,
    symplectic_diagonalize,
)

AXES = {"x": 0, "y": 1, "z": 2}

# axis label of each entry in the 6-dimensional cell basis
CELL_AXIS_MAP = np.array([0, 0, 1, 1, 2, 2])


def _cell_index(s: int, axis: int) -> int:
    return 2 * axis + s


def critical_kappa() -> float:
    """Classical zigzag transition coupling, 4 / (7 zeta(3)).

    Equals the root of ``1 - kappa (zeta(3) - Re Li3(-1)) = 0`` through the
    identity zeta(3) - Li3(-1) = 7 zeta(3) / 4.
    """
    return 4.0 / (7.0 * ZETA3)


def bare_critical_kappa() -> float:
    """Single-site bound 1/zeta(3) where the bare Omega_y turns imaginary."""
    return 1.0 / ZETA3


def _bare_omega_linear(nu: str, kappa: float, alpha: float = 1.0) -> float:
    trap = {"x": None, "y": 1.0, "z": alpha}[nu]
    if nu == "x":
        return float(np.sqrt(2.0 * kappa * ZETA3))
    arg = trap - kappa * ZETA3
    if arg <= 0.0:
        raise BareInstabilityError(
            f"Omega_{nu} imaginary at kappa = {kappa} (bound 1/zeta(3) scaled)"
        )
    return float(np.sqrt(arg))


def coupling_f(k, nu: str, kappa: float, omega_bare: float):
    """Linear-chain coupling f_nu(k) in omega_I, thermodynamic limit.

    f_x = -(kappa / Omega_x) Re Li3(e^{-ik d}) and
    f_{y/z} = +(kappa / 2 Omega_{y/z}) Re Li3(e^{-ik d}).  These follow from
    summing the lattice couplings over both directions of the chain and are
    pinned by the finite-N lattice-sum oracle; at k = 0 they reduce to
    f_x = -Omega_x / 2 (the translational sum rule).
    """
    re_li3 = np.real(polylog(3, np.asarray(k, dtype=float)))
    if nu == "x":
        return -kappa * re_li3 / omega_bare
    if nu in ("y", "z"):
        return 0.5 * kappa * re_li3 / omega_bare
    raise ValueError(f"unknown axis {nu!r}")


def dispersion_linear(k, nu: str, kappa: float, alpha: float = 1.0):
    """Closed-form linear-chain dispersion omega_nu(k) in omega_I.

    omega_x = sqrt(2 kappa [zeta(3) - Re Li3]) and
    omega_y/z = sqrt(alpha_y/z - kappa [zeta(3) - Re Li3]).
    """
    k_arr = np.asarray(k, dtype=float)
    re_li3 = np.real(polylog(3, k_arr))
    gap = ZETA3 - re_li3
    if nu == "x":
        arg = 2.0 * kappa * gap
    elif nu in ("y", "z"):
        arg = (1.0 if nu == "y" else alpha) - kappa * gap
    else:
        raise ValueError(f"unknown axis {nu!r}")
    arg = np.asarray(arg)
    if np.any(arg < -1e-14):
        bad = np.atleast_1d(k_arr)[np.atleast_1d(arg) < -1e-14]
        raise DynamicalInstabilityError(
            f"omega_{nu}(k)^2 < 0 at k = {bad[:3]}...: linear chain unstable "
            f"towards zigzag formation at this kappa"
        )
    omega = np.sqrt(np.clip(arg, 0.0, None))
    return float(omega) if np.isscalar(k) or k_arr.ndim == 0 else omega


def mode_vectors_linear(k: float, nu: str, kappa: float, alpha: float = 1.0):
    """Sigma-normalized (u, v) of the 1 x 1 linear-chain block at (k, nu).

    u = sqrt((Omega+f)/2w + 1/2), |v| = sqrt((Omega+f)/2w - 1/2); v carries
    the sign of f(k), the convention the generic diagonalizer produces.
    """
    omega_nu = _bare_omega_linear(nu, kappa, alpha)
    f = coupling_f(k, nu, kappa, omega_nu)
    omega = dispersion_linear(k, nu, kappa, alpha)
    if omega < 1e-12 * omega_nu:
        raise PhysicsError(
            f"(k={k}, {nu}) is a zero mode; use the zero-subspace path"
        )
    a = omega_nu + f
    u = np.sqrt(a / (2.0 * omega) + 0.5)
    v = np.sign(f) * np.sqrt(max(a / (2.0 * omega) - 0.5, 0.0))
    return float(u), float(v)


def softening_kappa_c() -> float:
    """kappa_c where the transverse zone-edge mode softens, from Li3(-1).

    omega_y(pi)^2 = 1 - kappa (zeta(3) - Re Li3(-1)) is linear in kappa, so
    its root is 1 / (zeta(3) - Re Li3(-1)); it checks :func:`critical_kappa`
    through the polylogarithm rather than the eta(3) identity.
    """
    return 1.0 / (ZETA3 - float(np.real(polylog(3, np.pi))))


# ---------------------------------------------------------------------------
# zigzag unit-cell couplings


class CellCouplings:
    """Lattice-summed couplings between two-ion unit cells.

    Holds the pair blocks summed directly (:func:`~ionphonon.chain.half_pair_blocks`,
    units m_I omega_I^2) and the bare frequencies of the on-site blocks.
    :meth:`raw_coupling` folds the pair blocks into the cell sums
    ``sum_p F[p] e^{-2ikp}`` of the 6 x 6 couplings F[p] between cell p and
    cell 0, plus in bulk the closed-form power laws.  The on-site blocks and
    the equilibrium condition read :func:`~ionphonon.chain.k0_pair_sums`,
    and the k = 0 block, a grid of one, equals the cell table of those sums
    to the bit, so its translational and helical zero modes vanish at
    machine precision.
    """

    def __init__(self, config: ChainConfig, eq: Equilibrium):
        self.config = config
        self.cell_length = 2.0  # in units of d
        self._delta0 = eq.delta0
        self._m, self._blocks = half_pair_blocks(config, eq.delta0)
        bound = bulk_sum_bound(config, eq.delta0)
        if bound > BULK_SUM_BUDGET:
            raise ConvergenceError(
                f"bulk lattice sums certified to {bound:.2e} only, above "
                f"{BULK_SUM_BUDGET:.0e}; kappa = {config.kappa} is too large")
        # the on-site curvature trap - sum(pairs) sums the pairs over two
        # sites as the k = 0 block does, the same on both sublattices, so
        # its zero modes are exact; the mirrored +-m partners cancel its
        # cross terms
        sites_k0 = k0_pair_sums(config, eq.delta0,
                                fold_pair_blocks(self._m, self._blocks, 2))
        pairs = sites_k0.sum(axis=0)
        omega_sq = np.repeat(np.array([0.0, 1.0, config.alpha]) - np.diag(pairs), 2)
        if np.any(omega_sq <= 0.0):
            raise BareInstabilityError(
                f"cell on-site curvature not positive definite: {omega_sq}"
            )
        self.omega_bare = np.sqrt(omega_sq)

    def raw_coupling(self, k: float | np.ndarray) -> np.ndarray:
        """sum_p F[p] e^{-2ikp} at each k; shape (n_k, 6, 6).

        A uniform zone grid, k_j = k_0 + j pi / n for j < n (``ring_momenta``
        and ``reduced_zone_grid``), is one fold of the pair blocks over 2n
        sites and one FFT (plus, in bulk, the closed-form sums at each k_j);
        any other k is evaluated point by point as a grid of one.
        """
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        if self.config.boundary is Boundary.RING:
            n = self.config.n_ions
            steps = k_arr * n / (2.0 * np.pi)  # ring momenta: multiples of 2 pi / N
            if np.any(np.abs(steps - np.round(steps)) > 1e-9):
                raise ValueError(
                    f"k = {k} holds a momentum that the {n}-ion ring does not "
                    f"allow; use ring_momenta({n}) or bulk boundaries"
                )
        step = 2.0 * np.pi / (self.cell_length * len(k_arr))
        if np.max(np.abs(k_arr - k_arr[0] - step * np.arange(len(k_arr)))) < 1e-12:
            return self._zone_table(k_arr[0], len(k_arr))
        return np.concatenate([self._zone_table(kk, 1) for kk in k_arr])

    def _zone_table(self, k0: float, n: int) -> np.ndarray:
        """Raw couplings on k_j = k0 + j pi / n, j < n: one twisted fold, one FFT.

        The partner at offset m of column ion s' is ion s of cell p with
        2p = m + s' - s, so e^{-2i k0 p} = e^{-i k0 m} e^{-i k0 (s' - s)}:
        the pair blocks folded over 2n sites with twist k0 give the cells
        p mod n, and the DFT over them gives every k_j.  In bulk the
        closed-form even- and odd-offset sums at each k_j are added after.
        """
        sites = fold_pair_blocks(self._m, self._blocks, 2 * n, twist=k0)
        odd = sites[1::2]
        table = np.fft.fft(_cells(sites[0::2], odd, np.roll(odd, 1, axis=0), k0), axis=0)
        if self.config.boundary is Boundary.BULK:
            k = k0 + np.pi * np.arange(n) / n
            sums = power_law_sums(self.config, self._delta0, k)
            table += _cells(sums[:, 0], sums[:, 1], sums[:, 1], k[:, None, None])
        return table

    def block(self, k: float) -> QuadraticForm:
        """The 6 x 6 cell coupling form at quasi-momentum k."""
        return self._block(k, self.raw_coupling(k)[0])

    def _block(self, k: float, raw: np.ndarray) -> QuadraticForm:
        g = raw / (2.0 * np.sqrt(np.outer(self.omega_bare, self.omega_bare)))
        if self._self_paired(k):
            g = g.real.astype(float)  # self-paired momenta have real blocks
        fault = _cell_faults(np.array([k]), g[None])[0]
        if fault:
            raise PhysicsError(fault)
        return QuadraticForm(g, self.omega_bare)

    def _self_paired(self, k):
        """k = 0 and the zone edge, the momenta that are their own -k."""
        edge = np.pi / self.cell_length
        return (np.abs(k) < 1e-12) | (np.abs(np.abs(k) - edge) < 1e-12)

    def normal_form(self, k: float) -> NormalForm:
        """Normal form of the block at k; zero pairs carry p^dag p = N."""
        return self._normal_form(self.block(k))

    def _normal_form(self, form: QuadraticForm) -> NormalForm:
        return symplectic_diagonalize(form, axis_map=CELL_AXIS_MAP,
                                      p_norm=self.config.n_ions)

    def bands(self, k_grid: np.ndarray) -> Bands:
        """Normal modes of every block on a momentum grid (one raw table).

        The +k blocks are diagonalized together, by one stacked
        ``bogoliubov_stack``, after the checks of :meth:`normal_form` have
        run on the whole stack.  The self-paired blocks (k = 0 and the zone
        edge, which are real and hold the zero pairs) and any block with a
        zero or unstable mode or a failed check go through
        :meth:`normal_form`'s path one by one in descending k, so errors
        name the first failing block in that order.  Each -k row is the
        conjugate of its +k partner, so that u(-k) = u(k)* across the grid.
        """
        k = np.asarray(k_grid, dtype=float)
        raw = self.raw_coupling(k)
        n_k = len(k)
        omega = np.zeros((n_k, 6))
        mask = np.zeros((n_k, 6), dtype=bool)
        u = np.zeros((n_k, 6, 6), dtype=complex)
        v = np.zeros((n_k, 6, 6), dtype=complex)
        self_paired = self._self_paired(k)
        partner = _mirror_partners(k)
        mirrored = (k < -1e-12) & ~self_paired & (np.abs(k[partner] + k) < 1e-9)
        rows = np.flatnonzero(~mirrored & ~self_paired)
        g = raw[rows] / (2.0 * np.sqrt(np.outer(self.omega_bare, self.omega_bare)))
        sound = np.equal(_cell_faults(k[rows], g), None)
        rows, g = rows[sound], g[sound]
        lam, _, lam_tol, omega_s, u_s, v_s = bogoliubov_stack(
            k_matrix(g, self.omega_bare), self.omega_bare)
        gapped = lam[:, 0] > lam_tol
        rows = rows[gapped]
        omega[rows], u[rows], v[rows] = omega_s[gapped], u_s[gapped], v_s[gapped]
        mask[rows] = True
        zero_pairs: list = []
        one_by_one = ~mirrored
        one_by_one[rows] = False
        descending = np.argsort(-k, kind="stable")
        for i in descending[one_by_one[descending]]:
            nf = self._normal_form(self._block(float(k[i]), raw[i]))
            n = len(nf.omega)
            omega[i, :n], u[i, :n], v[i, :n], mask[i, :n] = nf.omega, nf.u, nf.v, True
            zero_pairs.extend(nf.zero_pairs)
        mirror = partner[mirrored]
        omega[mirrored], mask[mirrored] = omega[mirror], mask[mirror]
        u[mirrored], v[mirrored] = u[mirror].conj(), v[mirror].conj()
        return Bands(k, omega, mask, u, v, zero_pairs)


def _cells(even, odd, odd_prev, k) -> np.ndarray:
    """Cell couplings from pair sums, shape (n, 6, 6) in the _cell_index layout.

    ``even`` and ``odd`` are an even ion's sums over the even and the odd
    offsets (twisted by k), ``odd_prev`` the odd ones of the cell before; an
    odd column ion sees the mirrored blocks.
    """
    cells = np.empty((len(even), 3, 2, 3, 2), dtype=complex)
    cells[:, :, 0, :, 0] = even
    cells[:, :, 1, :, 0] = odd * np.exp(1j * k)
    cells[:, :, 1, :, 1] = even * SUBLATTICE_MIRROR
    cells[:, :, 0, :, 1] = odd_prev * (SUBLATTICE_MIRROR * np.exp(-1j * k))
    return cells.reshape(-1, 6, 6)


def _cell_faults(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per cell block g of a stack, why it is unphysical, or None.

    The blocks must be Hermitian (``symplectic.is_hermitian``) and their
    out-of-plane (z) sector must decouple from the zigzag plane, relative
    to max(1, max|g|).
    """
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    # rows (s, z) against columns (s, x), (s, y) in the _cell_index layout
    cross = np.max(np.abs(g[:, 4:, :4]), axis=(1, 2))
    faults = np.full(len(k), None, dtype=object)
    for i in np.flatnonzero(cross > 1e-10 * scale):
        faults[i] = f"z sector couples to the zigzag plane ({cross[i]:.2e})"
    for i in np.flatnonzero(~is_hermitian(g)):
        herm = np.max(np.abs(g[i] - g[i].conj().T))
        faults[i] = f"Bloch block at k={k[i]} not Hermitian ({herm:.2e})"
    return faults


def _mirror_partners(k: np.ndarray) -> np.ndarray:
    """Index of the grid point nearest to -k, for every k of the grid."""
    order = np.argsort(k, kind="stable")
    pos = np.searchsorted(k[order], -k)
    below, above = order[np.maximum(pos - 1, 0)], order[np.minimum(pos, len(k) - 1)]
    return np.where(np.abs(k[below] + k) <= np.abs(k[above] + k), below, above)


@dataclass
class Bands:
    """Normal modes of the cell blocks on a momentum grid.

    Row i holds the modes of block k[i] where ``mask`` is set: in ascending
    omega from :meth:`CellCouplings.bands`, in branch order (column b is
    branch b) from :func:`dispersion_zigzag`.  Unset slots stand for the
    zero pairs (listed in ``zero_pairs``; only k = 0 has any) and carry
    omega = u = v = 0, so their mixing angle and collectivity are NaN.
    ``u[i, g]``, ``v[i, g]`` are mode g's cell amplitudes.
    """

    k: np.ndarray
    omega: np.ndarray   # (n_k, 6)
    mask: np.ndarray    # (n_k, 6) bool
    u: np.ndarray       # (n_k, 6, 6)
    v: np.ndarray       # (n_k, 6, 6)
    zero_pairs: list


def ring_momenta(n_ions: int) -> np.ndarray:
    """Sorted discrete momenta of an n_ions ring, in [-pi/2d, pi/2d)."""
    k = 2.0 * np.pi * np.arange(n_ions // 2) / n_ions
    return np.sort((k + np.pi / 2.0) % np.pi - np.pi / 2.0)


def reduced_zone_grid(n_k: int, include_edge: bool = True) -> np.ndarray:
    """n_k momenta spanning the reduced zone [-pi/2d, pi/2d)."""
    edge = np.pi / 2.0
    if include_edge:
        return np.linspace(-edge, edge, n_k, endpoint=False)
    step = 2.0 * edge / n_k
    return -edge + (np.arange(n_k) + 0.5) * step


def mixing_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Spatial mixing angle in [0, pi/2] of each cell-basis mode (rows of u, v).

    arctan of the y weight over the x weight summed over sublattices, using
    the Sigma-weights |u|^2 - |v|^2 (= the polarization weights of the
    underlying classical eigenvector, non-negative per component).  With
    these weights the in-plane complementarity theta + theta' = pi/2 of
    paired modes is exact; the naive particle-plus-hole weight violates it
    at the percent level.  NaN for pure out-of-plane modes.
    """
    w = np.abs(u) ** 2 - np.abs(v) ** 2
    w_x = w[..., 0] + w[..., 1]
    w_y = w[..., 2] + w[..., 3]
    return np.where(w_x + w_y < 1e-14, np.nan, np.arctan2(w_y, w_x))


def collectivities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|v| / |u| of each mode: particle-hole hybridization weight, in [0, 1)
    when stable."""
    with np.errstate(invalid="ignore"):  # NaN for an empty (zero-pair) slot
        return np.linalg.norm(v, axis=-1) / np.linalg.norm(u, axis=-1)


def _track_branches(bands: Bands) -> tuple[np.ndarray, list]:
    """Band slot that continues each of the six branches, per momentum.

    Each branch takes, greedily in descending overlap, the mode with the
    largest Sigma-overlap |U_prev* U^T - V_prev* V^T| with the branch's last
    mode; overlaps below 0.5 are recorded as warnings.  Ties go to the lower
    branch, then the lower slot (the first maximum in row-major order).  The
    modes left over (at the first momentum, all of them, in ascending omega),
    then the zero-pair slots, fill the remaining branches in order.
    """
    slots = np.zeros((len(bands.k), 6), dtype=int)
    prev_u = np.zeros((6, 6), dtype=complex)
    prev_v = np.zeros((6, 6), dtype=complex)
    seen = np.zeros(6, dtype=bool)
    warn_records: list = []
    for i, k in enumerate(bands.k):
        overlap = np.abs(prev_u.conj() @ bands.u[i].T - prev_v.conj() @ bands.v[i].T)
        # overlaps are >= 0, so -1 marks a branch or slot already taken
        open_pairs = np.where(seen[:, None] & bands.mask[i][None, :], overlap, -1.0)
        row = np.full(6, -1)
        free = np.ones(6, dtype=bool)
        for _ in range(min(int(seen.sum()), int(bands.mask[i].sum()))):
            b, j = divmod(int(open_pairs.argmax()), 6)
            row[b], free[j] = j, False
            if open_pairs[b, j] < 0.5:
                warn_records.append((float(k), b, float(open_pairs[b, j])))
            open_pairs[b, :] = open_pairs[:, j] = -1.0
        row[row < 0] = np.flatnonzero(free)
        tracked = bands.mask[i, row]
        prev_u[tracked] = bands.u[i, row[tracked]]
        prev_v[tracked] = bands.v[i, row[tracked]]
        seen |= tracked
        slots[i] = row
    return slots, warn_records


def dispersion_zigzag(k_grid: np.ndarray, config: ChainConfig,
                      eq: Equilibrium | None = None) -> tuple[Bands, list]:
    """Diagonalize the cell blocks on a momentum grid and track branches.

    Returns the :class:`Bands` of the grid with column b of every row on
    branch b, and the (k, branch, overlap) warnings of :func:`_track_branches`.
    Branches are continued in k by greedy maximal Sigma-overlap of the
    eigenvectors between neighboring grid points (ambiguous assignments with
    overlap below 0.5 are recorded as warnings).  At k = 0 in the zigzag
    phase the two gapless directions appear as zero pairs and fill the
    remaining branch slots, with ``mask`` unset and omega = 0.
    """
    if eq is None:
        eq = solve_delta0(config)
    bands = CellCouplings(config, eq).bands(k_grid)
    slots, warn_records = _track_branches(bands)
    rows = np.arange(len(bands.k))[:, None]
    return Bands(bands.k, bands.omega[rows, slots], bands.mask[rows, slots],
                 bands.u[rows, slots], bands.v[rows, slots],
                 bands.zero_pairs), warn_records


# ---------------------------------------------------------------------------
# Fourier diagonality of distance kernels


def _kernel_array(n: int, f) -> np.ndarray:
    """Kernel f[p], p < n, from a callable on PBC separations or an array.

    Rejects odd n and arrays without f[0] = 0 and f[p] = f[n-p], on which
    the transform is not diagonal.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    p = np.arange(n)
    if callable(f):
        dist = np.minimum(p, n - p)
        return np.array([f(int(d)) if d > 0 else 0.0 for d in dist])
    f_arr = np.asarray(f, dtype=float)
    if f_arr.shape != (n,) or f_arr[0] != 0.0 or not np.allclose(f_arr, f_arr[-p]):
        raise ValueError("kernel must have length n, f(0) = 0 and f(p) = f(N-p)")
    return f_arr


def verify_f_diagonality(n: int, f) -> float:
    """Max |f_{m,m'}|, m != m', of the Fourier-transformed distance kernel.

    ``f`` may be a callable on PBC separations or an array of length n with
    f[0] = 0 and f[p] = f[n-p]; translational symmetry makes the transform
    exactly diagonal, which this evaluates numerically.
    """
    f_arr = _kernel_array(n, f)
    l_idx = np.arange(n)
    kernel = f_arr[(l_idx[:, None] - l_idx[None, :]) % n]
    kernel = kernel * np.exp(1j * np.pi * (l_idx[:, None] - l_idx[None, :]))
    phase = np.exp(2j * np.pi * np.outer(l_idx, np.arange(n)) / n)
    f_mat = phase.conj().T @ kernel @ phase / n
    off = f_mat - np.diag(np.diag(f_mat))
    return float(np.max(np.abs(off)))
