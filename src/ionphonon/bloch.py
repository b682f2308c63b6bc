"""Quasi-momentum block structure of the chain.

Linear phase: per-(k, axis) scalar blocks with closed-form couplings built
on Li3(e^{-ik d}); zigzag phase: two-ion unit cells with 6 x 6 coupling
blocks g per k in the reduced Brillouin zone ``[-pi/2d, pi/2d)``, which
decouple into an in-plane (x, y) and an out-of-plane (z) sector.

Band core: both phases are invariant under the glide G (shift by one site,
then y -> -y), so modes u_l = e^{ipl} M^l c, M = diag(1, -1, 1), close on
one ion, and the 6 x 6 cell block at reduced k holds the screw blocks
D(p) = sum_m M^m B(m) e^{-ipm} at p = k and p = k + pi, each an in-plane
2 x 2 (real under y -> iy) plus a z scalar.  :meth:`CellCouplings.bands`
builds them for a whole uniform grid from one twisted fold of the pair
blocks summed directly (``chain.fold_pair_entries``, shared with the
full-space Hessian) and one FFT, plus in bulk the closed-form sums of
``chain.power_law_sums`` at each k; it solves each in closed form, keeps
each mode's screw vector (the generators' slots unset at k = 0), raises the
error of the first failing row in descending k, and fills each -k row by
conjugation; the phonon fields and the k = 0 normal form read its
:class:`Bands`, and :func:`dispersion_zigzag` returns them in branch order.
The cell amplitudes are real factors of the screw vectors, entry by entry
(:func:`cell_amplitudes`), built only when read.  The glide also labels
every mode exactly by its screw slot (``Bands.labels``): its parity, its
sector (z or in-plane), and whether it is the upper or the lower root of its
2 x 2 block (on the linear chain, where D_xy vanishes, x or y); a branch is
one label across the grid, so omega_b(-k) = omega_b(k).

Axis convention (fixed throughout the package): the zigzag displacement is
along y, so the in-plane sector is {x, y} and the gapless helical motion is
along z.  Block basis ordering: (s=0,x), (s=1,x), (s=0,y), (s=1,y),
(s=0,z), (s=1,z); the reduced-zone cell length is ``2d``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import (
    _SERIES,
    GENERATORS,
    SUBLATTICE_MIRROR,
    ZETA3,
    Boundary,
    ChainConfig,
    Equilibrium,
    BULK_SUM_BUDGET,
    bare_frequencies,
    broken_symmetries,
    bulk_sum_bound,
    fold_pair_blocks,
    fold_pair_entries,
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
    ZeroModeToleranceError,
)
from .symplectic import (
    HERMITIAN_TOL,
    NormalForm,
    QuadraticForm,
    is_hermitian,
    symplectic_diagonalize,
    zero_threshold,
)

AXES = {"x": 0, "y": 1, "z": 2}

# axis label of each entry in the 6-dimensional cell basis
CELL_AXIS_MAP = np.array([0, 0, 1, 1, 2, 2])

# column of each generator's mode at k = 0 among CellCouplings._screw_modes'
# six: the x entry of D(0), the z entry of D(pi)
_SCREW_GENERATOR_SLOT = {0: 3, 2: 2}

# symmetry label of each of those six columns, 3 (odd glide parity: D(k + pi))
# + root (upper 0, lower 1, z 2), and its change where a block's roots swap
_SLOT_LABELS = np.array([3, 4, 5, 0, 1, 2])
_SWAP_SHIFT = np.array([1, -1, 0])


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


def _coulomb_coefficient(nu: str) -> float:
    """c_nu of the pair law c_nu kappa |m|^-3 (``chain._SERIES[0]``): -1 on x, 1/2 on y, z."""
    if nu not in AXES:
        raise ValueError(f"unknown axis {nu!r}")
    return float(_SERIES[0][AXES[nu]])


def coupling_f(k, nu: str, kappa: float, omega_bare: float):
    """Linear-chain coupling f_nu(k) = c_nu kappa Re Li3(e^{-ik d}) / Omega_nu in omega_I.

    Thermodynamic limit, c = (-1, 1/2, 1/2) on (x, y, z).  This follows from
    summing the lattice couplings over both directions of the chain and is
    pinned by the finite-N lattice-sum oracle; at k = 0 it reduces to
    f_x = -Omega_x / 2 (the translational sum rule).
    """
    re_li3 = np.real(polylog(3, np.asarray(k, dtype=float)))
    return _coulomb_coefficient(nu) * kappa * re_li3 / omega_bare


def dispersion_linear(k, nu: str, kappa: float, alpha: float = 1.0):
    """Closed-form linear-chain dispersion omega_nu(k) in omega_I.

    omega_nu^2 = trap_nu - 2 c_nu kappa [zeta(3) - Re Li3], trap = (0, 1, alpha).
    """
    c = _coulomb_coefficient(nu)
    k_arr = np.asarray(k, dtype=float)
    re_li3 = np.real(polylog(3, k_arr))
    gap = ZETA3 - re_li3
    arg = np.asarray((0.0, 1.0, alpha)[AXES[nu]] - 2.0 * c * kappa * gap)
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

    As in ``cell_amplitudes``, u +- v = sqrt(omega / Omega)^(+-1), so v < 0
    exactly where omega < Omega: the convention the generic diagonalizer
    produces.  Omega is the bulk linear chain's ``bare_frequencies``, so any
    axis with Omega^2 <= 0 raises BareInstabilityError.
    """
    _coulomb_coefficient(nu)  # an unknown axis raises ValueError here
    config = ChainConfig(kappa, alpha, boundary=Boundary.BULK)
    omega_nu = float(bare_frequencies(config, Equilibrium(0.0))[AXES[nu]])
    omega = dispersion_linear(k, nu, kappa, alpha)
    if omega < 1e-12 * omega_nu:
        raise PhysicsError(
            f"(k={k}, {nu}) is a zero mode; use the zero-subspace path"
        )
    root = np.sqrt(omega / omega_nu)
    return float(0.5 * (root + 1.0 / root)), float(0.5 * (root - 1.0 / root))


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
    as entries xx, yy, zz, xy in m_I omega_I^2) and the on-site bare frequencies.
    :meth:`raw_coupling` folds the pair blocks into the cell sums
    ``sum_p F[p] e^{-2ikp}`` of the 6 x 6 couplings F[p] between cell p and
    cell 0, plus in bulk the closed-form power laws; :meth:`bands` folds
    them into the screw blocks that those 6 x 6 blocks hold.  The on-site
    blocks and the equilibrium condition read
    :func:`~ionphonon.chain.k0_pair_sums`, and the k = 0 block, a grid of
    one, equals the cell table of those sums to the bit, so its
    translational and helical zero modes vanish at machine precision.  Those
    (2, 3, 3) sums are kept: the k = 0 normal form's block (:meth:`k0_block`)
    and the generator check of a grid without k = 0 read them.
    """

    def __init__(self, config: ChainConfig, eq: Equilibrium):
        self.config = config
        self.cell_length = 2.0  # in units of d
        self._delta0 = eq.delta0
        self._generators = broken_symmetries(config, eq)
        self._m, self._pairs = half_pair_blocks(config, eq.delta0)
        bound = bulk_sum_bound(config, eq.delta0)
        if bound > BULK_SUM_BUDGET:
            raise ConvergenceError(
                f"bulk lattice sums certified to {bound:.2e} only, above "
                f"{BULK_SUM_BUDGET:.0e}; kappa = {config.kappa} is too large")
        # the on-site curvature trap - sum(pairs) sums the pairs over two
        # sites as the k = 0 block does, the same on both sublattices, so
        # its zero modes are exact; the mirrored +-m partners cancel its
        # cross terms
        self._k0_sums = k0_pair_sums(config, eq.delta0,
                                     fold_pair_blocks(self._m, self._pairs, 2))
        pairs = self._k0_sums.sum(axis=0)
        self._onsite = np.array([0.0, 1.0, config.alpha]) - np.diag(pairs)
        omega_sq = np.repeat(self._onsite, 2)
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
        return self._on_grid(_momenta(np.atleast_1d(k)), self._zone_table)

    def _on_grid(self, k_arr: np.ndarray, table) -> np.ndarray:
        """``table(k_0, n)`` of a uniform zone grid k_arr, else ``table(k, 1)`` per k."""
        if self.config.boundary is Boundary.RING:
            n = self.config.n_ions
            steps = k_arr * n / (2.0 * np.pi)  # ring momenta: multiples of 2 pi / N
            if np.any(np.abs(steps - np.round(steps)) > 1e-9):
                raise ValueError(
                    f"k = {k_arr} holds a momentum that the {n}-ion ring does not "
                    f"allow; use ring_momenta({n}) or bulk boundaries"
                )
        step = 2.0 * np.pi / (self.cell_length * len(k_arr))
        if np.max(np.abs(k_arr - k_arr[0] - step * np.arange(len(k_arr)))) < 1e-12:
            return table(k_arr[0], len(k_arr))
        return np.concatenate([table(kk, 1) for kk in k_arr])

    def _zone_table(self, k0: float, n: int) -> np.ndarray:
        """Raw couplings on k_j = k0 + j pi / n, j < n: one twisted fold, one FFT.

        The partner at offset m of column ion s' is ion s of cell p with
        2p = m + s' - s, so e^{-2i k0 p} = e^{-i k0 m} e^{-i k0 (s' - s)}:
        the pair blocks folded over 2n sites with twist k0 give the cells
        p mod n, and the DFT over them gives every k_j.  In bulk the
        closed-form even- and odd-offset sums at each k_j are added after.
        """
        sites = fold_pair_blocks(self._m, self._pairs, 2 * n, twist=k0)
        odd = sites[1::2]
        table = np.fft.fft(_cells(sites[0::2], odd, np.roll(odd, 1, axis=0), k0), axis=0)
        if self.config.boundary is Boundary.BULK:
            k = k0 + np.pi * np.arange(n) / n
            sums = power_law_sums(self.config, self._delta0, k)
            table += _cells(sums[:, 0], sums[:, 1], sums[:, 1], k[:, None, None])
        return table

    def _screw_table(self, k0: float, n: int) -> np.ndarray:
        """Screw blocks D(p) less the on-site curvature, at p = k_j and
        p = k_j + pi, k_j = k0 + j pi / n: shape (n, 2, 4), entries xx, yy,
        zz, xy.

        D(p) = sum_m M^m B(m) e^{-ipm} with M = diag(1, -1, 1), so M^m
        flips the yy entry at odd m: the pair blocks folded over 2n sites
        with twist k0 and one FFT, whose index j + n is k_j + pi.  In bulk
        the closed-form sums at each k_j are added after; their odd-offset
        part, times M, changes sign at k_j + pi.
        """
        sums = fold_pair_entries(self._m, self._pairs, 2 * n, twist=k0)
        sums[1, 1::2] *= -1.0
        table = np.fft.fft(sums, axis=1).reshape(4, 2, n).T
        if self.config.boundary is Boundary.BULK:
            laws = power_law_sums(self.config, self._delta0, k0 + np.pi * np.arange(n) / n)
            even, odd = np.moveaxis(laws[:, :, [0, 1, 2, 0], [0, 1, 2, 1]], 1, 0)
            odd *= [1.0, -1.0, 1.0, 1.0]
            table[:, 0] += even + odd
            table[:, 1] += even - odd
        return table

    def _screw_modes(self, k: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, ...]:
        """Closed-form modes of the screw blocks of the reduced-zone rows k.

        Each block is an in-plane 2 x 2, [[a, ib], [-ib, d]], real under
        y -> iy, and a z scalar.  The larger in-plane root is taken first,
        the smaller as det / larger (directly if the larger is not positive),
        the eigenvector of the larger as (cos t, i sin t), t = atan2(-2b,
        a - d) / 2; a diagonal block keeps x and y.  At the zone edge
        D(k + pi) is set to the conjugate of D(k), as the real cell block
        there has it; at k = 0 both blocks are diagonal and the generators
        (``chain.GENERATORS``) are their x and z entries.

        Returns per row the six lam = omega^2 (D(k + pi)'s in-plane roots
        and z, then D(k)'s); ion 0's entries ``phi[row, mode, axis]`` of
        their unit cell vectors, whose ion 1 carries ``twist[row, mode]``
        (sigma e^{ik}) times M times them; which modes are generators; and
        their labels (``_SLOT_LABELS``): in the zigzag the larger in-plane lam
        is the upper root, on a diagonal block too (the x generator is D(0)'s
        lower root); on the linear chain the axis, x or y, is the root.
        """
        table = table[:, ::-1]  # D(k + pi) first: it breaks ties at the edge
        diag = table[..., :3].real + self._onsite
        c = -table[..., 3].imag  # the off-diagonal entry under y -> iy
        edge = np.abs(np.abs(k) - np.pi / self.cell_length) < 1e-12
        if edge.any():
            diag[edge] = diag[edge].mean(axis=1, keepdims=True)
            c[edge] = 0.5 * (c[edge] - c[edge, ::-1])
        a, d = diag[..., 0], diag[..., 1]
        half_diff = 0.5 * (a - d)
        mean, radius = 0.5 * (a + d), np.hypot(half_diff, c)
        upper = mean + radius
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = np.where(upper > 0.0, (a * d - c * c) / upper, mean - radius)
        angle = 0.5 * np.arctan2(c, half_diff)
        origin = np.abs(k) < 1e-12
        # diagonal blocks (k = 0, and the linear chain's xy = 0) keep their
        # modes on the axes exactly: the x entry, then the y entry
        axes = origin[:, None] | (c == 0.0)
        upper[axes], lower[axes], angle[axes] = a[axes], d[axes], 0.0
        lam = np.stack([upper, lower, diag[..., 2]], axis=-1).reshape(-1, 6)
        swap = (lower > upper) if self._delta0 != 0.0 else np.zeros_like(axes)
        label = _SLOT_LABELS + (swap[..., None] * _SWAP_SHIFT).reshape(-1, 6)

        generator = np.zeros(lam.shape, dtype=bool)
        generator[np.ix_(origin, [_SCREW_GENERATOR_SLOT[axis] for axis in self._generators])] = True
        self._check_rows(k, lam, generator, table)

        half = np.sqrt(0.5)
        cos, sin = half * np.cos(angle), half * np.sin(angle)
        phi = np.zeros((len(k), 2, 3, 3), dtype=complex)
        phi[:, :, 0, 0], phi[:, :, 0, 1] = cos, 1j * sin
        phi[:, :, 1, 0], phi[:, :, 1, 1] = -sin, 1j * cos
        phi[:, :, 2, 2] = half
        twist = np.repeat(np.exp(1j * k)[:, None] * [-1.0, 1.0], 3, axis=1)
        return lam, phi.reshape(-1, 6, 3), twist, generator, label

    def _check_rows(self, k, lam, generator, table) -> None:
        """Raise the error of :meth:`normal_form` for the first row, in descending
        k, that fails its checks in their order: |Re D_xy| within ``HERMITIAN_TOL``
        of the row's scale (the blocks are real under y -> iy); at k = 0 the
        generators' entries and D_xy within lam_tol; no other lam below -lam_tol,
        and none within lam_tol of zero (lam_tol: the row's ``zero_threshold``)."""
        lam_tol = zero_threshold(np.max(np.where(generator, 0.0, np.abs(lam)), axis=1),
                                  float(np.max(self.omega_bare)))
        skew = np.max(np.abs(table[..., 3].real), axis=1)
        hermitian = skew <= HERMITIAN_TOL * np.maximum(1.0, np.max(np.abs(table), axis=(1, 2)))
        xy = np.where(np.abs(k) < 1e-12, np.max(np.abs(table[..., 3]), axis=1), 0.0)
        sound = hermitian & np.all((lam > lam_tol[:, None]) | generator, axis=1) & (
            np.maximum(np.max(np.where(generator, np.abs(lam), 0.0), axis=1), xy) <= lam_tol)
        if sound.all():
            return
        i = max(np.flatnonzero(~sound), key=k.__getitem__)  # the first of the largest k
        tol, modes = lam_tol[i], np.sort(lam[i, ~generator[i]])
        if not hermitian[i]:
            raise PhysicsError(f"screw blocks at k={k[i]} not Hermitian (|Re D_xy| {skew[i]:.2e})")
        at_zero = [(f"{GENERATORS[axis][0]} generator", lam[i, _SCREW_GENERATOR_SLOT[axis]])
                   for axis in self._generators if generator[i].any()] + [("D_xy", xy[i])]
        for name, entry in at_zero:
            if abs(entry) > tol:
                raise ZeroModeToleranceError(f"the {name} entry at k = 0 is {entry:.3g}, beyond "
                                             f"lam_tol = {tol:.3g} (is the chain at equilibrium?)")
        bad = np.sqrt(-modes[modes < -tol])
        if bad.size:
            raise DynamicalInstabilityError(f"dynamically unstable: {bad.size} imaginary mode "
                                            f"frequencies (largest {bad.max():.6g} i)",
                                            frequencies=list(1j * bad))
        raise ZeroModeToleranceError(
            f"{np.sum(modes <= tol)} zero mode(s) that no symmetry generator explains at "
            f"k = {k[i]:.6g}: the smallest lam = omega^2 there is {modes[0]:.3g}, within "
            f"lam_tol = {tol:.3g} of zero")

    def block(self, k: float) -> QuadraticForm:
        """The 6 x 6 cell coupling form at quasi-momentum k."""
        return self._block(k, self.raw_coupling(k)[0])

    def k0_block(self) -> QuadraticForm:
        """``block(0.0)`` to the bit, from the stored k = 0 sums: no fold, no FFT."""
        even, odd = self._k0_sums[:1], self._k0_sums[1:]
        return self._block(0.0, _cells(even, odd, odd, 0.0)[0])

    def check_generators(self) -> None:
        """:meth:`_check_rows` on a k = 0 row, for grids that hold none: the screw
        blocks D(pi) = even - M odd and D(0) = even + M odd of the stored k = 0
        sums, whose roots are their diagonal entries (see :meth:`_screw_modes`)."""
        even, odd = self._k0_sums[:, [0, 1, 2, 0], [0, 1, 2, 1]]  # xx, yy, zz, xy
        table = (even + np.outer([-1.0, 1.0], odd * [1.0, -1.0, 1.0, 1.0]))[None]  # D(pi), D(0)
        slots = [_SCREW_GENERATOR_SLOT[axis] for axis in self._generators]
        lam = (table[..., :3] + self._onsite).reshape(1, 6)
        self._check_rows(np.zeros(1), lam, np.isin(np.arange(6), slots)[None], table)

    def _block(self, k: float, raw: np.ndarray) -> QuadraticForm:
        g = raw / (2.0 * np.sqrt(np.outer(self.omega_bare, self.omega_bare)))
        if self._self_paired(k):
            g = g.real.astype(float)  # self-paired momenta have real blocks
        fault = _cell_fault(k, g)
        if fault:
            raise PhysicsError(fault)
        # the generators are uniform over the cells: zero pairs at k = 0 alone
        return QuadraticForm(g, self.omega_bare, self._generators if abs(k) < 1e-12 else ())

    def _self_paired(self, k):
        """k = 0 and the zone edge, the momenta that are their own -k."""
        edge = np.pi / self.cell_length
        return (np.abs(k) < 1e-12) | (np.abs(np.abs(k) - edge) < 1e-12)

    def normal_form(self, k: float) -> NormalForm:
        """Normal form of the 6 x 6 block at k (p^dag p = N), the tests' oracle."""
        return symplectic_diagonalize(self.block(k), axis_map=CELL_AXIS_MAP,
                                      p_norm=self.config.n_ions)

    def bands(self, k_grid: np.ndarray) -> Bands:
        """Normal modes of every block on a 1-D, non-empty, finite momentum grid.

        The 6 x 6 block at reduced k holds the screw blocks D(k) and
        D(k + pi) (:meth:`_screw_table`), which :meth:`_screw_modes`
        checks (:meth:`_check_rows`) and diagonalizes in closed form into
        omega, labels and screw vectors (no cell amplitude); at k = 0 each
        generator's slot stays unset.  Each -k row is the conjugate of its
        +k partner, phi(-k) = phi(k)*, and keeps its labels.
        """
        k = _momenta(k_grid)
        partner = _mirror_partners(k)
        mirrored = (k < -1e-12) & ~self._self_paired(k) & (np.abs(k[partner] + k) < 1e-9)
        rows = np.flatnonzero(~mirrored)
        modes = self._screw_modes(k[rows], self._on_grid(k, self._screw_table)[rows])
        # ascending omega, the generators' empty slots last
        order = np.argsort(np.where(modes[3], np.inf, modes[0]), axis=1, kind="stable")
        # every row takes its solved row: its own, or its +k partner's
        source = np.searchsorted(rows, np.where(mirrored, partner, np.arange(len(k))))
        lam, phi, twist, generator, labels = (a[source[:, None], order[source]] for a in modes)
        phi[mirrored], twist[mirrored] = phi[mirrored].conj(), twist[mirrored].conj()
        return Bands(k, np.sqrt(np.where(generator, 0.0, lam)), ~generator, labels, phi, twist,
                     self.omega_bare)


def _momenta(k_grid) -> np.ndarray:
    """``k_grid`` as a float array; it must be 1-D, non-empty and finite."""
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or not k.size or not np.all(np.isfinite(k)):
        raise ValueError(f"k_grid must be a 1-D, non-empty and finite array, got {k_grid!r}")
    return k


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


def _cell_fault(k: float, g: np.ndarray) -> str | None:
    """Why the cell block g at k is unphysical, or None.

    It must be Hermitian (``symplectic.is_hermitian``) and its out-of-plane
    (z) sector must decouple from the zigzag plane, relative to
    max(1, max|g|).
    """
    if not is_hermitian(g):
        return f"Bloch block at k={k} not Hermitian ({np.max(np.abs(g - g.conj().T)):.2e})"
    # rows (s, z) against columns (s, x), (s, y) in the _cell_index layout
    cross = np.max(np.abs(g[4:, :4]))
    if cross > 1e-10 * max(1.0, np.max(np.abs(g))):
        return f"z sector couples to the zigzag plane ({cross:.2e})"
    return None


def _mirror_partners(k: np.ndarray) -> np.ndarray:
    """Index of the grid point nearest to -k, for every k of the grid."""
    order = np.argsort(k, kind="stable")
    pos = np.searchsorted(k[order], -k)
    below, above = order[np.maximum(pos - 1, 0)], order[np.minimum(pos, len(k) - 1)]
    return np.where(np.abs(k[below] + k) <= np.abs(k[above] + k), below, above)


def cell_entry(phi: np.ndarray, twist: np.ndarray, s: int, axis: int) -> np.ndarray:
    """Ion s's ``axis`` entry of each mode's unit cell vector e: ion 0's
    ``phi[..., axis]``, and on ion 1 the ``twist`` times M times it."""
    return phi[..., axis] * (twist * SUBLATTICE_MIRROR[0, axis]) if s else phi[..., axis]


def cell_amplitudes(omega: np.ndarray, phi: np.ndarray, twist: np.ndarray,
                    omega_bare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigma-normalized cell amplitudes ``u``, ``v`` (..., 6, 6) of modes at ``omega``
    (..., 6) with unit cell vectors e of ``phi`` (..., 6, 3) and ``twist`` (..., 6)
    (:func:`cell_entry`): entry by entry u - v = sqrt(Omega_a / omega) e_a and
    u + v = sqrt(omega / Omega_a) e_a, with no phase convention; an unset slot
    (omega = 0) stays zero."""
    e = np.stack([cell_entry(phi, twist, s, axis) for axis in range(3) for s in (0, 1)], axis=-1)
    root = np.sqrt(omega[..., None] / omega_bare)  # sqrt(omega / Omega_a), 0 where unset
    with np.errstate(divide="ignore", invalid="ignore"):
        minus = np.where(root > 0.0, e / root, 0.0)  # u - v
    return 0.5 * (root * e + minus), 0.5 * (root * e - minus)


@dataclass(eq=False)
class Bands:
    """Normal modes of the cell blocks on a momentum grid.

    Row i holds the modes of block k[i] where ``mask`` is set: in ascending
    omega from :meth:`CellCouplings.bands`, in branch order (column b is
    branch b, one label across the grid) from :func:`dispersion_zigzag`.
    Unset slots stand for the zero pairs (only k = 0 has any; the pairs are
    ``freeparticle``'s) and carry omega = u = v = 0, so their mixing angle and
    collectivity are NaN.  ``labels[i, g]`` is slot g's symmetry label, 3
    (odd glide parity) + its screw-block root (upper 0, lower 1, z 2; on the
    linear chain x 0, y 1), a permutation of range(6) in every row; a zero
    slot keeps its generator's, 5 for the rotation and 1 for the x
    translation (0 on the linear chain).  Mode g's unit cell vector holds
    ``phi[i, g]`` on ion 0 and ``twist[i, g]`` (sigma e^{ik}) times M times it
    on ion 1; its cell amplitudes ``u[i, g]``, ``v[i, g]`` are built on the
    first read (:func:`cell_amplitudes`).
    """

    k: np.ndarray
    omega: np.ndarray       # (n_k, 6)
    mask: np.ndarray        # (n_k, 6) bool
    labels: np.ndarray      # (n_k, 6) int
    phi: np.ndarray         # (n_k, 6, 3) complex
    twist: np.ndarray       # (n_k, 6) complex
    omega_bare: np.ndarray  # (6,), the cell's Omega

    @functools.cached_property
    def _amplitudes(self) -> tuple[np.ndarray, np.ndarray]:
        return cell_amplitudes(self.omega, self.phi, self.twist, self.omega_bare)

    u = property(lambda self: self._amplitudes[0])
    v = property(lambda self: self._amplitudes[1])


def ring_momenta(n_ions: int) -> np.ndarray:
    """Sorted discrete momenta of an n_ions ring, in [-pi/2d, pi/2d)."""
    k = 2.0 * np.pi * np.arange(n_ions // 2) / n_ions
    return np.sort((k + np.pi / 2.0) % np.pi - np.pi / 2.0)


def _zone_count(n_k: int) -> int:
    """``n_k`` if it is an int (not a float) of at least 1, else ValueError."""
    if not isinstance(n_k, (int, np.integer)) or n_k < 1:
        raise ValueError(f"n_k must be at least 1 and an integer, got {n_k!r}")
    return n_k


def reduced_zone_grid(n_k: int, include_edge: bool = True) -> np.ndarray:
    """n_k >= 1 momenta (``_zone_count``) spanning the reduced zone [-pi/2d, pi/2d)."""
    n_k = _zone_count(n_k)
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


def dispersion_zigzag(k_grid: np.ndarray, config: ChainConfig,
                      eq: Equilibrium | None = None) -> Bands:
    """The :class:`Bands` of a momentum grid with column b of every row on branch b.

    Branches are numbered by symmetry (``Bands.labels``, each mode's screw
    slot): branch b is the label of slot b of the first row, whose slots are
    in ascending omega with the zero slots last, and in every row it takes
    the slot with that label, so ``labels`` is the same in every row.  So
    omega_b(-k) = omega_b(k) to the bit, and each branch keeps one glide
    parity wherever that parity is sharp.  At k = 0 in the zigzag phase the
    two gapless directions are zero slots (``mask`` unset, omega = 0), whose
    pairs ``freeparticle.zero_mode_normal_form`` builds.
    """
    if eq is None:
        eq = solve_delta0(config)
    bands = CellCouplings(config, eq).bands(k_grid)
    # a row's labels are a permutation: its argsort is the slot of each label
    slots = np.argsort(bands.labels, axis=1)[:, bands.labels[0]]
    rows = np.arange(len(bands.k))[:, None]
    return Bands(bands.k, *(getattr(bands, name)[rows, slots] for name in
                            ("omega", "mask", "labels", "phi", "twist")), bands.omega_bare)


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
