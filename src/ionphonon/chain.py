"""Ion-chain geometry, classical zigzag equilibrium and harmonic expansion.

Units throughout: ``m_I = omega_I = d = 1`` (ion mass, transverse trap
frequency along y, inter-ion spacing).  Lengths are in units of ``d``,
frequencies in ``omega_I`` and Hessian elements in ``m_I omega_I**2``.

Two boundary conventions are supported.  ``Boundary.RING`` is a physical
N-ion ring; ``Boundary.BULK`` is the infinite chain sampled with N sites, so
Bloch frequencies at the discrete quasi-momenta coincide with the
thermodynamic-limit dispersion.

Pair rule.  Every lattice sum (equilibrium condition, Hessian, Bloch
couplings) reads one pair set, so the Goldstone modes are exact zeros.
RING (:func:`pair_offsets`): the minimal image, with the antipodal partner
(equally far both ways round) split evenly over the two directions, weight
1/2 at m = +N/2 and at m = -N/2.  BULK: every offset m != 0, weight 1,
each pair block's power laws summed in closed form (:func:`power_law_sums`)
plus a short remainder over the odd |m| <= M (:func:`half_pair_blocks`); M
and the certified error (:func:`bulk_sum_bound`) follow from kappa, delta.
The bulk root search reads that remainder's zz entries alone, to the bit the
odd zz sum of :func:`k0_pair_sums` that the on-site blocks read.

The runtime needs numpy alone: the few special values the spectra use
(zeta(3), zeta(5), zeta(7), the Bernoulli numbers of :func:`even_bernoulli`,
the polylogarithms Li_s(e^{-i theta}) and the root of the zigzag condition)
are computed here.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BareInstabilityError,
    BracketingError,
    ConvergenceError,
    DynamicalInstabilityError,
    PhysicsError,
)

# zeta(3) (Apery's constant), zeta(5) and zeta(7), correctly rounded
ZETA3 = 1.2020569031595942
ZETA5 = 1.03692775514337
ZETA7 = 1.008349277381923

# Largest certified error of a bulk coupling table (see bulk_sum_bound)
BULK_SUM_BUDGET = 1e-9

# Signs of conjugation by diag(1, -1, 1): odd-ion pair blocks mirror even ones.
SUBLATTICE_MIRROR = np.outer([1.0, -1.0, 1.0], [1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# special values


def even_bernoulli(k_max: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_2, B_4, ..., B_{2 k_max}.

    From the integer tangent numbers T_{2k-1} (the in-place recurrence of
    Brent and Harvey), B_2k = (-1)^(k-1) 2k T_{2k-1} / (4^k (4^k - 1)).
    """
    t = [0] + [1] * k_max
    for k in range(2, k_max + 1):
        t[k] = (k - 1) * t[k - 1]  # T_{2k-1} starts as (k-1)!
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                 for k in range(1, k_max + 1))


@functools.cache
def _polylog_series() -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of Li_s(e^{-i theta}) for s = 3..7, one row per order.

    First zeta(s - j) (-i)^j / j!, the coefficient of theta^j in the
    expansion of Li_s(e^mu) around mu = -i theta = 0, less column j = s - 1;
    zeta(0) = -1/2 and zeta(1 - 2k) = -B_2k / (2k) from the exact Bernoulli
    numbers (each such coefficient rounded once), zero at the other negative
    integers.  Then H_{s-1} and (-i)^(s-1) / (s-1)! of the logarithmic term.
    """
    zeta = (np.pi**2 / 6.0, ZETA3, 1.0823232337111381, ZETA5, 1.0173430619844492, ZETA7)
    bernoulli = even_bernoulli(34)
    coeff = np.zeros((len(POLYLOG_ORDERS), POLYLOG_ORDERS[-1] + 2 * len(bernoulli)))
    log_term = np.zeros((len(POLYLOG_ORDERS), 2), dtype=complex)
    for row, s in enumerate(POLYLOG_ORDERS):
        coeff[row, :s - 1] = [zeta[s - j - 2] / math.factorial(j) for j in range(s - 1)]
        coeff[row, s] = -0.5 / math.factorial(s)
        for k, b in enumerate(bernoulli, 1):
            coeff[row, s - 1 + 2 * k] = float(-b / (2 * k) / math.factorial(s - 1 + 2 * k))
        log_term[row] = sum(1.0 / j for j in range(1, s)), (-1j) ** (s - 1) / math.factorial(s - 1)
    return coeff * np.array([1, -1j, -1, 1j])[np.arange(coeff.shape[1]) % 4], log_term


POLYLOG_ORDERS = range(3, 8)


def polylog(s, theta):
    """Li_s(e^{-i theta}) for theta in [-pi, pi] and s in 3..7, or s a sequence.

    A sequence of orders puts them on a last axis.  The series converges
    geometrically on the closed zone; its only non-analytic piece is
    (H_{s-1} - ln(-mu)) mu^(s-1) / (s-1)!, mu = -i theta, H the harmonic
    number.  Within 2.9e-15 of mpmath on 801 evenly spaced angles across the
    zone, and zeta(s) to the bit at theta = 0; for s = 3 the imaginary part
    equals the Bernoulli-polynomial closed form
    -(pi^2 th/6 - pi th^2/4 + th^3/12) (odd-extended).
    """
    orders = np.atleast_1d(s)
    if np.any((orders < POLYLOG_ORDERS[0]) | (orders > POLYLOG_ORDERS[-1])):
        raise ValueError(f"polylog orders must lie in 3..7, got {s}")
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > np.pi + 1e-12):
        raise ValueError("theta must lie in [-pi, pi]")
    series, log_term = _polylog_series()
    rows = orders - POLYLOG_ORDERS[0]
    powers = np.ones(th.shape + (series.shape[1],))
    np.cumprod(np.broadcast_to(th[..., None], powers[..., 1:].shape), axis=-1,
               out=powers[..., 1:])
    out = powers @ series[rows].T
    nonzero = th != 0.0
    log = np.log(np.abs(th[nonzero])) + 0.5j * np.pi * np.sign(th[nonzero])  # ln(-mu)
    out[nonzero] += (log_term[rows, 0] - log[:, None]) * log_term[rows, 1] \
        * powers[nonzero][:, orders - 1]
    return out if np.ndim(s) else out[..., 0][()]


def _brent_root(f, xa: float, xb: float) -> float:
    """Root of f on the sign-changing bracket [xa, xb] by Brent's method.

    A step-for-step port of the brentq of SciPy's zeros module, run with
    xtol = 1e-15 and rtol = 8.9e-16 (4 eps): the same steps, so the same
    root to the last bit.
    """
    xtol, rtol, maxiter = 1e-15, 8.9e-16, 100
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketingError(f"no sign change of f on [{xa}, {xb}]", interval=(xa, xb))
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(
        f"Brent's method did not converge in {maxiter} steps; last iterate {xcur!r}")


class Boundary(enum.Enum):
    """Boundary convention for lattice sums."""

    RING = "ring"
    BULK = "bulk"


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool (an int too)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _ion_count(n_ions: int, name: str = "n_ions") -> int:
    """``n_ions`` if it is an even integer (``_is_integer``) of at least 4, else ValueError naming ``name``."""
    if not _is_integer(n_ions) or n_ions < 4 or n_ions % 2 != 0:
        raise ValueError(f"{name} must be an even integer >= 4, got {n_ions!r}")
    return n_ions


def _count(name: str, value, minimum: int) -> int:
    """``value`` if it is an integer (``_is_integer``) of at least ``minimum``, else ValueError."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be at least {minimum} and an integer, got {value!r}")
    return value


def _check_positive_real(name: str, value, allow_zero: bool = False) -> None:
    """ValueError naming ``name`` and ``value`` unless it is a real number (``numbers.Real``,
    numpy reals too, not a bool) in (0, inf), or [0, inf) with ``allow_zero``.  A Python
    float skips the ``numbers.Real`` check, which costs ten times the comparisons."""
    if not ((type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and (0.0 <= value if allow_zero else 0.0 < value) and value < math.inf):
        raise ValueError(f"{name} must be {'non-negative' if allow_zero else 'positive'} and "
                         f"finite (a real number, not a bool), got {value!r}")


@dataclass(frozen=True)
class ChainConfig:
    """Dimensionless parameters that fully specify the chain.

    Parameters
    ----------
    kappa : float
        Coulomb coupling; ratio of the electrostatic energy of two charges
        at spacing d to the transverse trap energy at excursion d.
    alpha : float
        Radial anisotropy of the trap; the z curvature is ``alpha`` in units
        of the y curvature (alpha = 1 is the O(2)-symmetric case).
    lam : float
        Length-scale ratio ``d * sqrt(m_I omega_I)`` (the parameter usually
        written lambda); sets the quantum scale of position fluctuations.
    n_ions : int
        Even number of ions, at least 4.
    boundary : Boundary
        Lattice-sum convention, see module docstring.
    """

    kappa: float
    alpha: float = 1.0
    lam: float = 50.0
    n_ions: int = 64
    boundary: Boundary = Boundary.RING

    def __post_init__(self):
        for name, value in (("kappa", self.kappa), ("alpha", self.alpha),
                            ("lambda", self.lam)):
            _check_positive_real(name, value)
        _ion_count(self.n_ions)
        if not isinstance(self.boundary, Boundary):
            raise ValueError(f"boundary must be a Boundary, got {self.boundary!r}")


@dataclass(frozen=True)
class Equilibrium:
    """Classical equilibrium: the zigzag amplitude delta0, ion l at l e_x + delta0 (-1)^l e_y.

    Frozen: :func:`solve_delta0` hands every caller of one config the same instance.
    """

    delta0: float

    @property
    def is_zigzag(self) -> bool:
        return self.delta0 > 0.0


# Generator of each symmetry a chain can break, by the axis it moves (the x
# translation; the rotation about the trap axis moves ion l along z by its y
# offset delta0 (-1)^l): the label of its zero pair, and its gapless branch.
GENERATORS = {0: ("longitudinal", "axial sound"), 2: ("radial", "helical")}


def broken_symmetries(config: ChainConfig, eq: Equilibrium) -> tuple[int, ...]:
    """Axis of the generator (``GENERATORS``) of each broken symmetry.

    The x translation always; the rotation about the trap axis only in the
    zigzag of an O(2)-symmetric trap (alpha = 1): the linear chain is
    invariant under it, and alpha != 1 breaks it explicitly.
    """
    return (0, 2) if eq.is_zigzag and abs(config.alpha - 1.0) < 1e-12 else (0,)


@dataclass
class Hessian:
    """Second derivatives of the potential at equilibrium, units m_I omega_I^2.

    Flat index convention: ``(l, nu) -> 3 * l + nu`` with nu in (x, y, z).
    """

    matrix: np.ndarray  # (3N, 3N) real symmetric (bulk: to rounding)
    n_ions: int
    generators: tuple[int, ...]  # broken_symmetries of the equilibrium

    @property
    def axis_map(self) -> np.ndarray:
        """Axis label (0=x, 1=y, 2=z) of every flat index."""
        return np.tile(np.arange(3), self.n_ions)


# ---------------------------------------------------------------------------
# pair geometry


def pair_dyadic(dx: np.ndarray, dy: np.ndarray, kappa: float | np.ndarray,
                rows: slice = slice(None)) -> np.ndarray:
    """Entries xx, yy, zz, xy of the off-diagonal Coulomb Hessian blocks.

    The block ``d^2 phi / dR_l dR_l'`` for the pair potential ``phi = kappa /
    (2 r)`` at separation (dx, dy, 0) (kappa may be per pair) is symmetric
    and has no xz or yz entry, so these four hold it; shape (4, n), units
    m_I omega_I^2, or the ``rows`` of them alone.  The same-site
    contribution of each pair is its negative.
    """
    dx = np.asarray(dx, dtype=float)
    r2 = dx * dx + dy * dy
    if np.any(r2 < 1e-18):
        raise PhysicsError("overlapping equilibrium positions: singular geometry")
    pref = -0.5 * kappa * r2 ** -2.5
    # entry ab is pref (3 a b - [a = b] r^2), with z = 0
    terms = ((dx, dx, r2), (dy, dy, r2), (0.0, 0.0, r2), (dx, dy, 0.0))[rows]
    return np.array([pref * (3.0 * a * b - diag) for a, b, diag in terms])


def pair_offsets(config: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Signed axial offsets m of one ring ion's interaction partners, and weights w.

    Implements the ring pair rule of the module docstring; m is ascending.
    The partner of ion l is ion l + m (mod N), displaced transversely by
    :func:`pair_dy`.  The arrays are shared and read-only.  Bulk sums run
    over every offset, in closed form, and have no such list.
    """
    if config.boundary is not Boundary.RING:
        raise ValueError("bulk lattice sums run over every offset: see power_law_sums")
    return _ring_pairs(config.n_ions)[:2]


@functools.lru_cache(maxsize=8)
def _ring_pairs(n_ions: int) -> tuple[np.ndarray, ...]:
    """Read-only m and w of a ring's pair set, then m^2 and w of its odd offsets."""
    half = n_ions // 2
    m = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    w = np.ones(len(m))
    w[[0, -1]] = 0.5
    odd = m % 2 != 0
    out = (m, w, (m[odd] ** 2).astype(float), w[odd])
    for arr in out:
        arr.flags.writeable = False
    return out


def pair_dy(m: np.ndarray, delta0: float) -> np.ndarray:
    """Transverse offset from an even ion to its partner at offset m."""
    return np.where(m % 2 != 0, -2.0 * delta0, 0.0)


def half_pair_blocks(config: ChainConfig, delta0: float,
                     rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Offsets m > 0 summed directly and their pair blocks' entries, shape (4, n).

    RING: the pair set of :func:`pair_offsets`.  BULK: the odd m <= M, each
    block less the power laws that :func:`power_law_sums` adds in closed
    form.  The partner at -m mirrors the one at +m (xy odd in m, the rest
    even), so this half stands for the whole set in :func:`fold_pair_blocks`.
    ``rows`` (a slice of xx, yy, zz, xy) keeps those entries alone, each the
    same to the bit: the bulk root search reads zz (:func:`_odd_zz_sum`).
    """
    if config.boundary is Boundary.BULK:
        c = 4.0 * delta0 * delta0  # M >= 2 delta0, each tail bound below _TAIL
        top = max(2.0 * delta0, (35 / 32 * c**3 / _TAIL) ** (1 / 8),
                  (15 / 8 * delta0 * c * c / _TAIL) ** (1 / 7))
        m = np.arange(1, 2 * math.ceil((top + 1.0) / 2.0) if delta0 else 1, 2)
        entries = pair_dyadic(m, -2.0 * delta0, config.kappa, rows)  # pair_dy at odd m
        inv = 1.0 / m
        laws = config.kappa * (c * inv * inv)[:, None] ** np.arange(3) * (inv**3)[:, None]
        entries -= [*(laws @ _SERIES).T, delta0 * inv * (laws[:, :2] @ _SERIES_XY)][rows]
        return m, entries
    m, w = pair_offsets(config)
    half = len(m) // 2
    m, w = m[half:], w[half:]
    return m, pair_dyadic(m, pair_dy(m, delta0), config.kappa * w, rows)


def fold_pair_entries(m: np.ndarray, entries: np.ndarray, n_sites: int,
                      twist: float = 0.0) -> np.ndarray:
    """sum_m B(m) e^{-i twist m} over each offset class m mod n_sites, per entry.

    ``(m, entries)`` is the m > 0 half of :func:`half_pair_blocks`, mirrored
    here to -m.  The sum runs over the pair blocks seen from an even ion;
    shape (4, n_sites) in the entries xx, yy, zz, xy, complex when twisted.
    """
    signed = np.concatenate([-m[::-1], m])
    both = np.concatenate([entries[:, ::-1] * [[1], [1], [1], [-1]], entries], axis=1)
    if twist:
        phase = np.exp(-1j * twist * signed)
        both = np.concatenate([both * phase.real, both * phase.imag])
    # one bin per (entry, class); bincount adds each bin's terms in ascending
    # m, the pair set's order
    bins = np.mod(signed, n_sites) + n_sites * np.arange(len(both))[:, None]
    sums = np.bincount(bins.ravel(), both.ravel(), minlength=len(both) * n_sites)
    sums = sums.astype(float, copy=False).reshape(-1, n_sites)  # float with no pairs too
    return sums[:4] + 1j * sums[4:] if twist else sums


def fold_pair_blocks(m: np.ndarray, entries: np.ndarray, n_sites: int,
                     twist: float = 0.0) -> np.ndarray:
    """The 3 x 3 blocks of :func:`fold_pair_entries`, shape (n_sites, 3, 3)."""
    sums = fold_pair_entries(m, entries, n_sites, twist)
    out = np.zeros((n_sites, 3, 3), dtype=sums.dtype)
    rows, cols = [0, 1, 2, 0], [0, 1, 2, 1]  # xx, yy, zz, xy; xy is odd in m
    out[:, rows, cols] = out[:, cols, rows] = sums.T
    return out


def _site_blocks(config: ChainConfig, delta0: float) -> np.ndarray:
    """Coupling blocks B[o, c] between ions (l + o) and l, c = parity of l.

    o runs over 0..N-1: every partner folded by m mod N (in bulk, the
    closed-form part folded as the inverse FFT of its Bloch sums at the N
    site momenta), self-images (m = 0 mod N) dropped, and at o = 0 the
    on-site block, assembled as trap - sum(pair blocks) so that rigid
    translations cost exactly zero.  Shape (N, 2, 3, 3).
    """
    n = config.n_ions
    out = np.zeros((n, 2, 3, 3))
    out[1:, 0] = fold_pair_blocks(*half_pair_blocks(config, delta0), n)[1:]
    if config.boundary is Boundary.BULK:
        sums = power_law_sums(config, delta0, 2.0 * np.pi * np.arange(n) / n).sum(axis=1)
        out[1:, 0] += np.fft.ifft(sums, axis=0).real[1:]
    out[0, 0] = np.diag([0.0, 1.0, config.alpha]) - out[1:, 0].sum(axis=0)
    out[:, 1] = out[:, 0] * SUBLATTICE_MIRROR
    return out


# ---------------------------------------------------------------------------
# bulk lattice sums
#
# Per unit kappa the bulk pair block at an even offset m is the power law
# diag(-1, 1/2, 1/2) |m|^-3.  At an odd m (dy = -2 delta) its entries expand
# in c / m^2, c = 4 delta^2: row j of _SERIES holds the coefficients of
# c^j |m|^-(3 + 2j) in xx, yy, zz, _SERIES_XY[j] that of delta c^j sign(m)
# |m|^-(4 + 2j) in xy.  For m^2 >= c the first omitted terms, at most
# (35/4) c^3 |m|^-9 and (105/8) delta c^2 |m|^-8, bound the rest of each
# entry, so past the odd M that the remainder sums over, its tail adds at
# most (35/32) c^3 M^-8 and (15/8) delta c^2 M^-7.

_SERIES = np.array([[-1.0, 0.5, 0.5], [3.0, -9 / 4, -3 / 4], [-45 / 8, 75 / 16, 15 / 16]])
_SERIES_XY = np.array([3.0, -15 / 2])
_TAIL = 2.0**-56  # the remainder's tail per unit kappa that M leaves out


def power_law_sums(config: ChainConfig, delta: float, k) -> np.ndarray:
    """Closed-form sums sum_m B(m) e^{-ikm} of the power laws, shape (n_k, 2, 3, 3).

    Over the even and over the odd m: with L_s = Li_s(e^{-ik}) and
    L2_s = Li_s(e^{-2ik}), sum_{m even} |m|^-s e^{-ikm} = 2^(1-s) Re L2_s,
    sum_{m odd} |m|^-s e^{-ikm} = 2 Re L_s - 2^(1-s) Re L2_s and
    sum_{m odd} sign(m) |m|^-s e^{-ikm} = 2i Im(L_s - 2^-s L2_s).  These do
    not depend on delta; at k = 0 alone, which every step of the bulk root
    search and every k = 0 cell block read, they are made once.
    """
    even, odd, odd_signed = _k0_lattice_sums() if np.size(k) == 1 and k == 0.0 \
        else _lattice_sums(k)
    out = np.zeros((len(even), 2, 3, 3), dtype=complex)
    out[:, 0, [0, 1, 2], [0, 1, 2]] = even[:, :1] * _SERIES[0]
    out[:, 1, [0, 1, 2], [0, 1, 2]] = _odd_power_laws(delta, odd)
    xy = [1.0, 4.0 * delta * delta] * _SERIES_XY
    out[:, 1, 0, 1] = out[:, 1, 1, 0] = delta * (odd_signed[:, 1::2] @ xy)
    return config.kappa * out


def _odd_power_laws(delta: float, odd: np.ndarray) -> np.ndarray:
    """Odd-m power-law sums xx, yy, zz per unit kappa, (n_k, 3), from ``odd`` (n_k, 5)."""
    return odd[:, 0::2] @ ((4.0 * delta * delta) ** np.arange(3)[:, None] * _SERIES)


def _lattice_sums(k) -> tuple[np.ndarray, ...]:
    """The even, odd and signed odd sums of :func:`power_law_sums`, each (n_k, 5)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    turns = np.stack([k, 2.0 * k])
    turns = np.where(np.abs(turns) > np.pi, (turns + np.pi) % (2.0 * np.pi) - np.pi, turns)
    s = np.array(POLYLOG_ORDERS)
    li, li2 = polylog(s, turns)
    even = 2.0 ** (1 - s) * li2.real
    return even, 2.0 * li.real - even, 2j * (li.imag - 2.0**-s * li2.imag)


@functools.cache
def _k0_lattice_sums() -> tuple[np.ndarray, ...]:
    sums = _lattice_sums(0.0)
    for arr in sums:
        arr.flags.writeable = False
    return sums


def k0_pair_sums(config: ChainConfig, delta: float, sites: np.ndarray | None = None) -> np.ndarray:
    """Pair blocks summed over the even and over the odd offsets, k = 0; (2, 3, 3).

    ``sites``: the two-site fold of :func:`half_pair_blocks`, if the caller
    holds it.  The equilibrium condition and the cell on-site blocks both
    read these sums, so the zero modes are exact.
    """
    if sites is None:
        sites = fold_pair_blocks(*half_pair_blocks(config, delta), 2)
    if config.boundary is Boundary.BULK:
        sites = sites + power_law_sums(config, delta, 0.0)[0].real
    return sites


def _odd_zz_sum(config: ChainConfig, delta: float) -> float:
    """``k0_pair_sums(config, delta)[1, 2, 2]`` in bulk, to the bit, without blocks:
    the remainder's zz entries added in the fold's order (-m from the top,
    then +m), then the odd power laws' zz sum."""
    _, (zz,) = half_pair_blocks(config, delta, slice(2, 3))
    both = np.concatenate([zz[::-1], zz])
    remainder = np.bincount(np.zeros(len(both), int), both, minlength=1)[0]
    return remainder + config.kappa * _odd_power_laws(delta, _k0_lattice_sums()[1])[0, 2]


def bulk_sum_bound(config: ChainConfig, delta: float) -> float:
    """Certified error of every pair-block sum at delta (0 on a ring), m_I omega_I^2.

    In bulk, the remainder's tail past M (below 2 _TAIL per unit kappa)
    plus the rounding of the split into power laws and remainder, which
    cancel at small m: 16 eps times the largest sum of |terms| of a series.
    """
    if config.boundary is Boundary.RING:
        return 0.0
    c = 4.0 * delta * delta
    powers = c ** np.arange(3)
    split = 2.0 * ZETA3 * max(np.max(powers @ np.abs(_SERIES)),
                              delta * (powers[:2] @ np.abs(_SERIES_XY)))
    return config.kappa * (2.0 * _TAIL + 16.0 * np.finfo(float).eps * split)


# ---------------------------------------------------------------------------
# equilibrium


def _odd_neighbor_sum(delta: float, config: ChainConfig) -> float:
    """sum over the odd partner offsets m of w (m^2 + 4 delta^2)^(-3/2); in bulk
    2 / kappa times the odd zz sum (kappa / 2) sum r^-3 of :func:`_odd_zz_sum`."""
    if config.boundary is Boundary.BULK:
        return float(2.0 * _odd_zz_sum(config, delta) / config.kappa)
    m2, w = _ring_pairs(config.n_ions)[2:]
    return float(np.sum(w * (m2 + 4.0 * delta * delta) ** -1.5))


def zigzag_root_gap(delta: float, config: ChainConfig) -> float:
    """G(delta) with dV/d(delta) = 2 delta G(delta); the zigzag root solves G=0.

    Differentiating the classical potential over the pair set gives
    ``G = 1 - kappa sum_m w (m^2 + 4 delta^2)^(-3/2)`` over the odd offsets m,
    the pairs the zigzag stretches; in bulk G(0) = 0 at kappa_c =
    4 / (7 zeta(3)), where the transverse zone-edge mode softens.  In bulk
    the sum is the on-site blocks', to the bit, read without pair blocks.
    """
    return 1.0 - config.kappa * _odd_neighbor_sum(delta, config)


# largest |dV/d(delta)| that solve_delta0 accepts at its root
EQUILIBRIUM_TOL = 1e-12


@functools.lru_cache(maxsize=64)
def _root_gap(kappa: float, boundary: Boundary, n_ions: int):
    """G (:func:`zigzag_root_gap`) of one root problem, each point evaluated once
    (Brent's two ends and its root are points seen before).

    G reads kappa, the boundary and a ring's N alone (``n_ions``: 4 in bulk,
    where it reads none), so the configs that share them share this memo of
    G's points, kept for the 64 problems used last; it holds no error.
    """
    problem = ChainConfig(kappa, boundary=boundary, n_ions=n_ions)
    return functools.cache(lambda delta: zigzag_root_gap(delta, problem))


@functools.lru_cache(maxsize=64)
def solve_delta0(config: ChainConfig) -> Equilibrium:
    """Solve the classical zigzag equilibrium: the one owner of the ground state.

    Kept for the 64 configs used last, so every reader of one config gets
    one frozen ``Equilibrium``; a ``PhysicsError`` is not kept but raised on
    every call.  The root search reads G through :func:`_root_gap`, so
    configs whose G is one (alpha and lambda enter no root, a bulk config's
    N neither) share one search: each point of G is evaluated once.

    Returns delta0 = 0 when the derivative has no positive root (kappa at or
    below the classical transition) and otherwise the largest root of
    dV/d(delta) = 0, which is the global minimizer.  The residual
    |dV/d(delta)| at the returned point is below ``EQUILIBRIUM_TOL``.

    With alpha < 1 the chain buckles along z first, when the linear chain's
    z zone-edge mode softens at kappa = alpha * kappa_c; past that point a
    DynamicalInstabilityError carries the mode's imaginary frequency.
    """
    ring = config.boundary is Boundary.RING
    gap = _root_gap(config.kappa, config.boundary, config.n_ions if ring else 4)
    gap0 = gap(0.0)
    z_edge = gap0 - (1.0 - config.alpha)  # G(0) with trap alpha: omega_z(pi)^2
    if config.alpha < 1.0 and z_edge < 0.0:
        raise DynamicalInstabilityError(
            f"the chain buckles along z first: alpha = {config.alpha} < 1 and "
            f"kappa = {config.kappa} > alpha * kappa_c = "
            f"{config.alpha * critical_kappa_classical(config):.6g}",
            frequencies=[1j * np.sqrt(-z_edge)])
    if gap0 >= 0.0:
        return Equilibrium(0.0)
    lo, hi = 0.0, 1.0
    while gap(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 64.0:
            raise BracketingError(
                f"no sign change of dV/d(delta) on (0, {hi}]", interval=(0.0, hi)
            )
    delta0 = _brent_root(gap, lo, hi)
    residual = abs(2.0 * delta0 * gap(delta0))
    if residual >= EQUILIBRIUM_TOL:
        raise ConvergenceError(
            f"equilibrium residual {residual:.3e} >= tol {EQUILIBRIUM_TOL:.1e}")
    return Equilibrium(float(delta0))


def critical_kappa_classical(config: ChainConfig) -> float:
    """kappa at which the zigzag root first appears, for this boundary."""
    return 1.0 / _odd_neighbor_sum(0.0, config)


# ---------------------------------------------------------------------------
# harmonic expansion


def bare_frequencies(config: ChainConfig, eq: Equilibrium) -> np.ndarray:
    """Bare local oscillator frequencies (Omega_x, Omega_y, Omega_z) in omega_I.

    Translational symmetry makes these site independent.  In the linear bulk
    limit the closed form Omega^2 = trap - 2 c kappa zeta(3), with the
    per-axis coefficient c = (-1, 1/2, 1/2) of the pair law c kappa |m|^-3
    (``_SERIES[0]``), is returned exactly.
    """
    if config.boundary is Boundary.BULK and eq.delta0 == 0.0:
        arg = np.array([0.0, 1.0, config.alpha]) - 2.0 * config.kappa * ZETA3 * _SERIES[0]
    else:
        arg = np.diag(_site_blocks(config, eq.delta0)[0, 0]).copy()
    return bare_root(arg, f"the bare Omega^2 of (x, y, z) at kappa = {config.kappa} (linear-phase "
                          f"single-site bound kappa_tilde_c = 1/zeta(3) = {1 / ZETA3:.6f})")


def bare_root(omega_sq: np.ndarray, what: str) -> np.ndarray:
    """The bare frequencies sqrt(``omega_sq``); BareInstabilityError, naming
    ``what``, unless every entry is positive (else the site is unstable)."""
    if not np.all(omega_sq > 0.0):
        raise BareInstabilityError(f"{what} is not positive (min {np.min(omega_sq):.6g} at "
                                   f"entry {np.argmin(omega_sq)})")
    return np.sqrt(omega_sq)


def build_hessian(config: ChainConfig, eq: Equilibrium) -> Hessian:
    """Assemble the real symmetric 3N x 3N Hessian at the given equilibrium.

    Pairwise Coulomb dyadics plus diagonal trap curvature; on-site blocks are
    accumulated from the same pair set as the off-site blocks, so rigid
    translations are exact zero modes at machine precision.  Not symmetrized:
    ring Hessians are exactly symmetric, bulk ones to rounding.
    """
    n = config.n_ions
    blocks = _site_blocks(config, eq.delta0)
    ion = np.arange(n)
    # block (row l, column l') couples ion l = l' + o to ion l' of parity c
    mat = blocks[(ion[:, None] - ion[None, :]) % n, ion % 2]
    return Hessian(mat.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n), n,
                   broken_symmetries(config, eq))


def equilibrium_residual(config: ChainConfig, eq: Equilibrium) -> float:
    """Max-norm of the classical gradient at ``eq`` (units m_I omega_I^2 d).

    Used as a gate before Hessian construction: the harmonic expansion is
    only valid where the first-order term vanishes.  The two sublattices are
    mirror images (y -> -y), so the even-parity ion stands for all: over the
    mirrored pair set the pairs at +-m cancel along x, and along y the
    gradient is delta G(delta) (:func:`zigzag_root_gap`).
    """
    return abs(eq.delta0 * zigzag_root_gap(eq.delta0, config))


def omega_from_hessian(hess: Hessian) -> np.ndarray:
    """Per-(l, nu) bare frequencies from the Hessian diagonal, shape (3N,)."""
    return bare_root(np.diag(hess.matrix), "the Hessian diagonal")
