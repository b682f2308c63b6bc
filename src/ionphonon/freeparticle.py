"""Zero-mode sector: effective masses, PBC phase operator, thermal moments.

Each spontaneously broken continuous symmetry (``chain.broken_symmetries``:
axial translation; zigzag plane rotation at alpha = 1) yields a conjugate
pair (P, Q) instead of a bosonic mode.  Q lives on a circle: its global
extension is a scaled phase operator Q = c0 * phi with phi built from
maximally localized angular states on a truncated winding-number space.

Level energies are E_m = m^2 / (2 m_tilde c0^2) with m the winding number;
the spatial variance <Q^2> = c0^2 pi^2 / 3 is m- and temperature-independent.

Thermal moments are exact moments of the Gaussian lattice sum
Z(a) = sum_m exp(-a m^2), a = E_1 / T, summed directly for a >= pi and
through the Poisson identity Z(a) = sqrt(pi / a) sum_n exp(-pi^2 n^2 / a)
below.  A dozen terms reach double precision on either side, so no
winding-number truncation remains, although E_1 falls as N^-3 on a ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import CELL_AXIS_MAP, CellCouplings, _cell_index
from .chain import GENERATORS, Boundary, ChainConfig, Equilibrium, broken_symmetries, solve_delta0
from .symplectic import NormalForm, generator_mass, generator_move, generator_pair


@dataclass
class FreeParticleSector:
    """One effective free particle on a circle of length L (``circumference``).

    c0 fixes both the position scale (Q = c0 phi, phi in [-pi, pi)) and,
    with m_tilde, the level spectrum E_m = m^2 / (2 m_tilde c0^2).
    """

    label: str            # 'longitudinal' or 'radial'
    m_tilde: float        # mass-like constant, units 1/omega_I
    c0: float             # dimensionless Q scale
    circumference: float  # length L of the circle in units of d
    move: np.ndarray | None = None  # its generator's move on the cell entries

    @property
    def level_unit(self) -> float:
        """E_1 in omega_I; E_m = level_unit * m^2."""
        return 1.0 / (2.0 * self.m_tilde * self.c0**2)


def goldstone_branches(config: ChainConfig, eq: Equilibrium) -> dict[str, str]:
    """Axis -> gapless branch of each broken symmetry, one k = 0 zero pair each.

    Read from ``chain.broken_symmetries`` and ``chain.GENERATORS``: axial
    sound carries x; at alpha = 1 the zigzag's helical branch carries z.
    """
    return {"xyz"[axis]: GENERATORS[axis][1] for axis in broken_symmetries(config, eq)}


def zero_mode_normal_form(config: ChainConfig,
                          eq: Equilibrium | None = None) -> NormalForm:
    """The k = 0 cell block's normal form: ``CellCouplings.bands``' modes and each generator's
    zero pair (``symplectic.generator_pair``) on ``k0_block``'s form (the kept k = 0 sums)."""
    if eq is None:
        eq = solve_delta0(config)
    couplings = CellCouplings(config, eq)
    bands = couplings.bands(np.zeros(1))
    mask = bands.mask[0]
    return NormalForm(bands.omega[0, mask], bands.u[0, mask], bands.v[0, mask],
                      [generator_pair(axis, CELL_AXIS_MAP, couplings.omega_bare, config.n_ions)[1]
                       for axis in broken_symmetries(config, eq)], couplings.k0_block())


def effective_masses(config: ChainConfig,
                     eq: Equilibrium | None = None) -> dict[str, float]:
    """Effective mass-like constants per zero pair, in 1/omega_I.

    One per broken symmetry: {'longitudinal': ...}, and {'radial': ...} in
    the zigzag phase with alpha = 1 (``chain.broken_symmetries``).
    """
    return {zp.label: zp.m_tilde for zp in zero_mode_normal_form(config, eq).zero_pairs}


def build_sectors(config: ChainConfig, eq: Equilibrium,
                  omega_bare: np.ndarray) -> list[FreeParticleSector]:
    """Free-particle sectors: one per broken symmetry (``chain.broken_symmetries``)
    but the chain sliding round the ring in bulk, in closed form with no zero
    pair: the generator's move on the cell entries, m_tilde = N / Omega_a
    (bitwise the k = 0 pair's), its circle's length L (N for the ring, 2 pi
    delta0 for the zigzag plane turning about the trap axis), c0 = L lam Omega_a^(1/2) / 2 pi."""
    sectors: list[FreeParticleSector] = []
    for axis in broken_symmetries(config, eq):
        if axis == 0 and config.boundary is Boundary.BULK:
            continue
        move = generator_move(axis, CELL_AXIS_MAP)
        length = config.n_ions if axis == 0 else 2.0 * np.pi * eq.delta0
        c0 = length * config.lam * np.sqrt(omega_bare[_cell_index(0, axis)]) / (2.0 * np.pi)
        sectors.append(FreeParticleSector(GENERATORS[axis][0],
                                          generator_mass(move, omega_bare, config.n_ions),
                                          float(c0), float(length), move))
    return sectors


def thermal_p_squared(sector: FreeParticleSector, temperature: float) -> float:
    """Thermal expectation <P^2> = <m^2> / c0^2 over the winding numbers.

    Boltzmann average of (m / c0)^2 with weights exp(-E_m / T), taken from
    the exact moments of ``_winding_moments`` (Poisson dual series below
    E_1 / T = pi), so no winding-number truncation remains.
    """
    if not 0.0 <= temperature < np.inf:  # NaN fails too
        raise ValueError(f"temperature must be non-negative and finite, got {temperature!r}")
    if temperature == 0.0:
        return 0.0
    m2_mean, _ = _winding_moments(sector.level_unit / temperature)
    return m2_mean / sector.c0**2


def adaptive_m_cut(sector: FreeParticleSector, temperature: float) -> int:
    """Smallest truncation a direct winding sum would need for a certified tail.

    No thermal moment sums to this cut; it sizes the direct sum that
    ``_winding_moments`` avoids.
    """
    if temperature <= 0.0:
        return 1
    return max(400, int(np.ceil(np.sqrt(36.0 * temperature / sector.level_unit))) + 1)


# n^2 for n = 1..12: the first dropped weight, exp(-pi 13^2) ~ e^-531 against
# the n = 0 weight 1, lies far below double precision for any x >= pi
_SQUARES = np.arange(1.0, 13.0) ** 2


def _winding_moments(a: float) -> tuple[float, float]:
    """Exact <m^2> and Var(m^2) under weights exp(-a m^2), m in Z, a > 0.

    With Z(a) = sum_m exp(-a m^2), <m^2> = -(ln Z)' and Var(m^2) = (ln Z)''.
    For a >= pi the direct series converges within a dozen terms.  Below pi
    the Poisson (Jacobi theta) identity Z(a) = sqrt(pi / a) sum_n
    exp(-pi^2 n^2 / a) turns it into a series in b = pi^2 / a > pi, whose
    moments give
        <m^2>    = (1/2 - b <n^2>_b) / a,
        Var(m^2) = (1/2 - 2 b <n^2>_b + b^2 Var_b(n^2)) / a^2.
    Time and memory do not depend on a.
    """
    x = a if a >= np.pi else np.pi**2 / a
    w = 2.0 * np.exp(-x * _SQUARES)
    z = 1.0 + float(w.sum())
    mean = float((_SQUARES * w).sum()) / z
    var = (float(((_SQUARES - mean) ** 2 * w).sum()) + mean**2) / z
    if a >= np.pi:
        return mean, var
    return (0.5 - x * mean) / a, (0.5 - 2.0 * x * mean + x * x * var) / a / a


def thermal_energy_and_heat(sector: FreeParticleSector,
                            temperature: float) -> tuple[float, float]:
    """Mean energy and heat capacity of one sector at temperature T.

    E = E_1 <m^2> and C = E_1^2 Var(m^2) / T^2; the heat capacity is the
    exact T-derivative of E via the canonical fluctuation identity
    C = Var(E) / T^2.  The moments come from ``_winding_moments`` at
    a = E_1 / T: the direct series for a >= pi, its Poisson dual below.  No
    winding-number truncation remains, and the cost depends on neither N
    nor T.
    """
    if not 0.0 <= temperature < np.inf:  # NaN fails too
        raise ValueError(f"temperature must be non-negative and finite, got {temperature!r}")
    if temperature == 0.0:
        return 0.0, 0.0
    # Python floats: a turns inf (frozen) once T < E_1 * 5.6e-309, silently
    a = float(sector.level_unit) / float(temperature)
    m2_mean, m2_var = _winding_moments(a)
    if m2_var == 0.0:
        # frozen (a > ~745): no winding is excited, and a * a may be inf
        return sector.level_unit * m2_mean, 0.0
    return sector.level_unit * m2_mean, a * a * m2_var


def q_variance(sector: FreeParticleSector) -> float:
    """<Q^2> = c0^2 pi^2 / 3, independent of level and temperature.

    For the radial sector this is pi^2 delta0^2 lam^2 Omega_z / (3 omega_I);
    the longitudinal variance grows with N^2 and is only meaningful when the
    diverging axial offset is explicitly requested.
    """
    return sector.c0**2 * np.pi**2 / 3.0


@dataclass
class PhaseOperatorBasis:
    """Hermitian phase operator and cyclic shift on a (2M+1)-dim space."""

    m_max: int
    phi_matrix: np.ndarray   # Hermitian, winding-number basis
    shift_matrix: np.ndarray  # cyclic raising unitary |l> -> |l+1> with wrap

    @property
    def dimension(self) -> int:
        return 2 * self.m_max + 1


def phase_operator(m_max: int) -> PhaseOperatorBasis:
    """Build the angular position operator on winding numbers |l| <= m_max.

    phi = sum_n phi_n |phi_n><phi_n| over maximally localized angle states
    phi_n = 2 pi n / (2M+1).  In the winding basis the matrix elements have
    the closed form i pi (-1)^Delta / [(2M+1) sin(pi Delta / (2M+1))] for
    Delta = l - l' != 0 and zero on the diagonal.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    dim = 2 * m_max + 1
    l_idx = np.arange(-m_max, m_max + 1)
    delta = l_idx[:, None] - l_idx[None, :]
    phi = np.zeros((dim, dim), dtype=complex)
    off = delta != 0
    d = delta[off].astype(float)
    phi[off] = 1j * np.pi * (-1.0) ** d / (dim * np.sin(np.pi * d / dim))
    shift = np.zeros((dim, dim))
    shift[1:, :-1] = np.eye(dim - 1)
    shift[0, -1] = 1.0
    return PhaseOperatorBasis(m_max, phi, shift)
