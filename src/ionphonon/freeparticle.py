"""Zero-mode sector: effective masses, PBC phase operator, thermal moments.

Each spontaneously broken continuous symmetry (axial translation; zigzag
plane rotation at alpha = 1) yields a conjugate pair (P, Q) instead of a
bosonic mode.  Q lives on a circle: its global extension is a scaled phase
operator Q = c0 * phi with phi built from maximally localized angular states
on a truncated winding-number space.

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

from .bloch import CellCouplings, _cell_index
from .chain import Boundary, ChainConfig, Equilibrium, solve_delta0
from .errors import ZeroModeToleranceError
from .symplectic import NormalForm, ZeroModePair


@dataclass
class FreeParticleSector:
    """One effective free particle on a ring.

    c0 fixes both the position scale (Q = c0 phi, phi in [-pi, pi)) and,
    with m_tilde, the level spectrum E_m = m^2 / (2 m_tilde c0^2).
    """

    label: str            # 'longitudinal' or 'radial'
    m_tilde: float        # mass-like constant, units 1/omega_I
    c0: float             # dimensionless Q scale
    circumference: float  # ring length in units of d
    pair: ZeroModePair | None = None

    @property
    def level_unit(self) -> float:
        """E_1 in omega_I; E_m = level_unit * m^2."""
        return 1.0 / (2.0 * self.m_tilde * self.c0**2)

    def level_energies(self, m: np.ndarray) -> np.ndarray:
        return self.level_unit * np.asarray(m, dtype=float) ** 2


def goldstone_branches(config: ChainConfig, eq: Equilibrium) -> dict[str, str]:
    """Axis -> gapless branch of each broken symmetry, one k = 0 zero pair each.

    Axial sound carries x; at alpha = 1 the zigzag's helical branch carries z.
    """
    branches = {"x": "axial sound"}
    if eq.is_zigzag and abs(config.alpha - 1.0) < 1e-12:
        branches["z"] = "helical"
    return branches


def zero_mode_normal_form(config: ChainConfig,
                          eq: Equilibrium | None = None) -> NormalForm:
    """Normal form of the k = 0 cell block, where all zero pairs live."""
    if eq is None:
        eq = solve_delta0(config)
    return CellCouplings(config, eq).normal_form(0.0)


def effective_masses(config: ChainConfig,
                     eq: Equilibrium | None = None) -> dict[str, float]:
    """Effective mass-like constants per zero pair, in 1/omega_I.

    Returns {'longitudinal': ...} below the transition and additionally
    {'radial': ...} in the zigzag phase with alpha = 1.
    """
    if eq is None:
        eq = solve_delta0(config)
    nf = zero_mode_normal_form(config, eq)
    expected = len(goldstone_branches(config, eq))
    masses = {zp.label: zp.m_tilde for zp in nf.zero_pairs}
    if len(masses) != expected:
        raise ZeroModeToleranceError(
            f"extracted {len(masses)} zero pairs, expected {expected} at "
            f"kappa = {config.kappa}: a soft mode near the transition is not "
            f"separable from the zero modes at this precision"
        )
    return masses


def build_sectors(config: ChainConfig, eq: Equilibrium | None = None,
                  zero_pairs: list[ZeroModePair] | None = None,
                  omega_bare: np.ndarray | None = None) -> list[FreeParticleSector]:
    """Free-particle sectors present for this configuration.

    The longitudinal sector (chain sliding around the ring) exists only with
    periodic-ring boundaries; the radial sector (zigzag plane rotation)
    exists for delta0 > 0 at alpha = 1 in either convention.  ``zero_pairs``
    and ``omega_bare`` of the k = 0 cell block go together; if omitted, they
    are computed here.
    """
    if eq is None:
        eq = solve_delta0(config)
    if zero_pairs is None:
        nf0 = zero_mode_normal_form(config, eq)
        zero_pairs, omega_bare = nf0.zero_pairs, nf0.form.omega_bare
    omega_x = omega_bare[_cell_index(0, 0)]
    omega_z = omega_bare[_cell_index(0, 2)]
    masses = {zp.label: zp for zp in zero_pairs}
    sectors: list[FreeParticleSector] = []
    if config.boundary is Boundary.RING and "longitudinal" in masses:
        zp = masses["longitudinal"]
        c0 = config.n_ions * config.lam * np.sqrt(omega_x) / (2.0 * np.pi)
        sectors.append(FreeParticleSector(
            "longitudinal", zp.m_tilde, float(c0), float(config.n_ions), zp))
    if "radial" in masses:
        zp = masses["radial"]
        c0 = eq.delta0 * config.lam * np.sqrt(omega_z)
        sectors.append(FreeParticleSector(
            "radial", zp.m_tilde, float(c0), float(2.0 * np.pi * eq.delta0), zp))
    return sectors


def thermal_p_squared(sector: FreeParticleSector, temperature: float) -> float:
    """Thermal expectation <P^2> = <m^2> / c0^2 over the winding numbers.

    Boltzmann average of (m / c0)^2 with weights exp(-E_m / T), taken from
    the exact moments of ``_winding_moments`` (Poisson dual series below
    E_1 / T = pi), so no winding-number truncation remains.
    """
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
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
    if temperature <= 0.0:
        return 0.0, 0.0
    a = sector.level_unit / temperature
    m2_mean, m2_var = _winding_moments(a)
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
