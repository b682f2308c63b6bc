"""Zero-mode sector: effective masses, PBC phase operator, thermal moments.

Each spontaneously broken continuous symmetry (axial translation; zigzag
plane rotation at alpha = 1) yields a conjugate pair (P, Q) instead of a
bosonic mode.  Q lives on a circle: its global extension is a scaled phase
operator Q = c0 * phi with phi built from maximally localized angular states
on a truncated winding-number space.

Level energies are E_m = m^2 / (2 m_tilde c0^2) with m the winding number;
the spatial variance <Q^2> = c0^2 pi^2 / 3 is m- and temperature-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import CELL_AXIS_MAP, CellCouplings, _cell_index
from .chain import Boundary, ChainConfig, Equilibrium, solve_delta0
from .errors import ConvergenceError, ZeroModeToleranceError
from .symplectic import NormalForm, ZeroModePair, symplectic_diagonalize


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


def zero_mode_normal_form(config: ChainConfig, eq: Equilibrium | None = None,
                          tol_zero: float = 1e-8) -> NormalForm:
    """Normal form of the k = 0 cell block, where all zero pairs live."""
    if eq is None:
        eq = solve_delta0(config)
    block = CellCouplings(config, eq).block(0.0)
    return symplectic_diagonalize(
        block.form, tol_zero=tol_zero, axis_map=CELL_AXIS_MAP, p_norm=config.n_ions
    )


def effective_masses(config: ChainConfig, eq: Equilibrium | None = None,
                     tol_zero: float = 1e-8) -> dict[str, float]:
    """Effective mass-like constants per zero pair, in 1/omega_I.

    Returns {'longitudinal': ...} below the transition and additionally
    {'radial': ...} in the zigzag phase with alpha = 1.
    """
    if eq is None:
        eq = solve_delta0(config)
    nf = zero_mode_normal_form(config, eq, tol_zero)
    expected = 1 + (1 if eq.is_zigzag and abs(config.alpha - 1.0) < 1e-12 else 0)
    masses = {zp.label: zp.m_tilde for zp in nf.zero_pairs}
    if len(masses) != expected:
        raise ZeroModeToleranceError(
            f"extracted {len(masses)} zero pairs, expected {expected} at "
            f"kappa = {config.kappa}; near the transition try tightening "
            f"tol_zero (currently {tol_zero})"
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


def thermal_p_squared(sector: FreeParticleSector, temperature: float,
                      m_cut: int = 400) -> float:
    """Thermal expectation <P^2> over the winding-number spectrum.

    Boltzmann average of (m / c0)^2 with weights exp(-E_m / T); requires the
    truncation weight exp(-E_cut / T) < 1e-15, otherwise the tail is not
    certified and an error is raised.
    """
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    e1 = sector.level_unit
    cut_weight = np.exp(-e1 * m_cut**2 / temperature)
    if cut_weight >= 1e-15:
        needed = int(np.ceil(np.sqrt(34.6 * temperature / e1))) + 1
        raise ConvergenceError(
            f"m_cut = {m_cut} leaves tail weight {cut_weight:.2e} >= 1e-15; "
            f"need m_cut >= {needed}"
        )
    m = np.arange(-m_cut, m_cut + 1, dtype=float)
    w = np.exp(-e1 * m * m / temperature)
    return float(np.sum((m / sector.c0) ** 2 * w) / np.sum(w))


def adaptive_m_cut(sector: FreeParticleSector, temperature: float) -> int:
    """Smallest truncation with certified tail for thermal sums."""
    if temperature <= 0.0:
        return 1
    return max(400, int(np.ceil(np.sqrt(36.0 * temperature / sector.level_unit))) + 1)


def thermal_energy_and_heat(sector: FreeParticleSector,
                            temperature: float) -> tuple[float, float]:
    """Mean energy and heat capacity of one sector at temperature T.

    The heat capacity is the exact T-derivative of the mean energy via the
    canonical fluctuation identity C = Var(E) / T^2.
    """
    if temperature <= 0.0:
        return 0.0, 0.0
    m_cut = adaptive_m_cut(sector, temperature)
    m = np.arange(-m_cut, m_cut + 1, dtype=float)
    e = sector.level_energies(m)
    w = np.exp(-e / temperature)
    z = np.sum(w)
    e_mean = float(np.sum(e * w) / z)
    e2_mean = float(np.sum(e * e * w) / z)
    return e_mean, (e2_mean - e_mean**2) / temperature**2


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
