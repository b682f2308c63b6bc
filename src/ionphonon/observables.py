"""Physical observables evaluated from the phonon normal form.

All position correlators and susceptibilities are reported in units of d^2
(and d^2/omega_I), which introduces an explicit 1/lambda^2 quantum scale:
``delta R / d = (b + b^dag) / (lambda sqrt(2 Omega/omega_I))``.  Energies and
frequencies stay in omega_I with k_B = 1.

Mode data comes from the band core of ``bloch`` (``CellCouplings.bands``,
held by ``PhononField``) on a momentum grid: the exact discrete ring momenta
for ``Boundary.RING`` and a midpoint quadrature of the reduced zone (k = 0
excluded) for ``Boundary.BULK``, where a correlator diverges exactly when a
Goldstone branch carries both of its components (``check_convergent``).
All ladder averages close over each block's own amplitudes (the
negative-norm directions of block k are exactly the -k creation operators),
so every sum is invariant under the arbitrary per-mode phases; the band core
uses time reversal only to fill the -k grid points by conjugation instead of
re-diagonalizing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    AXES,
    CellCouplings,
    _cell_index,
    reduced_zone_grid,
    ring_momenta,
)
from .chain import Boundary, ChainConfig, Equilibrium, solve_delta0
from .errors import (
    DivergenceError,
    InternalConsistencyError,
    NoOrderParameterError,
    ResolutionWarning,
)
from .freeparticle import (
    FreeParticleSector,
    build_sectors,
    goldstone_branches,
    q_variance,
    thermal_energy_and_heat,
)


def _bose(omega: np.ndarray, temperature: float) -> np.ndarray:
    """Bose-Einstein occupation, safe at T = 0 and for large omega/T."""
    if temperature <= 0.0:
        return np.zeros_like(omega)
    x = np.clip(omega / temperature, 1e-12, 700.0)
    return 1.0 / np.expm1(x)


class PhononField:
    """The cell bands (``CellCouplings.bands``) of a grid, ready for k sums.

    A ring's grid is its own momenta; bulk takes a midpoint grid of ``n_k``
    momenta.  Every k sum is the plain average over the grid (divided by
    ``len(k)``).  Every observable reads its config and equilibrium from here.
    """

    def __init__(self, config: ChainConfig, eq: Equilibrium | None = None,
                 n_k: int = 512):
        if eq is None:
            eq = solve_delta0(config)
        self.config = config
        self.eq = eq
        self.couplings = CellCouplings(config, eq)
        if config.boundary is Boundary.RING:
            grid = ring_momenta(config.n_ions)
        else:
            grid = reduced_zone_grid(n_k, include_edge=False)
        bands = self.couplings.bands(grid)
        self.k, self.omega, self.mask = bands.k, bands.omega, bands.mask
        self.u, self.v, self.zero_pairs = bands.u, bands.v, bands.zero_pairs
        self._sectors: list[FreeParticleSector] | None = None

    @property
    def n_cells(self) -> int:
        return self.config.n_ions // 2

    def sectors(self) -> list[FreeParticleSector]:
        if self._sectors is None:
            # bulk grids have no k = 0 point, where the zero pairs live
            zero_pairs = self.zero_pairs or self.couplings.normal_form(0.0).zero_pairs
            self._sectors = build_sectors(self.config, self.eq, zero_pairs,
                                          self.couplings.omega_bare)
        return self._sectors

    def min_gap(self) -> float:
        return float(self.omega[self.mask].min()) if self.mask.any() else 0.0


@dataclass
class CorrelatorRequest:
    """Specification of one spatial correlator <dR_{j,s,nu} dR_{j',s',nu'}>."""

    delta_j: int
    s: int = 0
    sp: int = 0
    nu: str = "y"
    nup: str = "y"
    temperature: float = 0.0
    include_radial_zero_mode: bool = True
    include_longitudinal_zero_mode: bool = False

    def __post_init__(self):
        if self.delta_j < 0:
            raise ValueError("delta_j must be >= 0 (symmetry covers negatives)")
        if self.s not in (0, 1) or self.sp not in (0, 1):
            raise ValueError("sublattices must be 0 or 1")
        if self.nu not in AXES or self.nup not in AXES:
            raise ValueError("axes must be one of x, y, z")
        if not 0.0 <= self.temperature < np.inf:
            raise ValueError("temperature must be non-negative and finite")


def _enabled_sectors(field: PhononField, radial: bool, longitudinal: bool):
    # bulk fields have no longitudinal sector (build_sectors), and its
    # divergent offset only reaches xx requests, which check_convergent stops
    wanted = {"radial": radial, "longitudinal": longitudinal}
    return [sector for sector in field.sectors() if wanted[sector.label]]


def spatial_correlator(req: CorrelatorRequest, field: PhononField) -> float:
    """Spatial correlator <dR_{j,s,nu} dR_{j+dj,s',nu'}> in units of d^2.

    ``delta_j`` counts two-ion unit cells.  Rings use the exact momentum sum.
    In bulk, nu = nu' on a Goldstone axis (``check_convergent``) raises
    DivergenceError; any other request is one midpoint sum over the reduced
    zone (k = 0 excluded) of ``field``.  Near kappa_c the grid, not an error,
    sets the accuracy (bulk yy, dj = 1, kappa_c - 1e-4: 4.2893e-4, 4.3076e-4
    and 4.3077e-4 on 64, 128 and 256 momenta).
    """
    check_convergent(req, field.config, field.eq)
    i = _cell_index(req.s, AXES[req.nu])
    j = _cell_index(req.sp, AXES[req.nup])
    omega_i = field.couplings.omega_bare[i]
    omega_j = field.couplings.omega_bare[j]
    lam = field.config.lam
    pref = 1.0 / (2.0 * lam**2 * np.sqrt(omega_i * omega_j))

    # combine the normal (k' = k) and anomalous (k' = -k) ladder averages of
    # one block: C = sum_k e^{-iak dj} conj(n u_i - (n+1) v_i) (u_j - v_j)
    #                 + e^{+iak dj} ((n+1) u_i - n v_i) conj(u_j - v_j);
    # each gamma term is invariant under the mode's arbitrary phase
    n = _bose(field.omega, req.temperature) * field.mask
    u_i, v_i = field.u[:, :, i], field.v[:, :, i]
    u_j, v_j = field.u[:, :, j], field.v[:, :, j]
    a_i = np.conj(n * u_i - (n + 1.0) * v_i)
    b_j = (u_j - v_j) * field.mask
    c_i = (n + 1.0) * u_i - n * v_i
    phase = np.exp(-1j * field.couplings.cell_length * field.k * req.delta_j)
    term_minus = np.sum(a_i * b_j, axis=1) * phase
    term_plus = np.sum(c_i * np.conj(b_j), axis=1) * np.conj(phase)
    total = np.sum(term_minus + term_plus) / len(field.k)

    for sector in _enabled_sectors(field, req.include_radial_zero_mode,
                                   req.include_longitudinal_zero_mode):
        zp = sector.pair
        q2 = q_variance(sector)
        # the <P^2> terms carry 4 Re(v0) Re(v0'), and v0 = i q[:D] is
        # imaginary: positions decouple from P
        coeff = 4.0 * np.imag(zp.u0[i]) * np.imag(zp.u0[j])
        total += coeff * q2 / field.n_cells
    value = pref * total
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise InternalConsistencyError(f"correlator not real: {value}")
    return float(value.real)


def check_convergent(req: CorrelatorRequest, config: ChainConfig,
                     eq: Equilibrium) -> None:
    """Raise DivergenceError if a Goldstone branch makes ``req`` infinite in bulk.

    Such a branch (``goldstone_branches``) is pure motion along its axis at
    k -> 0 with position weight ~ 1/omega_k ~ 1/|k|, so same-axis requests
    (nu = nu') on that axis diverge, as ln k_min at T = 0 and 1/k_min above.
    """
    if config.boundary is not Boundary.BULK or req.nu != req.nup:
        return
    branch = goldstone_branches(config, eq).get(req.nu)
    if branch is not None:
        raise DivergenceError(
            f"the {req.nu}{req.nup} correlator diverges in the thermodynamic "
            f"limit: the gapless {branch} branch carries {req.nu} at k -> 0 "
            f"-- use a finite ring instead"
        )


# ---------------------------------------------------------------------------
# thermodynamics and response


def _einstein_heat(omega: np.ndarray, temperature: float) -> np.ndarray:
    x = omega / temperature
    out = np.zeros_like(omega)
    small = x < 40.0
    xs = x[small]
    out[small] = xs**2 * np.exp(xs) / np.expm1(xs) ** 2
    frozen = (~small) & (x < 700.0)
    out[frozen] = x[frozen] ** 2 * np.exp(-x[frozen])
    return out


def heat_capacity(temperature: float, field: PhononField) -> float:
    """Specific heat capacity c = C/N per ion (k_B = 1).

    Half the zone average of the Einstein terms (omega/T)^2 e^{omega/T} /
    (e^{omega/T} - 1)^2 of a cell's six modes (two ions per cell), plus for
    a finite ring the free-particle sectors over N (their term is the exact
    fluctuation form of dE/dT; the relative weight vanishes as N grows).
    Approaches the Dulong-Petit value c = 3 at high temperature.
    """
    if not 0.0 < temperature < np.inf:
        raise ValueError("temperature must be positive and finite")
    ring = field.config.boundary is Boundary.RING
    gap = field.min_gap()
    if ring and temperature < gap / 50.0:
        warnings.warn(
            f"T = {temperature} is far below the smallest resolvable mode "
            f"({gap:.3g}) on this k grid",
            ResolutionWarning,
        )
    per_mode = _einstein_heat(field.omega[field.mask], temperature)
    # two ions per cell; in bulk the free-particle weight vanishes
    c = 0.5 * float(per_mode.sum()) / len(field.k)
    if ring:
        c += sum(thermal_energy_and_heat(sector, temperature)[1]
                 for sector in field.sectors()) / field.config.n_ions
    return c


# (omega, k, mode) entries per susceptibility chunk: complex temporaries under
# glibc's 128 KiB mmap threshold (16384 made a 1024-ion ring 1.7x slower)
_CHUNK_ELEMENTS = 8000


def susceptibility(omega_grid: np.ndarray, component: tuple[str, int],
                   field: PhononField, eta: float = 1e-2) -> np.recarray:
    """Local dynamical susceptibility chi(omega) at T = 0, units d^2/omega_I.

    Returns one record per grid point, fields ``omega`` and ``chi``.

    chi(omega) = (1 / (2 lam^2 Omega_nu N_c)) sum_{k,gamma} |u - v|^2
    [1/(omega + w + i eta) - 1/(omega - w + i eta)] evaluated at the driven
    component (nu, s); |u - v|^2 is the squared position matrix element in
    local-oscillator units (= Omega_nu / omega for the decoupled branches,
    giving the exact static compliance).  The sign convention is the response
    of the coordinate to the driving force: below the phonon band the ion
    moves in phase (chi real positive) and above it in antiphase, so arg chi
    steps from 0 to +-pi across the band.
    """
    nu, s = component
    if nu not in AXES or s not in (0, 1):
        raise ValueError(f"component must be (x|y|z, 0|1), got {component}")
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    i = _cell_index(s, AXES[nu])
    weight = np.abs(field.u[:, :, i] - field.v[:, :, i]) ** 2 * field.mask
    pref = weight / (
        2.0 * field.config.lam**2 * field.couplings.omega_bare[i]
    ) / len(field.k)
    omega_grid = np.asarray(omega_grid, dtype=float)
    w = field.omega
    # omega chunks broadcast over (omega, k, mode) in a fixed element budget;
    # each row is summed flat, bitwise as one omega's (k, mode) array was
    step = max(1, _CHUNK_ELEMENTS // w.size)
    chi = np.empty(len(omega_grid), dtype=complex)
    for start in range(0, len(omega_grid), step):
        om = omega_grid[start:start + step, None, None]
        terms = 1.0 / (om + w + 1j * eta) - 1.0 / (om - w + 1j * eta)
        chi[start:start + step] = np.sum(
            (pref * terms * field.mask).reshape(len(om), -1), axis=1)
    return np.rec.fromarrays([omega_grid, chi], names="omega,chi")


def correlation_energy(field: PhononField) -> float:
    """Ground-state correlation energy reduction per ion, in omega_I.

    dE0/N = (1/2N) (sum_m omega_m - sum_{l,nu} Omega_{l,nu}), i.e. a quarter
    of the zone-averaged cell mode sum minus the cell's six Omega: the optimal
    zero-mean product state pays the sum of local ground-state energies
    (all inter-site quadratic cross terms average to zero there), while the
    correlated ground state pays the mode sum, with zero-mode directions
    contributing nothing.  Always <= 0 (Schur-Horn majorization of omega^2
    against the bare diagonal), with a kink at the structural transition.
    """
    avg_modes = float(field.omega[field.mask].sum()) / len(field.k)
    return 0.25 * (avg_modes - float(np.sum(field.couplings.omega_bare)))


def ginzburg_parameter(config: ChainConfig, eq: Equilibrium | None = None,
                       n_list=(50, 100, 200, 400)) -> list[tuple[int, float]]:
    """Same-site helical-axis variance over the squared zigzag circumference.

    Evaluated on finite rings of the requested sizes; grows with ln N
    because the gapless helical branch contributes a 1/omega_k sum.  Requires
    a zigzag order parameter (kappa above the transition).
    """
    if eq is None:
        eq = solve_delta0(config)
    if not eq.is_zigzag:
        raise NoOrderParameterError(
            f"kappa = {config.kappa} is at or below the transition: "
            f"no zigzag order parameter"
        )
    out = []
    for n in n_list:
        cfg_n = replace(config, n_ions=int(n), boundary=Boundary.RING)
        eq_n = solve_delta0(cfg_n)
        req = CorrelatorRequest(0, 0, 0, "z", "z", 0.0)
        value = spatial_correlator(req, PhononField(cfg_n, eq_n))
        out.append((int(n), value / (2.0 * np.pi * eq_n.delta0) ** 2))
    return out
