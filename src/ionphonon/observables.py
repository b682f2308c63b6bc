"""Physical observables evaluated from the phonon normal form.

All position correlators and susceptibilities are reported in units of d^2
(and d^2/omega_I), which introduces an explicit 1/lambda^2 quantum scale:
``delta R / d = (b + b^dag) / (lambda sqrt(2 Omega/omega_I))``.  Energies and
frequencies stay in omega_I with k_B = 1.

Mode data comes from the band core of ``bloch`` (``CellCouplings.bands``,
held by ``PhononField``) on a momentum grid: the exact discrete ring momenta
for ``Boundary.RING`` and a midpoint quadrature of the reduced zone on an
even number of momenta (so k = 0 excluded) for ``Boundary.BULK``, where a
correlator diverges exactly when a Goldstone branch carries both of its
components (``check_convergent``).  Each mode enters through omega and
its unit cell vector e (``bloch.cell_entry``), of which its amplitudes are
real factors, so every ladder average closes over one block's own modes
(the negative-norm directions of block k are exactly the -k creation
operators) as a real function of (omega, n) times conj(e_i) e_j, invariant
under the arbitrary per-mode phases; the band core uses time reversal only
to fill the -k grid points by conjugation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    AXES,
    Bands,
    CellCouplings,
    _cell_index,
    _zone_count,
    cell_entry,
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


# complex entries per chunk of a correlator table or susceptibility: their
# temporaries stay under glibc's 128 KiB mmap threshold (16384 runs a 1024-ion
# ring's 601-point susceptibility 2.3x slower, 4000 1.3x)
_CHUNK_ELEMENTS = 8000


def _bose(omega: np.ndarray, temperature: float) -> np.ndarray:
    """Bose-Einstein occupation, safe at T = 0 and for large omega/T."""
    if temperature <= 0.0:
        return np.zeros_like(omega)
    with np.errstate(over="ignore"):  # inf once T < omega * 5.6e-309: frozen
        x = np.clip(omega / temperature, 1e-12, 700.0)
    return 1.0 / np.expm1(x)


class PhononField(Bands):
    """The cell bands (``CellCouplings.bands``) of a grid, ready for k sums.

    A ring's grid is its own momenta; bulk takes a midpoint grid of ``n_k``
    momenta, an odd ``n_k`` rounded up to the next even count: an odd grid
    puts its middle node on k = 0, where the Goldstone slots would drop out
    of every sum, so a bulk field checks its generators by ``check_generators``.
    Every k sum is the plain average over the grid (divided by ``len(k)``).
    Every observable reads its config and equilibrium from here, and the
    modes as omega, mask and the screw vectors phi and twist, never ``u``
    and ``v``.
    """

    def __init__(self, config: ChainConfig, eq: Equilibrium | None = None,
                 n_k: int = 512):
        self.config, self.eq = config, solve_delta0(config) if eq is None else eq
        self.couplings = CellCouplings(config, self.eq)
        if config.boundary is Boundary.RING:
            grid = ring_momenta(config.n_ions)
        else:
            n_k = _zone_count(n_k)  # checked before it is rounded up to even
            grid = reduced_zone_grid(n_k + n_k % 2, include_edge=False)
        super().__init__(**vars(self.couplings.bands(grid)))
        if config.boundary is Boundary.BULK:  # no k = 0 row: check the generators
            self.couplings.check_generators()
        self._sectors: list[FreeParticleSector] | None = None

    @property
    def n_cells(self) -> int:
        return self.config.n_ions // 2

    def sectors(self) -> list[FreeParticleSector]:
        if self._sectors is None:
            self._sectors = build_sectors(self.config, self.eq, self.couplings.omega_bare)
        return self._sectors


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
        if not isinstance(self.delta_j, (int, np.integer)) or self.delta_j < 0:
            raise ValueError(f"delta_j must be an integer >= 0 (symmetry covers "
                             f"negatives), got {self.delta_j!r}")
        if not all(isinstance(s, (int, np.integer)) and s in (0, 1) for s in (self.s, self.sp)):
            raise ValueError(f"sublattices must be integers 0 or 1: s={self.s!r}, sp={self.sp!r}")
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
    return float(correlator_table(req, field, [req.delta_j])[0])


def correlator_table(req: CorrelatorRequest, field: PhononField,
                     separations) -> np.ndarray:
    """``spatial_correlator`` of ``req`` at every separation of ``separations``.

    ``req`` fixes the axis pair, the sublattices, the temperature and the
    zero-mode sectors; its ``delta_j`` is not read.  A negative separation
    -dj gives the swapped request's value at dj (s <-> s', nu <-> nu').
    The Bose factors, the two per-k mode sums and the sector terms are
    built once, and all separations take one (n_dj, n_k) phase product, in
    chunks of ``_CHUNK_ELEMENTS``; each value is bitwise the one-request
    sum.  Each mode enters through its frequency and the two entries e_i,
    e_j of its unit cell vector (``bloch.cell_entry``).  There is no
    divergence check: callers run ``check_convergent`` first.
    """
    dj = np.asarray(separations)
    if dj.ndim != 1 or (dj.size and dj.dtype.kind not in "iu"):
        raise ValueError(f"separations must be a list of integers, got {separations!r}")
    i = _cell_index(req.s, AXES[req.nu])
    j = _cell_index(req.sp, AXES[req.nup])
    omega_i = field.omega_bare[i]
    lam = field.config.lam

    # u -+ v = sqrt(Omega / omega)^(+-1) e turn the normal (k' = k) and
    # anomalous (k' = -k) ladder averages of one block into C = (1 / 4 lam^2)
    # sum_k e^{-iak dj} sum (w - 1/Omega_i) conj(e_i) e_j + e^{+iak dj} sum
    # (w + 1/Omega_i) e_i conj(e_j), w = (2n + 1) / omega; the 1/Omega_i
    # parts (the commutator) cancel over the grid
    n = _bose(field.omega, req.temperature)
    w = np.divide(2.0 * n + 1.0, field.omega, out=np.zeros_like(n), where=field.mask)
    pair = np.conj(cell_entry(field.phi, field.twist, req.s, AXES[req.nu])) \
        * cell_entry(field.phi, field.twist, req.sp, AXES[req.nup]) * field.mask
    sum_minus = np.sum((w - 1.0 / omega_i) * pair, axis=1)
    sum_plus = np.conj(np.sum((w + 1.0 / omega_i) * pair, axis=1))
    k_phase = -1j * field.couplings.cell_length * field.k
    total = np.empty(len(dj), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // len(field.k))
    for start in range(0, len(dj), step):
        phase = np.exp(k_phase * dj[start:start + step, None])
        total[start:start + step] = np.sum(
            sum_minus * phase + sum_plus * np.conj(phase), axis=1)
    values = total / (4.0 * lam**2 * len(field.k))

    for sector in _enabled_sectors(field, req.include_radial_zero_mode,
                                   req.include_longitudinal_zero_mode):
        # entry i moves by move_i Q / (lam Omega_a^(1/2)), Q spread evenly over a circle
        # of length L: move_i move_j <Q^2> / (lam^2 Omega_a) = move_i move_j L^2 / 12
        values += sector.move[i] * sector.move[j] * q_variance(sector) / (lam**2 * omega_i)
    leaks = np.abs(values.imag) > 1e-9 * np.maximum(1.0, np.abs(values.real))
    if leaks.any():
        raise InternalConsistencyError(
            f"correlator not real: {values[np.argmax(leaks)]}")
    return values.real


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
        raise DivergenceError(f"the {req.nu}{req.nup} correlator diverges in the thermodynamic "
                              f"limit: the gapless {branch} branch carries {req.nu} at k -> 0 "
                              f"-- use a finite ring instead")


# ---------------------------------------------------------------------------
# thermodynamics and response


def _einstein_heat(omega: np.ndarray, temperature: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf once T < omega * 5.6e-309: frozen
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
    gap = float(field.omega[field.mask].min(initial=np.inf))
    if ring and temperature < gap / 50.0:
        warnings.warn(f"T = {temperature} is far below the smallest resolvable mode "
                      f"({gap:.3g}) on this k grid", ResolutionWarning)
    per_mode = _einstein_heat(field.omega[field.mask], temperature)
    # two ions per cell; in bulk the free-particle weight vanishes
    c = 0.5 * float(per_mode.sum()) / len(field.k)
    if ring:
        c += sum(thermal_energy_and_heat(sector, temperature)[1]
                 for sector in field.sectors()) / field.config.n_ions
    return c


def susceptibility(omega_grid: np.ndarray, component: tuple[str, int],
                   field: PhononField, eta: float = 1e-2) -> np.recarray:
    """Local dynamical susceptibility chi(omega) at T = 0, units d^2/omega_I.

    One record per grid point, fields ``omega`` and ``chi``.  With z = omega
    + i eta, a sum over the distinct poles w of the grid, one division each:
    chi = (1 / (2 lam^2 Omega_nu N_k)) sum m W [1/(z + w) - 1/(z - w)]
        = -(1 / (lam^2 N_k)) sum m |e|^2 / (z^2 - w^2),
    W = |u - v|^2 = Omega_nu |e|^2 / w the squared position matrix element in
    local-oscillator units (the exact static compliance on decoupled
    branches), e the driven component (nu, s) of the mode's unit cell vector
    (``bloch.cell_entry``), 0 outside its sector.  Bitwise-equal (w, |e|^2),
    such as each -k row's copy of its +k row, merge into one pole of
    multiplicity m.  arg chi steps from 0 (in phase with the force, below the
    band) to +-pi (antiphase, above it).
    """
    nu, s = component
    if nu not in AXES or s not in (0, 1):
        raise ValueError(f"component must be (x|y|z, 0|1), got {component}")
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or not np.all(np.isfinite(omega_grid)):
        raise ValueError(f"omega_grid must be a 1-D and finite array, got {omega_grid!r}")
    weight = np.abs(cell_entry(field.phi, field.twist, s, AXES[nu])[field.mask]) ** 2
    # the key w + i |e|^2 compares (w, |e|^2) bitwise and sorts faster than axis=0
    poles, m = np.unique((field.omega[field.mask] + 1j * weight)[weight != 0.0],
                         return_counts=True)
    w = poles.real
    residue = -m * poles.imag / (field.config.lam**2 * len(field.k))
    # omega chunks in a fixed element budget; each row sums bitwise as alone
    step = max(1, _CHUNK_ELEMENTS // max(1, len(w)))
    chi = np.empty(len(omega_grid), dtype=complex)
    for start in range(0, len(omega_grid), step):
        z = omega_grid[start:start + step, None] + 1j * eta
        chi[start:start + step] = np.sum(residue / (z * z - w * w), axis=1)
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
        raise NoOrderParameterError(f"kappa = {config.kappa} is at or below the transition: "
                                    f"no zigzag order parameter")
    out = []
    for n in n_list:
        cfg_n = replace(config, n_ions=int(n), boundary=Boundary.RING)
        eq_n = solve_delta0(cfg_n)
        req = CorrelatorRequest(0, 0, 0, "z", "z", 0.0)
        value = spatial_correlator(req, PhononField(cfg_n, eq_n))
        out.append((int(n), value / (2.0 * np.pi * eq_n.delta0) ** 2))
    return out
