"""Reference implementations that the tests check the package against.

Each one reaches a number the package computes another way: the classical
potential that the equilibrium condition differentiates, the dense
2D x 2D form behind the Hermitian reduction of ``symplectic``, the four
ladder correlators that ``spatial_correlator`` combines in one sum, and the
explicit per-ion sums of a ring that ``heat_capacity`` and
``correlation_energy`` take as zone averages.  The package itself never
calls them.
"""

import math

import numpy as np

from ionphonon.bloch import AXES, _cell_index
from ionphonon.chain import ZETA3, _TAIL, Boundary, pair_dy, pair_offsets, solve_delta0
from ionphonon.errors import ConvergenceError
from ionphonon.freeparticle import (
    build_sectors,
    q_variance,
    thermal_energy_and_heat,
    thermal_p_squared,
    zero_mode_normal_form,
)
from ionphonon.observables import _bose, _einstein_heat, _enabled_sectors
from ionphonon.symplectic import sigma_apply


def sectors(config, eq=None):
    """``build_sectors`` on the zero pairs and bare frequencies of the k = 0
    cell block, as ``PhononField.sectors`` passes them."""
    if eq is None:
        eq = solve_delta0(config)
    nf0 = zero_mode_normal_form(config, eq)
    return build_sectors(config, eq, nf0.zero_pairs, nf0.form.omega_bare)


# ---------------------------------------------------------------------------
# classical potential


def classical_potential(delta_tilde, config):
    """Classical potential per ion, in units of E_d = lambda^2 omega_I / 2.

    RING: the full trap + Coulomb energy per ion of the N-ion ring, summed
    over the pair set of ``pair_offsets`` (each pair is shared by its two
    ions).

    BULK: the Coulomb energy per ion diverges in the thermodynamic limit, so
    the finite, delta-dependent difference ``V(delta) - V(0)`` per ion is
    returned: delta^2 + kappa sum over the odd m > 0 of (1/r - 1/m).  Its
    leading power law -c/2 m^-3 (c = 4 delta^2) sums in closed form to
    -(c/2)(7/8) zeta(3); the remainder is summed directly over the odd m
    up to M, past which the first omitted term (3/8) c^2 m^-5 bounds its
    tail.  The certified error, that tail plus the rounding of the split,
    must stay below 1e-12, or a ConvergenceError is raised.
    """
    if delta_tilde < 0.0:
        raise ValueError("delta_tilde must be non-negative")
    d2 = delta_tilde * delta_tilde
    if config.boundary is Boundary.RING:
        m, w = pair_offsets(config)
        r = np.sqrt(m * m + pair_dy(m, delta_tilde) ** 2)
        return d2 + 0.5 * config.kappa * float(np.sum(w / r))
    if delta_tilde == 0.0:
        return 0.0
    c = 4.0 * d2  # odd M >= 2 delta with the tail (3/64) c^2 M^-4 below _TAIL
    top = max(2.0 * delta_tilde, (3 / 64 * c * c / _TAIL) ** 0.25)
    top = 2 * math.ceil((top + 1.0) / 2.0) - 1
    bound = config.kappa * (3 / 64 * c * c / top**4 + 16.0 * np.finfo(float).eps * c * ZETA3)
    if bound > 1e-12:
        raise ConvergenceError(
            f"classical potential certified to {bound:.3e} only, above tol 1e-12 "
            f"at delta = {delta_tilde}")
    m = np.arange(1.0, top + 1.0, 2.0)
    remainder = float(np.sum(1.0 / np.sqrt(m * m + c) - 1.0 / m + 0.5 * c / m**3))
    return d2 + config.kappa * (remainder - 7 / 16 * c * ZETA3)


# ---------------------------------------------------------------------------
# the dense doubled-space form


def full_matrix(form):
    """The 2D x 2D coupling matrix [[h, g], [g, h]] of a ``QuadraticForm``,
    with h = g + diag(omega_bare)."""
    h = form.g + np.diag(form.omega_bare)
    return np.block([[h, form.g], [form.g, h]])


def sigma_matrix(dim):
    """Sigma = diag(1_D, -1_D) defining the symplectic pseudo-norm."""
    return np.diag(np.concatenate([np.ones(dim), -np.ones(dim)]))


def x_vector(mode):
    """Positive-norm eigenvector (u, -v) of a ``BogoliubovMode`` at +omega."""
    return np.concatenate([mode.u, -mode.v])


def y_vector(mode):
    """Negative-norm partner (-v, u) at -omega within the same block."""
    return np.concatenate([-mode.v, mode.u])


def eigen_residual(form, mode):
    """|| Sigma H x - omega x ||_max for one mode."""
    x = x_vector(mode)
    return float(np.max(np.abs(sigma_apply(full_matrix(form) @ x) - mode.omega * x)))


def zero_pair_axis(zp, axis_map):
    """The one axis class off which a zero pair's p[:D] is exactly 0.0, or
    None when p has entries on more than one class."""
    axes = np.unique(axis_map[zp.p[: len(axis_map)] != 0.0])
    return int(axes[0]) if len(axes) == 1 else None


# ---------------------------------------------------------------------------
# ladder correlators


def v0(zp):
    """The P amplitude of a zero pair: q = -i (v0, v0*)."""
    return 1j * zp.q[: len(zp.q) // 2]


def pair_correlators_k(field, k, kp, s, sp, nu, nup, temperature,
                       include_radial_zero_mode=True,
                       include_longitudinal_zero_mode=False):
    """The four ladder correlators <a^dag a>, <a a^dag>, <a^dag a^dag>, <a a>.

    Normal terms require k' = k, anomalous ones k' = -k; all other pairings
    vanish because thermal states are diagonal in the phonon numbers.  At
    k = k' = 0 the enabled free-particle sectors contribute their <Q^2> and
    <P^2> moments with the phase-fixed (p, q) sign structure.
    """
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    i = _cell_index(s, AXES[nu])
    j = _cell_index(sp, AXES[nup])
    ki = int(np.argmin(np.abs(field.k - k)))
    kj = int(np.argmin(np.abs(field.k - kp)))
    if abs(field.k[ki] - k) > 1e-9 or abs(field.k[kj] - kp) > 1e-9:
        raise ValueError("momenta must lie on the field grid")
    ada = aad = adad = aa = 0.0 + 0.0j
    n = _bose(field.omega[ki], temperature) * field.mask[ki]
    u_i, v_i = field.u[ki, :, i], field.v[ki, :, i]
    if ki == kj:
        u_j, v_j = field.u[kj, :, j], field.v[kj, :, j]
        ada += np.sum(np.conj(u_i) * u_j * n + np.conj(v_i) * v_j * (n + 1.0))
        aad += np.sum(u_i * np.conj(u_j) * (n + 1.0) + v_i * np.conj(v_j) * n)
    # anomalous pairing: k' = -k modulo a reciprocal lattice vector, which
    # also covers the self-paired zone edge.  Within block k the negative-norm
    # (swap of x) directions are exactly the -k creation operators, so the
    # anomalous averages close over block-k amplitudes alone and are
    # invariant under each mode's arbitrary phase.
    ksum = field.k[ki] + field.k[kj]
    if abs((ksum + np.pi / 2.0) % np.pi - np.pi / 2.0) < 1e-9:
        u_j, v_j = field.u[ki, :, j], field.v[ki, :, j]
        adad += -np.sum(np.conj(u_i) * v_j * n + np.conj(v_i) * u_j * (n + 1.0))
        aa += -np.sum(u_i * np.conj(v_j) * (n + 1.0) + v_i * np.conj(u_j) * n)
    if abs(k) < 1e-12 and abs(kp) < 1e-12:
        for sector in _enabled_sectors(field, include_radial_zero_mode,
                                       include_longitudinal_zero_mode):
            zp = sector.pair
            u0_i, u0_j = zp.u0[i], zp.u0[j]
            v0_i, v0_j = v0(zp)[[i, j]]
            q2 = q_variance(sector)
            p2 = thermal_p_squared(sector, temperature)
            ada += np.conj(u0_i) * u0_j * q2 + np.conj(v0_i) * v0_j * p2
            aad += u0_i * np.conj(u0_j) * q2 + v0_i * np.conj(v0_j) * p2
            adad += -np.conj(u0_i) * np.conj(u0_j) * q2 \
                + np.conj(v0_i) * np.conj(v0_j) * p2
            aa += -u0_i * u0_j * q2 + v0_i * v0_j * p2
    return complex(ada), complex(aad), complex(adad), complex(aa)


# ---------------------------------------------------------------------------
# per-ion sums of a ring


def ring_heat_capacity(temperature, field):
    """(sum over modes of the Einstein heat + sum over sectors of C) / N."""
    c = float(_einstein_heat(field.omega[field.mask], temperature).sum())
    for sector in field.sectors():
        c += thermal_energy_and_heat(sector, temperature)[1]
    return c / field.config.n_ions


def ring_correlation_energy(field):
    """(1/2N) (sum_m omega_m - (N/2) sum of a cell's six Omega)."""
    bare = float(np.sum(field.couplings.omega_bare))
    total = float(field.omega[field.mask].sum())
    return 0.5 * (total - field.n_cells * bare) / field.config.n_ions
