"""Reference implementations that the tests check the package against.

Each one reaches a number the package computes another way: the classical
potential that the equilibrium condition differentiates, the 3 x 3 pair
blocks whose four entries ``pair_dyadic`` keeps, the per-k 6 x 6 normal
form whose screw blocks ``CellCouplings.bands`` solves in closed form, the
dense 2D x 2D form behind the Hermitian reduction of ``symplectic``, the four
ladder correlators that ``spatial_correlator`` combines in one sum, the
one-request sum that ``correlator_table`` takes for many separations at
once, the explicit per-ion sums of a ring that ``heat_capacity`` and
``correlation_energy`` take as zone averages, and the per-term sum that
``susceptibility`` takes over distinct poles.  The package itself never
calls them.
"""

import math

import numpy as np

from ionphonon.bloch import AXES, CELL_AXIS_MAP, CellCouplings, _cell_index, cell_entry
from ionphonon.chain import (
    GENERATORS,
    ZETA3,
    _TAIL,
    Boundary,
    build_hessian,
    omega_from_hessian,
    pair_dy,
    pair_offsets,
    solve_delta0,
)
from ionphonon.errors import ConvergenceError, InternalConsistencyError
from ionphonon.freeparticle import (
    build_sectors,
    q_variance,
    thermal_energy_and_heat,
    thermal_p_squared,
)
from ionphonon.observables import (
    _CHUNK_ELEMENTS,
    _bose,
    _einstein_heat,
    _enabled_sectors,
)
from ionphonon.symplectic import (
    build_quadratic_form,
    generator_pair,
    sigma_apply,
    symplectic_diagonalize,
)


def sectors(config, eq=None):
    """``build_sectors`` on the bare frequencies of the cell blocks, as
    ``PhononField.sectors`` passes them."""
    if eq is None:
        eq = solve_delta0(config)
    return build_sectors(config, eq, CellCouplings(config, eq).omega_bare)


def cell_normal_form(couplings, k, raw=None):
    """The per-k 6 x 6 oracle of ``CellCouplings.bands``: the normal form of
    the block at k, built from ``raw`` (that k's row of the grid's
    ``raw_coupling``) when given, else ``couplings.normal_form(k)``."""
    if raw is None:
        return couplings.normal_form(k)
    return symplectic_diagonalize(couplings._block(float(k), raw), axis_map=CELL_AXIS_MAP,
                                  p_norm=couplings.config.n_ions)


# ---------------------------------------------------------------------------
# pair blocks


def pair_block(dx, dy, kappa):
    """3 x 3 Coulomb Hessian blocks at separations (dx, dy, 0), shape (n, 3, 3).

    d^2 phi / dR_l dR_l' of the pair potential phi = kappa / (2 r) (kappa
    may be per pair) is -kappa (3 d d^T - r^2 1) / (2 r^5), d the separation;
    ``chain.pair_dyadic`` keeps its xx, yy, zz and xy entries.  The lower
    triangle mirrors the upper one, so each block is symmetric to the bit.
    """
    d = np.stack(np.broadcast_arrays(np.asarray(dx, dtype=float), dy, 0.0), axis=-1)
    r2 = np.sum(d * d, axis=-1)
    pref = -0.5 * np.asarray(kappa) * r2 ** -2.5
    dyad = np.triu(3.0 * d[..., :, None] * d[..., None, :] - r2[..., None, None] * np.eye(3))
    return pref[..., None, None] * (dyad + np.triu(dyad, 1).swapaxes(-1, -2))


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


_GENERATOR_AXIS = {label: axis for axis, (label, _) in GENERATORS.items()}


def pair_correlators_k(field, k, kp, s, sp, nu, nup, temperature,
                       include_radial_zero_mode=True,
                       include_longitudinal_zero_mode=False):
    """The four ladder correlators <a^dag a>, <a a^dag>, <a^dag a^dag>, <a a>.

    Normal terms require k' = k, anomalous ones k' = -k; all other pairings
    vanish because thermal states are diagonal in the phonon numbers.  At
    k = k' = 0 the enabled free-particle sectors contribute their <Q^2> and
    <P^2> moments with the phase-fixed (p, q) sign structure of a zero pair
    built here (``symplectic.generator_pair`` of the sector's generator), so
    the sectors' closed forms are checked against the pairs.
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
            zp = generator_pair(_GENERATOR_AXIS[sector.label], CELL_AXIS_MAP,
                                field.omega_bare, field.config.n_ions)[1]
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


def one_correlator(req, field):
    """One spatial correlator as its own sum over the field's momenta.

    The same terms in the same order as ``correlator_table``, but with one
    phase vector for ``req.delta_j`` alone; no divergence check.
    """
    i = _cell_index(req.s, AXES[req.nu])
    j = _cell_index(req.sp, AXES[req.nup])
    omega_i = field.omega_bare[i]
    lam = field.config.lam
    n = _bose(field.omega, req.temperature)
    w = np.divide(2.0 * n + 1.0, field.omega, out=np.zeros_like(n), where=field.mask)
    pair = np.conj(cell_entry(field.phi, field.twist, req.s, AXES[req.nu])) \
        * cell_entry(field.phi, field.twist, req.sp, AXES[req.nup]) * field.mask
    phase = np.exp(-1j * field.couplings.cell_length * field.k * req.delta_j)
    term_minus = np.sum((w - 1.0 / omega_i) * pair, axis=1) * phase
    term_plus = np.conj(np.sum((w + 1.0 / omega_i) * pair, axis=1)) * np.conj(phase)
    value = np.sum(term_minus + term_plus) / (4.0 * lam**2 * len(field.k))
    for sector in _enabled_sectors(field, req.include_radial_zero_mode,
                                   req.include_longitudinal_zero_mode):
        value += sector.move[i] * sector.move[j] * q_variance(sector) / (lam**2 * omega_i)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise InternalConsistencyError(f"correlator not real: {value}")
    return float(value.real)


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


# ---------------------------------------------------------------------------
# susceptibility term by term


def per_term_susceptibility(omega_grid, component, field, eta=1e-2):
    """chi(omega) as two divisions for every (omega, k, mode) of the field.

    (1 / (2 lam^2 Omega_nu N_k)) sum_{k,gamma} |u - v|^2 [1/(omega + w +
    i eta) - 1/(omega - w + i eta)], with the masked slots and the zero
    weights multiplied in, in omega chunks of ``_CHUNK_ELEMENTS`` terms.
    No validation; returns the chi array.
    """
    nu, s = component
    i = _cell_index(s, AXES[nu])
    weight = np.abs(field.u[:, :, i] - field.v[:, :, i]) ** 2 * field.mask
    pref = weight / (
        2.0 * field.config.lam**2 * field.couplings.omega_bare[i]
    ) / len(field.k)
    omega_grid = np.asarray(omega_grid, dtype=float)
    w = field.omega
    step = max(1, _CHUNK_ELEMENTS // w.size)
    chi = np.empty(len(omega_grid), dtype=complex)
    for start in range(0, len(omega_grid), step):
        om = omega_grid[start:start + step, None, None]
        terms = 1.0 / (om + w + 1j * eta) - 1.0 / (om - w + 1j * eta)
        chi[start:start + step] = np.sum(
            (pref * terms * field.mask).reshape(len(om), -1), axis=1)
    return chi


# ---------------------------------------------------------------------------
# the full-space normal form of a ring


def full_space_normal_form(cfg, eq):
    """The 3N x 3N normal form of a chain, one zero pair per broken symmetry,
    and its per-(l, nu) bare frequencies (flat index 3 l + nu)."""
    hess = build_hessian(cfg, eq)
    omegas = omega_from_hessian(hess)
    nf = symplectic_diagonalize(build_quadratic_form(hess, omegas), axis_map=hess.axis_map,
                                p_norm=cfg.n_ions)
    return nf, omegas


def full_space_sectors(cfg, eq, nf, omegas):
    """The free-particle sector of each full-space zero pair, by label:
    ``build_sectors`` on ion 0's bare frequencies of the full space."""
    cell = np.repeat(omegas[:3], 2)  # the _cell_index layout: (s, nu) -> 2 nu + s
    found = {sector.label: sector for sector in build_sectors(cfg, eq, cell)}
    return {zp.label: found[zp.label] for zp in nf.zero_pairs}


def full_space_correlation_matrix(cfg, eq, temperature=0.0, radial=True,
                                  longitudinal=False, full=None):
    """Every <dR_a dR_b> in d^2 from the full-space normal form (``full``:
    ``full_space_normal_form``'s pair), without the Bloch decomposition.

    Each mode adds (2 n + 1) w w^dag, w = u - v*, with n its Bose factor;
    each enabled zero pair adds 4 Im(u0) Im(u0)^T <Q^2>, since v0 = i q[:D]
    is imaginary and positions decouple from P.
    """
    nf, omegas = full_space_normal_form(cfg, eq) if full is None else full
    w = nf.u - nf.v.conj()
    weight = 2.0 * _bose(nf.omega, temperature) + 1.0
    total = np.real((weight[:, None] * w).T @ w.conj())
    enabled = {"radial": radial, "longitudinal": longitudinal}
    sectors_by_label = full_space_sectors(cfg, eq, nf, omegas)
    for zp in nf.zero_pairs:
        if enabled[zp.label]:
            total += 4.0 * np.outer(zp.u0.imag, zp.u0.imag) * q_variance(sectors_by_label[zp.label])
    return total / (2.0 * cfg.lam**2 * np.sqrt(np.outer(omegas, omegas)))


def full_space_heat_capacity(temperature, cfg, eq, full):
    """(Einstein heat of every full-space mode + each zero pair's sector) / N."""
    nf, omegas = full
    c = float(_einstein_heat(nf.omega, temperature).sum())
    for sector in full_space_sectors(cfg, eq, nf, omegas).values():
        c += thermal_energy_and_heat(sector, temperature)[1]
    return c / cfg.n_ions


def full_space_correlation_energy(cfg, full):
    """(1/2N) (sum of the full-space omega - sum of the 3N Omega)."""
    nf, omegas = full
    return 0.5 * (float(nf.omega.sum()) - float(omegas.sum())) / cfg.n_ions


def full_space_susceptibility(omega_grid, component, cfg, full, eta):
    """chi(omega) of ion ``s``'s axis ``nu`` as the per-mode sum over the full
    space: (1 / (2 lam^2 Omega_a)) sum_m |u_a - v_a|^2 [1/(z + w) - 1/(z - w)]."""
    nf, omegas = full
    nu, s = component
    a = 3 * s + AXES[nu]
    weight = np.abs(nf.u[:, a] - nf.v[:, a]) ** 2
    z = np.asarray(omega_grid, dtype=float)[:, None] + 1j * eta
    terms = weight * (1.0 / (z + nf.omega) - 1.0 / (z - nf.omega))
    return terms.sum(axis=1) / (2.0 * cfg.lam**2 * omegas[a])
