"""Phonon normal form and observables for trapped-ion chains.

The package computes, from first principles and in dimensionless units
(m_I = omega_I = d = 1), the complete quadratic normal form of a linear or
zigzag ion chain: Bogoliubov phonon modes plus one effective free particle
per spontaneously broken continuous symmetry, and the observables built on
them (dispersions, spatial correlations, heat capacity, dynamical
susceptibility, correlation-energy reduction).
"""

__version__ = "0.1.0"

from .chain import (
    Boundary,
    ChainConfig,
    Equilibrium,
    Hessian,
    bare_frequencies,
    build_hessian,
    equilibrium_residual,
    omega_from_hessian,
    polylog,
    solve_delta0,
)
from .symplectic import (
    BogoliubovMode,
    NormalForm,
    QuadraticForm,
    ZeroModePair,
    assemble_W,
    build_quadratic_form,
    completeness_residual,
    symplectic_diagonalize,
)
from .bloch import (
    Bands,
    collectivities,
    coupling_f,
    critical_kappa,
    dispersion_linear,
    dispersion_zigzag,
    mixing_angles,
    mode_vectors_linear,
    verify_f_diagonality,
)
from .freeparticle import (
    FreeParticleSector,
    PhaseOperatorBasis,
    effective_masses,
    phase_operator,
    q_variance,
    thermal_p_squared,
)
from .observables import (
    CorrelatorRequest,
    PhononField,
    correlation_energy,
    ginzburg_parameter,
    heat_capacity,
    spatial_correlator,
    susceptibility,
)
