"""Numerical laboratory for nonlinear quantum mechanics.

Average values are (1,1)-homogeneous functionals of the wave amplitudes; each
carries a state-dependent Hermitian operator, a star algebra, several
inequivalent notions of spectrum, a nonlinear Schrodinger flow, and two
inequivalent composite-system extensions with physically distinct
consequences (signaling, telegraphs, mixture paradoxes, atom inversion).
"""

from .core import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    ValidationError,
    basis_state,
    expectation,
    identity2,
    partial_trace,
    reduced_states,
    rotate_subsystem,
    sigma1,
    sigma2,
    sigma3,
    tensor_state,
)
from .observables import (
    HomogeneousObservable,
    SingularObservableError,
    barstar_moment,
    bilinear,
    canonical,
    cubic,
    moment_power,
    nonlinear_operator,
    norm_functional,
    power_family,
    singular_inverse,
    standard_catalog,
    star_product,
    wirtinger_gradient,
)
from .spectra import (
    EigenstateRecord,
    MomentProbabilities,
    diagonal_values,
    eigenfrequencies,
    find_eigenstates,
    moment_probabilities,
)
from .dynamics import (
    BlochParams,
    BlochTrajectory,
    IntegrationError,
    Trajectory,
    canonical_frequencies,
    canonical_solution,
    default_timestep,
    ellipk,
    integrate_bloch,
    integrate_nls,
    jacobi_elliptic,
    neo_hamiltonian,
)
from .composite import (
    NoSignalingReport,
    ParadoxParams,
    ParadoxReport,
    ReducedFlowTrajectory,
    TelegraphParams,
    TelegraphReport,
    gisin_telegraph,
    gradient_flow_operator,
    intention_paradox,
    lift_operator,
    mobility_telegraph,
    no_signaling_check,
    polchinski_functional,
    polchinski_reduced_flow,
    weinberg_composite,
)
from .atom import (
    AtomFieldParams,
    InversionSeries,
    atom_r3,
    atom_rplus,
    build_atom_field,
    elliptic_inversion,
    field_annihilator,
    inversion_ode_check,
    inversion_trajectory,
    linear_hamiltonian,
    product_state,
)

__version__ = "0.1.0"
