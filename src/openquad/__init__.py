"""Exact solver for Markovian master equations of open quadratic fermi systems.

The library solves the quadratic Liouvillean of n fermionic modes
coupled linearly to thermal (Redfield) or memoryless (Lindblad) baths.
Steady states and relaxation spectra come from one real 2n x 2n
Schur-Lyapunov solve (``steady_state``); the normal modes of the 4n x 4n
antisymmetric structure matrix, built from one eig of the 2n x 2n matrix
read off it, serve the dynamics and cross-checks.  It
evaluates steady states, observables, relaxation spectra and driven
dynamics of the open XY spin-1/2 chain.
"""

from .model import (
    ChainParams,
    CouplingOperator,
    LindbladRates,
    QuadraticModel,
    RedfieldOhmic,
    build_xy_couplings,
    build_xy_hamiltonian,
    dispersion,
    lindblad_jump_vectors,
    ohmic_spectral_function,
    stationary_wavenumber,
    xy_lindblad_model,
    xy_redfield_model,
)
from .spectra import (
    HamiltonianEigensystem,
    LyapunovForm,
    NonDiagonalizableError,
    NormalModes,
    StructureMatrix,
    ZeroRapidityWarning,
    assemble_structure_matrix,
    bath_matrix,
    bath_matrix_from_jumps,
    bath_vector,
    bath_vectors,
    even_weight_selectors,
    full_liouvillean_spectrum,
    hamiltonian_eigensystem,
    liouvillean_eigenvalues,
    lyapunov_form,
    normal_modes,
    rapidities,
    spectral_gap,
    structure_matrix,
    symplectic_form,
)
from .ness import (
    NonUniqueNESSError,
    ObservableReport,
    PositivityWarning,
    SteadyState,
    TwoPointMatrix,
    block_entropy,
    commutator_quadratic,
    correlation_decay,
    correlation_matrix,
    correlation_spectrum,
    positivity_excess,
    energy_density_matrices,
    energy_density_profile,
    energy_fluctuation_profile,
    heat_current_profile,
    magnetization_profile,
    ness_two_point,
    ness_two_point_green,
    observable_report,
    quadratic_expectation,
    quantum_mutual_information,
    residual_correlator,
    spin_spin_correlator,
    steady_state,
    wick_four_point,
)
from .dynamics import (
    BranchAmbiguityError,
    DriveSchedule,
    StepTooLargeError,
    dynamic_correlator,
    propagate_schedule,
    propagate_two_point,
    time_ordered_propagator,
)

__version__ = "0.1.0"
