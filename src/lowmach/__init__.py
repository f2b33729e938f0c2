"""Pseudospectral simulation and diagnostics for slightly compressible flow
on the rational-period torus: spectral fields, dyadic norm machinery, the
acoustic eigenbasis and filtered forms, exact resonance tables, exponential
time steppers, and the Mach-number sweep diagnostics."""

from .lattice import (
    GridField,
    LatticeSpec,
    SpectralField,
    convolution_product,
    dealiased_product,
    forward_transform,
    inverse_transform,
    spectral_derivative,
    zero_mean_split,
)
from .dyadic import (
    BumpProfile,
    NormSpec,
    bony_paraproduct,
    chemin_lerner_norm,
    compute_jb,
    dyadic_block,
    low_cut,
    mode_truncate,
    norm,
    parse_norm_spec,
    time_norm,
)
from .operators import (
    AcousticCoeffs,
    PressureLaw,
    VacuumError,
    a2_eps,
    acoustic_inverse,
    acoustic_transform,
    helmholtz_project,
    q1_eps,
    q1_eps_modesum,
    q2_eps,
    q2_eps_modesum,
    sg,
    wave_group,
)
from .resonance import (
    ResonanceTable,
    assemble_correctors,
    build_limit_tables,
    enumerate_resonance_sets,
    limit_q1,
    limit_q2,
    low_freq_split,
    resonance_test,
    small_divisors,
)
from .solvers import (
    AcousticViscousPropagator,
    CFLError,
    CompressibleState,
    CompressibleStepper,
    Forcing,
    ForcingMode,
    SolverConfig,
    Trajectory,
    generate_initial_data,
    load_checkpoint,
    run_trajectory,
    save_checkpoint,
    step_compressible,
    step_incompressible,
    step_limit,
)
from .functionals import DiagnosticsRow, FunctionalSettings, bridge_constant, compute_functionals
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    convergence_study,
    emit_report,
    vanishing_limit_check,
)

__version__ = "0.1.0"
