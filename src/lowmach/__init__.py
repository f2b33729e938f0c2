"""Pseudospectral simulation and diagnostics for slightly compressible flow
on the rational-period torus: spectral fields, dyadic norm machinery, the
acoustic eigenbasis, exact resonance tables and limit forms, exponential
time steppers, and the Mach-number sweep diagnostics."""

import os

# lowmach's numerics run on one thread by design (thread-split transforms
# were ruled out by measurement, ROADMAP Baseline), and its matrix products
# are too small for OpenBLAS's helper threads, which only spin: start none.
# A caller's own setting wins, and the line does nothing if numpy was
# imported before lowmach.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .lattice import (
    LatticeSpec,
    SpectralField,
    checkpoint_field,
    dealiased_product,
    forward_transform,
    inverse_transform,
    zero_mean_split,
)
from .dyadic import (
    BumpProfile,
    NormSpec,
    chemin_lerner_norm,
    compute_jb,
    dyadic_block,
    low_cut,
    norm,
    parse_norm_spec,
    time_norm,
)
from .operators import (
    AcousticCoeffs,
    VacuumError,
    acoustic_transform,
    helmholtz_project,
    wave_group,
)
from .resonance import (
    NonResonantTriads,
    ResonanceTable,
    build_limit_tables,
    enumerate_resonance_sets,
    limit_q1,
    limit_q2,
    resonance_test,
    small_divisors,
)
from .solvers import (
    AcousticViscousPropagator,
    CFLError,
    CompressibleStepper,
    Forcing,
    ForcingMode,
    SolverConfig,
    generate_initial_data,
    load_checkpoint,
    run_trajectory,
    save_checkpoint,
    step_compressible,
    step_incompressible,
    step_limit,
)
from .functionals import DiagnosticsRow, FunctionalSettings, compute_functionals
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    convergence_study,
    emit_report,
    vanishing_limit_check,
)

__version__ = "0.1.0"
