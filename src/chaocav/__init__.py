"""Entanglement and teleportation for two atoms coupled to a cavity mode
through a randomly phased position-dependent coupling."""

from .dynamics import (AmplitudeTable, AtomicInit, ModelParams, ReducedState,
                       amplitude_table, atomic_density, averaged_q,
                       deterministic_density, deterministic_table, erf_array,
                       table_density)
from .entanglement import negativity
from .field import CoherentField, coherent_weights
from .linalg import (InvariantViolation, jacobi_eigh, partial_trace, partial_transpose,
                     require_density_matrix, tensor)
from .oracle import (MonteCarloQ, NoiseSpec, build_block, full_hamiltonian,
                     integrate_schrodinger, joint_averaged_density, monte_carlo_q,
                     noise_spec_for_gamma, rk4_evolve,
                     run_verification)
from .sweep import SweepGrid, sweep_grid
from .teleport import TeleportOutcome, UnknownQubit, bell_project_teleport, kappa_sums

__version__ = "0.1.0"
