"""Entanglement and teleportation for two atoms coupled to a cavity mode
through a randomly phased position-dependent coupling."""

from .dynamics import (AmplitudeTable, AtomicInit, DressedAmplitudes, ModelParams,
                       ReducedState, amplitude_table, atomic_density, averaged_q,
                       deterministic_density, deterministic_table,
                       dressed_amplitudes, erf, erf_array, table_density)
from .entanglement import EntanglementRecord, entanglement_sweep, negativity
from .field import CoherentField, coherent_weights, mean_photon_number
from .linalg import (InvariantViolation, eig_hermitian, jacobi_eigh, partial_trace,
                     partial_transpose, require_density_matrix, tensor)
from .oracle import (MonteCarloQ, NoiseSpec, build_block, full_hamiltonian,
                     integrate_schrodinger, joint_averaged_density, monte_carlo_q,
                     noise_spec_for_gamma, oracle_density, rk4_evolve,
                     run_verification)
from .sweep import SweepGrid, sweep_grid
from .teleport import (DegenerateOutcome, FidelitySweep, TeleportOutcome,
                       UnknownQubit, bell_project_teleport, bob_state_closed_form,
                       fidelity_curve, kappa_sums)

__version__ = "0.1.0"
