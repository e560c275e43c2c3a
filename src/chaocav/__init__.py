"""Entanglement and teleportation for two atoms coupled to a cavity mode
through a randomly phased position-dependent coupling."""

from .dynamics import (AmplitudeTable, AtomicInit, amplitude_table, averaged_q,
                       deterministic_table, erf_array, table_density)
from .entanglement import negativity
from .field import CoherentField, coherent_weights
from .linalg import (InvariantViolation, jacobi_eigh, partial_transpose,
                     require_density_matrix, tensor)
from .oracle import (MonteCarloQ, build_block, full_hamiltonian, integrate_schrodinger,
                     joint_averaged_density, monte_carlo_q, run_verification)
from .sweep import SweepGrid, sweep_grid
from .teleport import TeleportOutcome, UnknownQubit, bell_project_teleport, kappa_sums

__version__ = "0.1.0"
