"""Entanglement and teleportation for two atoms coupled to a cavity mode
through a randomly phased position-dependent coupling.

The root exports the production API. The oracle's and the tests' helpers
are imported from their own modules, such as chaocav.oracle.
"""

from .dynamics import AtomicInit, averaged_q
from .field import CoherentField, coherent_weights
from .linalg import InvariantViolation
from .oracle import run_verification
from .sweep import SweepGrid, sweep_grid
from .teleport import UnknownQubit

__all__ = ["AtomicInit", "CoherentField", "InvariantViolation", "SweepGrid", "UnknownQubit",
           "averaged_q", "coherent_weights", "run_verification", "sweep_grid"]

__version__ = "0.1.0"
