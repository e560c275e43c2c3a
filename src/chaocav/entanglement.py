"""Entanglement degree of two-atom states via the partial transpose."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import InvariantViolation, jacobi_eigh, partial_transpose

DOE_CEILING_TOL = 1e-12


@dataclass(frozen=True)
class EntanglementRecord:
    """Degree of entanglement at one (t, gamma) point with its PT spectrum."""

    t: float
    gamma: float
    doe: float
    pt_eigenvalues: np.ndarray
    pre_norm_trace: float


def _doe_from_rhos(rhos):
    pt = partial_transpose(rhos, subsystem=2)
    mu = jacobi_eigh(pt)
    doe = np.sum(np.abs(mu), axis=-1) - 1.0
    doe = np.where(doe > 0.0, doe, 0.0)
    if np.any(~np.isfinite(doe)) or np.any(doe > 1.0 + DOE_CEILING_TOL):
        raise InvariantViolation(f"degree of entanglement left [0, 1]: max {np.max(doe)}")
    return np.minimum(doe, 1.0), mu


def negativity(rho):
    """Degree of entanglement of a single 4x4 two-atom density matrix.

    Twice the negativity: the absolute sum of the negative eigenvalues of
    the partial transpose, doubled, so that Bell states score 1 and
    product states 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvariantViolation(f"negativity needs a 4x4 matrix, got {rho.shape}")
    doe, _ = _doe_from_rhos(rho[None, :, :])
    return float(doe[0])


def entanglement_sweep(times, gammas, init, field, omega_rabi=1.0, g0=1.0):
    """Degree of entanglement of the scalar channel on a (gamma, t) grid.

    Each state is the renormalised state of the phase-averaged amplitudes
    (dynamics.amplitude_table), not the ensemble-averaged state; for the
    trace-preserving ensemble average use oracle.joint_averaged_density.
    Returns records in row-major order: all times for the first gamma,
    then the next gamma. A view of sweep.sweep_grid, which returns the
    same numbers as arrays.
    """
    from .sweep import sweep_grid  # here, not at the top: sweep imports this module

    grid = sweep_grid(times, gammas, init, field, omega_rabi=omega_rabi, g0=g0)
    return [EntanglementRecord(t=float(t), gamma=float(gamma), doe=float(grid.doe[i, k]),
                               pt_eigenvalues=grid.pt_eigenvalues[i, k],
                               pre_norm_trace=float(grid.pre_norm_trace[i, k]))
            for i, gamma in enumerate(grid.gammas) for k, t in enumerate(grid.t)]
