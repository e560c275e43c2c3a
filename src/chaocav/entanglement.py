"""Entanglement degree of two-atom states via the partial transpose."""

from __future__ import annotations

import numpy as np

from .linalg import InvariantViolation, jacobi_eigh, partial_transpose

DOE_CEILING_TOL = 1e-12


def _doe_from_rhos(rhos):
    pt = partial_transpose(rhos)
    mu = jacobi_eigh(pt)
    doe = np.sum(np.abs(mu), axis=-1) - 1.0
    doe = np.where(doe > 0.0, doe, 0.0)
    if np.any(~np.isfinite(doe)) or np.any(doe > 1.0 + DOE_CEILING_TOL):
        raise InvariantViolation(f"degree of entanglement left [0, 1]: max {np.max(doe)}")
    return np.minimum(doe, 1.0)


def negativity(rho):
    """Degree of entanglement of a single 4x4 two-atom density matrix.

    Twice the negativity: the absolute sum of the negative eigenvalues of
    the partial transpose, doubled, so that Bell states score 1 and
    product states 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvariantViolation(f"negativity needs a 4x4 matrix, got {rho.shape}")
    return float(_doe_from_rhos(rho[None, :, :])[0])

