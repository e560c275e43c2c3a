"""Entanglement degree of two-atom states via the partial transpose."""

from __future__ import annotations

import numpy as np

from .linalg import InvariantViolation, is_hermitian, jacobi_eigh, partial_transpose

DOE_CEILING_TOL = 1e-12


def _doe_from_rhos(rhos):
    # rhos is a (K, 4, 4) stack, or for a one-pair preparation (live rows
    # 0::3 or 1:3) the (K, 2, 2) block rho[:, live, live], the only
    # nonzero part of each matrix. Its partial transpose keeps the block's
    # populations on the diagonal and couples its coherence rho01 into one
    # block [[0, rho01], [conj(rho01), 0]], which jacobi_eigh solves from
    # rho01 with the preset bits. A 4x4 stack goes to LAPACK; its eigenvalues
    # agree with the block route to a few ulp, not bit for bit.
    if rhos.shape[-1] == 2:
        if not is_hermitian(rhos):
            raise InvariantViolation("one-pair block: input is not Hermitian within 1e-9")
        pops = np.einsum("kii->ki", rhos).real
        mu = np.sort(np.concatenate([jacobi_eigh(rhos[:, 0, 1]), pops], axis=1), axis=1)
    else:
        mu = np.linalg.eigvalsh(partial_transpose(rhos))
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

