"""Dense complex linear algebra for one, two and three qubit states.

Basis order is fixed everywhere: single qubit (|g>, |e>), two qubits
(|gg>, |ge>, |eg>, |ee>), and the matching Kronecker order for larger
registers. All operations are pure functions on numpy complex arrays.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_INPUT_TOL = 1e-9
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60


class InvariantViolation(Exception):
    """A state or operation broke a structural invariant."""


def tensor(*ops):
    """Kronecker product of one or more operators, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def is_hermitian(m):
    """True when m equals its conjugate transpose within 1e-9 (max entry).

    m is one square matrix or a stack of them along the last two axes.
    """
    m = np.asarray(m)
    return bool(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2)), initial=0.0)
                <= HERMITIAN_INPUT_TOL)


def partial_transpose(rho):
    """Partial transpose over atom 2 of a 4x4 matrix or a (..., 4, 4) stack.

    The result has the input's shape. Rejects input that is not Hermitian
    within 1e-9 because the operation is only used on density matrices.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise InvariantViolation(f"partial_transpose needs 4x4 matrices, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise InvariantViolation("partial_transpose: input is not Hermitian within 1e-9")
    k = rho.ndim - 2
    perm = tuple(range(k)) + (k, k + 3, k + 2, k + 1)
    return rho.reshape(rho.shape[:k] + (2, 2, 2, 2)).transpose(perm).reshape(rho.shape)


def _off_norm(a):
    # Largest off-diagonal Frobenius norm over a (B, d, d) batch.
    off = np.abs(a) ** 2 * ~np.eye(a.shape[-1], dtype=bool)
    return np.sqrt(np.max(np.sum(off, axis=(1, 2)), initial=0.0))


def jacobi_eigh(mats):
    """Eigenvalues (ascending) of a (B, d, d) stack of Hermitian matrices.

    Cyclic Jacobi rotations sweep until the off-diagonal Frobenius norm of
    every matrix drops below JACOBI_OFF_TOL; the result is (B, d). A matrix
    whose (p, q) entry is at most 1e-300 takes the identity in place of
    that pair's rotation, which changes at most the sign of a zero.
    """
    a = np.array(mats, dtype=complex)
    d = a.shape[-1]
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_norm(a) < JACOBI_OFF_TOL:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[:, p, q]
                mag = np.abs(apq)
                active = mag > 1e-300
                with np.errstate(divide="ignore", invalid="ignore"):
                    tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * mag)
                    tee = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
                    c = 1.0 / np.sqrt(1.0 + tee * tee)
                    s = tee * c
                    phase = apq / mag
                c = np.where(active, c, 1.0)
                s = np.where(active, s, 0.0)
                phase = np.where(active, phase, 1.0)
                cc = c[:, None]
                ss = s[:, None]
                ph = phase[:, None]
                colp = a[:, :, p].copy()
                colq = a[:, :, q].copy()
                a[:, :, p] = cc * colp - ss * np.conj(ph) * colq
                a[:, :, q] = ss * ph * colp + cc * colq
                rowp = a[:, p, :].copy()
                rowq = a[:, q, :].copy()
                a[:, p, :] = cc * rowp - ss * ph * rowq
                a[:, q, :] = ss * np.conj(ph) * rowp + cc * rowq
    else:
        worst = _off_norm(a)
        if worst >= JACOBI_OFF_TOL:
            raise InvariantViolation(f"Jacobi sweep did not converge, off-diagonal norm {worst:.3e}")
    w = np.einsum("bii->bi", a).real
    w = np.take_along_axis(w, np.argsort(w, axis=1), axis=1)
    return w


def require_density_matrix(rho, context=""):
    """Raise InvariantViolation unless rho is a valid density matrix.

    Checks finiteness, Hermiticity to 1e-12, unit trace to 1e-12 and an
    eigenvalue floor of -1e-10, taken from numpy's eigvalsh so that the
    check does not rest on jacobi_eigh. The floor absorbs rounding
    accumulated in long Fock sums.
    """
    where = f" ({context})" if context else ""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvariantViolation(f"rho must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvariantViolation(f"density matrix has non-finite entries{where}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > DENSITY_HERMITICITY_TOL:
        raise InvariantViolation(f"density matrix not Hermitian, deviation {herm:.3e}{where}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise InvariantViolation(f"density matrix trace {tr:.15g} != 1{where}")
    low = np.linalg.eigvalsh(rho)[0]
    if low < EIGENVALUE_FLOOR:
        raise InvariantViolation(f"density matrix eigenvalue {low:.3e} below floor{where}")
    return rho
