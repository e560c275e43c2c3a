"""Dense complex linear algebra for one, two and three qubit states.

Basis order is fixed everywhere: single qubit (|g>, |e>), two qubits
(|gg>, |ge>, |eg>, |ee>), and the matching Kronecker order for larger
registers. All operations are pure functions on numpy complex arrays.
Spectra come from numpy's LAPACK solvers, but for jacobi_eigh's 2x2 blocks.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_INPUT_TOL = 1e-9
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
JACOBI_OFF_TOL = 1e-13


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


def jacobi_eigh(mats):
    """Ascending eigenvalues, (B, 2), of a (B, 2, 2) stack of Hermitian blocks.

    One Jacobi rotation of the pair (0, 1) diagonalises each block, and a
    residual off-diagonal norm of JACOBI_OFF_TOL or more raises
    InvariantViolation. A block whose off-diagonal entry is at most 1e-300
    takes the identity in place of the rotation, which changes at most the
    sign of a zero. Its bits set every preset's doe, which is why it is
    not numpy's eigvalsh.
    """
    a = np.array(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (2, 2):
        raise InvariantViolation(f"jacobi_eigh needs a (B, 2, 2) stack, got shape {a.shape}")
    apq = a[:, 0, 1]
    mag = np.abs(apq)
    active = mag > 1e-300
    # A tiny mag can overflow tau, tau * tau or apq / mag: an inactive block
    # drops the result, and an active one with tau = inf takes the identity,
    # its right rotation.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = (a[:, 1, 1].real - a[:, 0, 0].real) / (2.0 * mag)
        tee = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
        c = 1.0 / np.sqrt(1.0 + tee * tee)
        s = tee * c
        phase = apq / mag
    c = np.where(active, c, 1.0)[:, None]
    s = np.where(active, s, 0.0)[:, None]
    ph = np.where(active, phase, 1.0)[:, None]
    # The columns, then the rows, of the rotation's two-sided product.
    a = np.stack([c * a[:, :, 0] - s * np.conj(ph) * a[:, :, 1],
                  s * ph * a[:, :, 0] + c * a[:, :, 1]], axis=2)
    a = np.stack([c * a[:, 0] - s * ph * a[:, 1],
                  s * np.conj(ph) * a[:, 0] + c * a[:, 1]], axis=1)
    worst = np.sqrt(np.max(np.abs(a[:, 0, 1]) ** 2 + np.abs(a[:, 1, 0]) ** 2, initial=0.0))
    if not worst < JACOBI_OFF_TOL:  # NaN fails too
        raise InvariantViolation(f"Jacobi rotation left an off-diagonal norm of {worst:.3e}")
    return np.sort(np.einsum("bii->bi", a).real, axis=1)


def require_density_matrix(rho, context=""):
    """Raise InvariantViolation unless rho is a valid density matrix.

    Checks finiteness, Hermiticity to 1e-12, unit trace to 1e-12 and an
    eigenvalue floor of -1e-10 (numpy's eigvalsh), which absorbs rounding
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
