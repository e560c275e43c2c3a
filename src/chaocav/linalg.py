"""Dense complex linear algebra for one, two and three qubit states.

Basis order is fixed everywhere: single qubit (|g>, |e>), two qubits
(|gg>, |ge>, |eg>, |ee>), and the matching Kronecker order for larger
registers. All operations are pure functions on numpy complex arrays.
Spectra come from numpy's LAPACK solvers, but for jacobi_eigh's coherences.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_INPUT_TOL = 1e-9
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
JACOBI_OFF_TOL = 1e-13


class InvariantViolation(Exception):
    """A state or operation broke a structural invariant."""


def tensor(*ops):
    """Kronecker product of one or more operators, left to right.

    Each operator is a 2-D matrix or a (..., m, n) stack of them; the
    leading axes broadcast, and a product of stacks is the stack of the
    slices' products. Each step is one broadcast product of a (m, 1, n, 1)
    and a (1, p, 1, q) view reshaped to (m p, n q): the single products
    np.kron forms, so every slice is bit for bit np.kron's, without its
    generic-shape overhead.
    """
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        (m, n), (p, q) = out.shape[-2:], op.shape[-2:]
        prod = out[..., :, None, :, None] * op[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (m * p, n * q))
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
    """Ascending eigenvalues, (B, 2), of [[0, z], [conj(z), 0]] for the (B,) z in mats.

    One Jacobi rotation, c = s = 1/sqrt(2) with the phase z/|z|, diagonalises
    each block, or the identity where |z| <= 1e-300. A residual off-diagonal
    norm of JACOBI_OFF_TOL or more raises InvariantViolation. Its bits, not
    those of +-|z|, set every preset's doe.
    """
    z = np.asarray(mats, dtype=complex)
    if z.ndim != 1:
        raise InvariantViolation(f"jacobi_eigh needs a (B,) array of coherences, got {z.shape}")
    mag = np.abs(z)
    active = mag > 1e-300
    # A tiny mag can overflow z / mag: an inactive coherence drops the result.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phase = z / mag
    c = np.where(active, 1.0 / np.sqrt(2.0), 1.0)
    s = np.where(active, c, 0.0)
    ph = np.where(active, phase, 1.0)
    w, v = s * np.conj(ph), s * ph
    # The rotation's two-sided product, entry by entry: the columns, then
    # the rows, with the terms on the zero diagonal left out.
    a00, a10, a01, a11 = -(w * z), c * np.conj(z), c * z, v * np.conj(z)
    off = np.abs(c * a01 - v * a11) ** 2 + np.abs(w * a00 + c * a10) ** 2
    worst = np.sqrt(np.max(off, initial=0.0))
    if not worst < JACOBI_OFF_TOL:  # NaN fails too
        raise InvariantViolation(f"Jacobi rotation left an off-diagonal norm of {worst:.3e}")
    out = np.empty((z.shape[0], 2))
    out[:, 0] = (c * a00 - v * a10).real
    out[:, 1] = (w * a01 + c * a11).real
    return out


def require_density_matrix(rho, context="", *, stacked=False):
    """Raise InvariantViolation unless rho is a valid density matrix.

    Checks finiteness, Hermiticity to 1e-12, unit trace to 1e-12 and an
    eigenvalue floor of -1e-10 (numpy's eigvalsh), which absorbs rounding
    accumulated in long Fock sums. With stacked=True, rho is a (..., n, n)
    stack checked as a whole: one batched eigvalsh, whose lowest
    eigenvalues are bit for bit the per-matrix ones, and a failure names
    the index of the first failing matrix in C order. A matrix that fails
    an earlier check never reaches the eigensolver. Returns rho.
    """
    where = f" ({context})" if context else ""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or (rho.ndim > 2 and not stacked) or rho.shape[-1] != rho.shape[-2]:
        raise InvariantViolation(f"rho must be square, got shape {rho.shape}")
    lead = rho.shape[:-2]
    flat = rho.reshape((math.prod(lead),) + rho.shape[-2:])
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        nonfinite = ~np.all(np.isfinite(flat), axis=(1, 2))
        herm = np.max(np.abs(flat - np.swapaxes(flat.conj(), 1, 2)), axis=(1, 2),
                      initial=0.0)
        tr = np.trace(flat, axis1=1, axis2=2)
    skewed = herm > DENSITY_HERMITICITY_TOL
    bad = nonfinite | skewed | (abs(tr - 1.0) > DENSITY_TRACE_TOL)
    first = int(np.argmax(bad)) if bad.any() else flat.shape[0]
    # Only the matrices before the first failure reach the eigensolver.
    low = np.linalg.eigvalsh(flat[:first])[:, 0] if first else np.empty(0)
    sunk = low < EIGENVALUE_FLOOR
    i = int(np.argmax(sunk)) if sunk.any() else first
    if i == flat.shape[0]:
        return rho
    label = "density matrix"
    if lead:
        index = tuple(int(k) for k in np.unravel_index(i, lead))
        label += f" {index[0] if len(index) == 1 else index}"
    if i < first:
        raise InvariantViolation(f"{label} eigenvalue {low[i]:.3e} below floor{where}")
    if nonfinite[i]:
        raise InvariantViolation(f"{label} has non-finite entries{where}")
    if skewed[i]:
        raise InvariantViolation(f"{label} not Hermitian, deviation {herm[i]:.3e}{where}")
    raise InvariantViolation(f"{label} trace {tr[i]:.15g} != 1{where}")
