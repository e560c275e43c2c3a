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


def is_hermitian(m, tol=HERMITIAN_INPUT_TOL):
    """True when m equals its conjugate transpose within tol (max entry).

    m is one square matrix or a stack of them along the last two axes.
    """
    m = np.asarray(m)
    return bool(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))) <= tol)


def _check_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantViolation(f"{name} must be square, got shape {m.shape}")
    return m


def partial_transpose(rho, subsystem):
    """Partial transpose over atom 1 or atom 2 of a 4x4 matrix or a (..., 4, 4) stack.

    subsystem is 1-based; the result has the input's shape. Rejects input
    that is not Hermitian within 1e-9 because the operation is only used
    on density matrices.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise InvariantViolation(f"partial_transpose needs 4x4 matrices, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise InvariantViolation("partial_transpose: input is not Hermitian within 1e-9")
    if subsystem not in (1, 2):
        raise InvariantViolation(f"subsystem must be 1 or 2, got {subsystem}")
    k = rho.ndim - 2
    if subsystem == 1:
        perm = tuple(range(k)) + (k + 2, k + 1, k, k + 3)
    else:
        perm = tuple(range(k)) + (k, k + 3, k + 2, k + 1)
    return rho.reshape(rho.shape[:k] + (2, 2, 2, 2)).transpose(perm).reshape(rho.shape)


def _off_norm(a):
    # Largest off-diagonal Frobenius norm over a (B, d, d) batch.
    off = a - np.einsum("bii->bi", a)[:, :, None] * np.eye(a.shape[-1])
    return np.sqrt(np.max(np.sum(np.abs(off) ** 2, axis=(1, 2))))


def jacobi_eigh(mats, vectors=False):
    """Eigenvalues (ascending) of Hermitian matrices by cyclic Jacobi rotations.

    Accepts a single (d, d) matrix or a (B, d, d) stack and sweeps until the
    off-diagonal Frobenius norm of every matrix drops below JACOBI_OFF_TOL.
    A pair (p, q) whose entry is below 1e-300 in every matrix of the batch
    is skipped, as its rotation would be the identity. Returns values, or (values, vectors)
    with eigenvectors in columns.
    """
    a = np.asarray(mats, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[None, :, :]
    a = a.copy()
    nb, d, _ = a.shape
    if vectors:
        v = np.broadcast_to(np.eye(d, dtype=complex), (nb, d, d)).copy()
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_norm(a) < JACOBI_OFF_TOL:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[:, p, q]
                mag = np.abs(apq)
                active = mag > 1e-300
                if not active.any():
                    continue
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
                if vectors:
                    vp = v[:, :, p].copy()
                    vq = v[:, :, q].copy()
                    v[:, :, p] = cc * vp - ss * np.conj(ph) * vq
                    v[:, :, q] = ss * ph * vp + cc * vq
    else:
        worst = _off_norm(a)
        if worst >= JACOBI_OFF_TOL:
            raise InvariantViolation(f"Jacobi sweep did not converge, off-diagonal norm {worst:.3e}")
    w = np.einsum("bii->bi", a).real
    order = np.argsort(w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    if vectors:
        v = np.take_along_axis(v, order[:, None, :], axis=2)
        if single:
            return w[0], v[0]
        return w, v
    if single:
        return w[0]
    return w


def eig_hermitian(m, tol=HERMITIAN_INPUT_TOL):
    """Ascending real eigenvalues of a Hermitian matrix; rejects non-Hermitian input."""
    m = _check_square(m, "matrix")
    if not is_hermitian(m, tol):
        raise InvariantViolation("eig_hermitian: input is not Hermitian within 1e-9")
    return jacobi_eigh(m)


def partial_trace(rho, keep):
    """Trace out all qubits except the 1-based indices in keep.

    Works for any register of k qubits (matrix of size 2^k). The kept
    qubits stay in their original relative order.
    """
    rho = _check_square(rho, "rho")
    dim = rho.shape[0]
    n = int(round(np.log2(dim)))
    if 2 ** n != dim:
        raise InvariantViolation(f"partial_trace needs a 2^k dimension, got {dim}")
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(keep)
    if not keep or any(k < 1 or k > n for k in keep) or len(set(keep)) != len(keep):
        raise InvariantViolation(f"keep must be distinct indices in 1..{n}, got {keep}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = []
    out_r = []
    out_c = []
    nxt = n
    for i in range(n):
        if (i + 1) in keep:
            fresh = letters[nxt]
            nxt += 1
            col.append(fresh)
            out_r.append(row[i])
            out_c.append(fresh)
        else:
            col.append(row[i])
    sub = "".join(row) + "".join(col) + "->" + "".join(out_r) + "".join(out_c)
    t = rho.reshape((2,) * (2 * n))
    m = 2 ** len(keep)
    return np.einsum(sub, t).reshape(m, m)


def purity_overlap(rho_a, rho_b):
    """Overlap tr(rho_a rho_b); the teleportation fidelity when rho_a is pure."""
    rho_a = _check_square(rho_a, "rho_a")
    rho_b = _check_square(rho_b, "rho_b")
    if rho_a.shape != rho_b.shape:
        raise InvariantViolation(f"size mismatch: {rho_a.shape} vs {rho_b.shape}")
    return float(np.real(np.trace(rho_a @ rho_b)))


def require_density_matrix(rho, context=""):
    """Raise InvariantViolation unless rho is a valid density matrix.

    Checks finiteness, Hermiticity to 1e-12, unit trace to 1e-12 and an
    eigenvalue floor of -1e-10. The floor absorbs rounding accumulated in
    long Fock sums.
    """
    where = f" ({context})" if context else ""
    rho = _check_square(rho, "rho")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvariantViolation(f"density matrix has non-finite entries{where}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > DENSITY_HERMITICITY_TOL:
        raise InvariantViolation(f"density matrix not Hermitian, deviation {herm:.3e}{where}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise InvariantViolation(f"density matrix trace {tr:.15g} != 1{where}")
    w = jacobi_eigh(rho)
    if w[0] < EIGENVALUE_FLOOR:
        raise InvariantViolation(f"density matrix eigenvalue {w[0]:.3e} below floor{where}")
    return rho
