"""Linear algebra layer: eigensolver against an independent reference,
partial transpose identities, and density matrix validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav.linalg import (
    InvariantViolation,
    is_hermitian,
    jacobi_eigh,
    partial_transpose,
    require_density_matrix,
    tensor,
)
from conftest import random_density, random_hermitian, random_pure_state, random_unitary

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def test_tensor_matches_kron_chain():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    c = np.eye(2, dtype=complex)
    assert np.array_equal(tensor(a, b), np.kron(a, b))
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))
    assert tensor(a).shape == (2, 2)


def test_jacobi_matches_reference_on_large_batch(rng):
    dense = np.array([random_hermitian(rng) for _ in range(1000)])
    def x_shaped(pairs):
        mats = np.array([np.diag(rng.normal(size=4)).astype(complex) for _ in range(200)])
        for p, q in pairs:
            mats[:, p, q] = rng.normal(size=200) + 1j * rng.normal(size=200)
            mats[:, q, p] = np.conj(mats[:, p, q])
        return mats

    # only the (1, 2) pair is nonzero, so every other pair of every sweep
    # takes the identity update in every matrix
    one_pair = x_shaped([(1, 2)])
    # rotations keep the X shape, so (1, 2) stays zero in half the matrices
    # and must still rotate the other half
    half = x_shaped([(0, 3), (1, 2)])
    half[::2, 1, 2] = half[::2, 2, 1] = 0.0
    for mats in (dense, one_pair, half):
        got = jacobi_eigh(mats)
        want = np.linalg.eigvalsh(mats)
        assert np.max(np.abs(got - want)) <= 1e-11
        traces = np.einsum("bii->b", mats).real
        assert np.max(np.abs(got.sum(axis=1) - traces)) <= 1e-10


def test_jacobi_diagonal_input_is_exact():
    d = np.diag([3.0, -1.0, 0.5, 2.0]).astype(complex)
    w = jacobi_eigh(d[None])
    assert np.array_equal(w, np.array([[-1.0, 0.5, 2.0, 3.0]]))


def test_partial_transpose_bell_spectrum():
    rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    w = jacobi_eigh(partial_transpose(rho)[None])[0]
    assert np.max(np.abs(w - np.array([-0.5, 0.5, 0.5, 0.5]))) <= 1e-12


def test_partial_transpose_involution(rng):
    for _ in range(25):
        rho = random_density(rng)
        again = partial_transpose(partial_transpose(rho))
        assert np.array_equal(again, rho)


def test_partial_transpose_batch_agrees_with_single(rng):
    rhos = np.array([random_density(rng) for _ in range(12)])
    batch = partial_transpose(rhos)
    grid = partial_transpose(rhos.reshape(3, 4, 4, 4))
    assert grid.shape == (3, 4, 4, 4)
    assert np.array_equal(grid.reshape(batch.shape), batch)
    for i in range(12):
        assert np.array_equal(batch[i], partial_transpose(rhos[i]))


def test_empty_batch_gives_an_empty_result():
    # A group whose every point drained hands the eigensolve no matrices.
    empty = np.zeros((0, 4, 4), dtype=complex)
    pt = partial_transpose(empty)
    assert pt.shape == (0, 4, 4)
    assert jacobi_eigh(pt).shape == (0, 4)
    assert is_hermitian(empty)


def test_partial_transpose_input_checks():
    with pytest.raises(InvariantViolation):
        partial_transpose(np.eye(3, dtype=complex))
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(InvariantViolation):
        partial_transpose(bad)
    # the same checks hold for every matrix of a stack
    stack = np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (5, 4, 4)).copy()
    with pytest.raises(InvariantViolation):
        partial_transpose(stack[:, :3, :3])
    with pytest.raises(InvariantViolation):
        partial_transpose(np.ones(4, dtype=complex))
    stack[3, 0, 1] = 1.0
    with pytest.raises(InvariantViolation):
        partial_transpose(stack)


def test_require_density_matrix_rejects_non_square():
    for bad in (np.ones(4, dtype=complex), np.ones((2, 4), dtype=complex),
                np.ones((2, 2, 2), dtype=complex)):
        with pytest.raises(InvariantViolation, match="square"):
            require_density_matrix(bad)


def test_require_density_matrix_accepts_valid(rng):
    for _ in range(10):
        require_density_matrix(random_density(rng))


def test_require_density_matrix_rejects_bad_trace():
    with pytest.raises(InvariantViolation, match="trace"):
        require_density_matrix(np.eye(4, dtype=complex))


def test_require_density_matrix_rejects_nonhermitian():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 1e-6
    with pytest.raises(InvariantViolation, match="Hermitian"):
        require_density_matrix(rho)


def test_require_density_matrix_rejects_negative_eigenvalue():
    rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvariantViolation, match="eigenvalue"):
        require_density_matrix(rho)


def test_require_density_matrix_rejects_nonfinite():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[2, 2] = np.nan
    with pytest.raises(InvariantViolation, match="finite"):
        require_density_matrix(rho)


def test_is_hermitian_tolerance():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-10
    assert is_hermitian(m)
    m[0, 1] = 1e-8
    assert not is_hermitian(m)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_eigenvalue_sum_equals_trace(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng)
    w = jacobi_eigh(m[None])[0]
    assert abs(w.sum() - np.trace(m).real) <= 1e-10


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_partial_transpose_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    pt = partial_transpose(rho)
    assert abs(np.trace(pt) - np.trace(rho)) <= 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_local_rotation_keeps_partial_transpose_spectrum(seed):
    # local unitaries commute with the transpose on the other factor
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    u = tensor(random_unitary(rng), np.eye(2))
    rotated = u @ rho @ u.conj().T
    w0 = jacobi_eigh(partial_transpose(rho)[None])[0]
    w1 = jacobi_eigh(partial_transpose(rotated)[None])[0]
    assert np.max(np.abs(w0 - w1)) <= 1e-9


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_pure_state_marginals_share_spectrum(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng)
    rho = np.outer(psi, psi.conj())
    pair = rho.reshape(2, 2, 2, 2)
    marginal_1 = np.einsum("abcb->ac", pair)
    marginal_2 = np.einsum("abad->bd", pair)
    wa, wb = jacobi_eigh(np.stack([marginal_1, marginal_2]))
    assert np.max(np.abs(wa - wb)) <= 1e-10
