"""Linear algebra layer: the one-pair rotation against numpy's eigvalsh
and against the general 2x2 Jacobi rotation whose bits the presets carry,
partial transpose identities, and density matrix validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav import cli, entanglement
from chaocav.linalg import (
    InvariantViolation,
    is_hermitian,
    jacobi_eigh,
    partial_transpose,
    require_density_matrix,
    tensor,
)
from conftest import random_density, random_pure_state, random_unitary

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def test_tensor_matches_kron_chain():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    c = np.eye(2, dtype=complex)
    assert np.array_equal(tensor(a, b), np.kron(a, b))
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))
    assert tensor(a).shape == (2, 2)


def test_tensor_keeps_the_bits_of_the_kron_chain_on_non_square_operands(rng):
    shapes = ((2, 3), (3, 1), (2, 2))
    ops = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]
    ops[0][0, 0] = -0.0
    ops[1][2, 0] = 5e-324 - 1e300j
    want = np.kron(np.kron(ops[0], ops[1]), ops[2])
    got = tensor(*ops)
    assert got.shape == (12, 6)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(tensor(ops[1], ops[0]).view(np.uint64),
                          np.kron(ops[1], ops[0]).view(np.uint64))


def coupled_blocks(z):
    """The one-pair blocks [[0, z], [conj(z), 0]] of the coherences z."""
    mats = np.zeros((z.size, 2, 2), dtype=complex)
    mats[:, 0, 1] = z
    mats[:, 1, 0] = np.conj(z)
    return mats


def general_rotation(mats):
    """One Jacobi rotation of the pair (0, 1) of each Hermitian 2x2 block,
    for any diagonal: the eigensolve the presets were drawn with."""
    a = np.array(mats, dtype=complex)
    apq = a[:, 0, 1]
    mag = np.abs(apq)
    active = mag > 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = (a[:, 1, 1].real - a[:, 0, 0].real) / (2.0 * mag)
        tee = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
        c = 1.0 / np.sqrt(1.0 + tee * tee)
        s = tee * c
        phase = apq / mag
    c = np.where(active, c, 1.0)[:, None]
    s = np.where(active, s, 0.0)[:, None]
    ph = np.where(active, phase, 1.0)[:, None]
    a = np.stack([c * a[:, :, 0] - s * np.conj(ph) * a[:, :, 1],
                  s * ph * a[:, :, 0] + c * a[:, :, 1]], axis=2)
    a = np.stack([c * a[:, 0] - s * ph * a[:, 1],
                  s * np.conj(ph) * a[:, 0] + c * a[:, 1]], axis=1)
    return np.sort(np.einsum("bii->bi", a).real, axis=1)


#: Coherences at and around the identity guard and the edges of the float range.
EDGE_COHERENCES = [0.0, 1e-301, -1e-301, -1e-301j, 5e-324, 2e-300, 1e-300, -1e-14, 1e-299j]


def test_jacobi_keeps_the_bits_of_the_general_rotation(tmp_path, monkeypatch):
    # every preset's doe was drawn with the general rotation; fig 2's
    # coherences are read where the sweep hands them over
    seen = []

    def record(mats):
        seen.append(mats)
        return jacobi_eigh(mats)

    monkeypatch.setattr(entanglement, "jacobi_eigh", record)
    assert cli.main(["fidelity", "--fig", "2", "--out", str(tmp_path / "fig2.csv")]) == 0
    fig2 = np.concatenate(seen)
    assert fig2.shape == (1500,)
    rng = np.random.default_rng(32)
    z = 10.0 ** rng.uniform(-310.0, 0.0, 20000) * np.exp(2j * np.pi * rng.uniform(size=20000))
    z = np.concatenate([z, EDGE_COHERENCES, fig2])
    got = jacobi_eigh(z)
    want = general_rotation(coupled_blocks(z))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_jacobi_matches_reference_on_large_batch(rng):
    # coherences z of any size; z = 0 and |z| = 1e-301 take the identity in
    # place of the rotation
    z = 10.0 ** rng.uniform(-8.0, 0.0, 1000) * np.exp(2j * np.pi * rng.uniform(size=1000))
    z[:4] = [0.0, 1e-301, -1e-301, -1e-301j]
    tiny = np.array([0.0, 1e-301, 5e-324, 2e-300], dtype=complex)
    for coherences in (z, tiny):
        got = jacobi_eigh(coherences)
        want = np.linalg.eigvalsh(coupled_blocks(coherences))
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(got.sum(axis=1))) <= 1e-14
    assert np.array_equal(jacobi_eigh(z[:4]), np.zeros((4, 2)))


def test_jacobi_diagonal_input_is_exact():
    # a zero coherence leaves the block diagonal: both eigenvalues are 0
    w = jacobi_eigh(np.zeros(3, dtype=complex))
    assert np.array_equal(w, np.zeros((3, 2)))


def test_jacobi_rejects_other_shapes_and_a_residual():
    for bad in (np.complex128(0.5), np.eye(2, dtype=complex), np.zeros((3, 2, 2), dtype=complex)):
        with pytest.raises(InvariantViolation, match=r"\(B,\) array of coherences"):
            jacobi_eigh(bad)
    # a NaN coherence leaves a NaN residual, which the check rejects
    with pytest.raises(InvariantViolation, match="off-diagonal norm"):
        jacobi_eigh(np.array([0.5, np.nan], dtype=complex))


def test_partial_transpose_bell_spectrum():
    rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    w = np.linalg.eigvalsh(partial_transpose(rho))
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
    assert np.linalg.eigvalsh(pt).shape == (0, 4)
    assert jacobi_eigh(np.zeros(0, dtype=complex)).shape == (0, 2)
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


def spoil(rho, kind):
    """A copy of the density matrix rho that fails the check named by kind."""
    rho = rho.copy()
    if kind == "trace":
        rho *= 1.5
    elif kind == "Hermitian":
        rho[0, 1] += 1e-6
    elif kind == "eigenvalue":
        rho[:] = np.diag([1.1, -0.1, 0.0, 0.0])
    else:
        rho[2, 2] = np.inf
    return rho


@pytest.mark.parametrize("kind", ["trace", "Hermitian", "eigenvalue", "finite"])
def test_stacked_check_names_the_index_of_its_one_bad_matrix(rng, kind):
    stack = np.stack([random_density(rng) for _ in range(6)])
    require_density_matrix(stack, stacked=True)
    for index in (0, 3, 5):
        bad = stack.copy()
        bad[index] = spoil(bad[index], kind)
        with pytest.raises(InvariantViolation, match=f"^density matrix {index} .*{kind}.* \\(ctx\\)$"):
            require_density_matrix(bad, context="ctx", stacked=True)
    grid = stack.reshape(2, 3, 4, 4).copy()
    grid[1, 0] = spoil(grid[1, 0], kind)
    with pytest.raises(InvariantViolation, match=f"^density matrix \\(1, 0\\) .*{kind}"):
        require_density_matrix(grid, stacked=True)


def test_stacked_check_names_the_first_failure_whatever_its_kind(rng):
    # An eigenvalue failure ahead of a trace failure is the one named.
    stack = np.stack([random_density(rng) for _ in range(5)])
    stack[1] = spoil(stack[1], "eigenvalue")
    stack[3] = spoil(stack[3], "trace")
    with pytest.raises(InvariantViolation, match="^density matrix 1 eigenvalue"):
        require_density_matrix(stack, stacked=True)
    stack[1] = spoil(stack[1], "finite")
    with pytest.raises(InvariantViolation, match="^density matrix 1 has non-finite"):
        require_density_matrix(stack, stacked=True)


def test_stacked_check_keeps_the_per_matrix_verdicts(rng):
    # Lowest eigenvalues within the eigensolver's rounding (about 1e-16) of
    # the -1e-10 floor: the batched eigvalsh gives each matrix the bits it
    # gets alone, so the stacked check passes and fails the same matrices.
    mats = []
    for shift in np.linspace(-5e-16, 5e-16, 21):
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        w = np.array([-1e-10 + shift, 0.2, 0.3, 0.5 + 1e-10 - shift])
        mats.append((u * w) @ u.conj().T)
    mats = np.stack(mats)
    mats = 0.5 * (mats + np.swapaxes(mats.conj(), 1, 2))
    lows = np.linalg.eigvalsh(mats)
    alone = np.stack([np.linalg.eigvalsh(m) for m in mats])
    assert np.array_equal(lows.view(np.uint64), alone.view(np.uint64))
    verdicts = set()
    for rho in mats:
        try:
            require_density_matrix(rho)
            single = True
        except InvariantViolation:
            single = False
        others = np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (3, 4, 4)).copy()
        others[1] = rho
        try:
            require_density_matrix(others, stacked=True)
            stacked = True
        except InvariantViolation as exc:
            assert str(exc).startswith("density matrix 1 eigenvalue")
            stacked = False
        assert single == stacked
        verdicts.add(single)
    assert verdicts == {True, False}


def test_stacked_check_accepts_valid_and_empty_stacks(rng):
    stack = np.stack([random_density(rng) for _ in range(8)]).reshape(2, 4, 4, 4)
    assert require_density_matrix(stack, stacked=True) is stack
    require_density_matrix(np.zeros((0, 4, 4), dtype=complex), stacked=True)
    with pytest.raises(InvariantViolation, match="square"):
        require_density_matrix(np.ones((3, 2, 4), dtype=complex), stacked=True)


def test_require_density_matrix_takes_strided_and_empty_input(rng):
    # A transposed view has no contiguous last axis, and a 0x0 matrix has
    # nothing to reduce; neither may surface as a numpy ValueError.
    rho = random_density(rng)
    require_density_matrix(rho.T)
    require_density_matrix(np.stack([rho, rho]).transpose(0, 2, 1), stacked=True)
    with pytest.raises(InvariantViolation, match="trace"):
        require_density_matrix(np.zeros((0, 0), dtype=complex))


def test_is_hermitian_tolerance():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-10
    assert is_hermitian(m)
    m[0, 1] = 1e-8
    assert not is_hermitian(m)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_eigenvalue_sum_equals_trace(seed):
    # the trace of a one-pair block is 0, and its eigenvalues are -|z|, |z|
    rng = np.random.default_rng(seed)
    z = 10.0 ** rng.uniform(-299.0, 0.0, 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    w = jacobi_eigh(z)
    mag = np.abs(z)
    assert np.all(np.abs(w.sum(axis=1)) <= 1e-15 * mag)
    assert np.all(np.abs(w - np.stack([-mag, mag], axis=1)) <= 2e-15 * mag[:, None])


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
    w0 = np.linalg.eigvalsh(partial_transpose(rho))
    w1 = np.linalg.eigvalsh(partial_transpose(rotated))
    assert np.max(np.abs(w0 - w1)) <= 1e-9


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_pure_state_marginals_share_spectrum(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(rng)
    rho = np.outer(psi, psi.conj())
    pair = rho.reshape(2, 2, 2, 2)
    marginal_1 = np.einsum("abcb->ac", pair)
    marginal_2 = np.einsum("abad->bd", pair)
    wa, wb = np.linalg.eigvalsh(np.stack([marginal_1, marginal_2]))
    assert np.max(np.abs(wa - wb)) <= 1e-10
