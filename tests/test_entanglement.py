"""Degree of entanglement: closed-form benchmarks and sweep bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav.dynamics import AtomicInit, amplitude_table, averaged_q, sector_basis, table_density
from chaocav.entanglement import negativity
from chaocav.field import coherent_weights
from chaocav.linalg import InvariantViolation, tensor
from chaocav.sweep import sweep_grid
from conftest import BELL_INIT, random_density, random_pure_state, random_unitary

# 2 * |a b| for a = 0.2, b = sqrt(0.96), frozen from the direct product
DOE_POINT_TWO = 0.39191835884530857


def pure_doe(vec):
    vec = np.asarray(vec, dtype=complex)
    return negativity(np.outer(vec, vec.conj()))


def test_product_states_are_unentangled():
    for vec in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                np.kron([0.6, 0.8], [1 / math.sqrt(2), 1j / math.sqrt(2)])):
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        assert pure_doe(v) <= 1e-12


def test_bell_states_are_maximal():
    s = 1.0 / math.sqrt(2.0)
    for vec in ([s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]):
        assert abs(pure_doe(vec) - 1.0) <= 1e-12


@pytest.mark.parametrize("phase", [1.0, 1j, np.exp(0.3j)])
def test_two_component_superposition_closed_form(phase):
    # a|gg> + b|ee> carries exactly 2|ab| regardless of relative phase
    for theta in np.linspace(0.0, math.pi / 2.0, 20):
        a, b = math.cos(theta), math.sin(theta)
        got = pure_doe([a, 0.0, 0.0, b * phase])
        assert abs(got - 2.0 * a * b) <= 1e-10
        got_sym = pure_doe([0.0, a, b * phase, 0.0])
        assert abs(got_sym - 2.0 * a * b) <= 1e-10


def test_frozen_initial_point():
    got = pure_doe([0.2, 0.0, 0.0, math.sqrt(0.96)])
    assert abs(got - DOE_POINT_TWO) <= 1e-10
    assert abs(got - 2.0 * 0.2 * math.sqrt(0.96)) <= 1e-10


def test_initial_channel_state_matches_preparation_doe():
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    basis = sector_basis(0.0, init, coherent_weights(5.0), 1.0)
    rho, _ = table_density(amplitude_table(basis, averaged_q(0.0, 0.5)))
    assert abs(negativity(rho[0]) - DOE_POINT_TWO) <= 1e-9


def test_werner_family_closed_form():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
    pure = np.outer(bell, bell.conj())
    for w in np.linspace(0.0, 1.0, 21):
        rho = w * pure + (1.0 - w) * np.eye(4) / 4.0
        want = max(0.0, (3.0 * w - 1.0) / 2.0)
        assert abs(negativity(rho) - want) <= 1e-10


def test_local_unitaries_do_not_change_doe(rng):
    for _ in range(200):
        psi = random_pure_state(rng)
        rho = np.outer(psi, psi.conj())
        u = tensor(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rotated) - negativity(rho)) <= 1e-9


def test_sweep_ordering_and_fields():
    init = BELL_INIT
    field = coherent_weights(2.0)
    ts = np.array([0.0, 0.5, 1.0])
    gs = np.array([0.2, 0.7])
    grid = sweep_grid(ts, gs, init, field)
    assert grid.doe.shape == grid.pre_norm_trace.shape == (2, 3)
    assert np.all((grid.doe >= 0.0) & (grid.doe <= 1.0))
    assert np.all((grid.pre_norm_trace > 0.0) & (grid.pre_norm_trace <= 1.0 + 1e-12))
    assert np.all(np.abs(grid.doe[:, 0] - 1.0) <= 1e-9)  # Bell preparation at t = 0


def test_sweep_matches_single_point_evaluation():
    init = BELL_INIT
    field = coherent_weights(2.0)
    grid = sweep_grid(np.array([1.3]), np.array([0.4]), init, field)
    basis = sector_basis(1.3, init, field, 1.0)
    rho, _ = table_density(amplitude_table(basis, averaged_q(1.3, 0.4)))
    assert abs(grid.doe[0, 0] - negativity(rho[0])) <= 1e-12


def test_rejects_invalid_input():
    with pytest.raises(InvariantViolation):
        negativity(np.eye(3, dtype=complex) / 3.0)
    skew = np.eye(4, dtype=complex) / 4.0
    skew[0, 1] = 0.5
    with pytest.raises(InvariantViolation):
        negativity(skew)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_doe_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    assert 0.0 <= negativity(random_density(rng)) <= 1.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=0.0, max_value=1.0))
def test_mixing_with_identity_never_raises_doe(seed, w):
    # adding white noise can only degrade entanglement
    rng = np.random.default_rng(seed)
    rho = random_density(rng, rank=1)
    noisy = w * rho + (1.0 - w) * np.eye(4) / 4.0
    assert negativity(noisy) <= negativity(rho) + 1e-9
