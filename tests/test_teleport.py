"""Teleportation through the two-atom channel.

The Bell-projection route is the reference: it works on any explicit
channel matrix and is checked here against hand-computable channels
(perfect Bell pair, white noise, ground-state product) before the closed
form that sweep_grid reports is held to it.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav.dynamics import AtomicInit, ModelParams, amplitude_table, atomic_density
from chaocav.field import coherent_weights
from chaocav.sweep import sweep_grid
from chaocav.teleport import (
    BELL_OUTCOMES,
    WEIGHT_FLOOR,
    UnknownQubit,
    bell_project_teleport,
    kappa_sums,
)
from conftest import random_density

# phi_plus fidelity at t = 0 for the 0.2 preparation and alpha_u = 0.95,
# frozen from |a^2 c00 + b^2 c11|^2 / (|a c00|^2 + |b c11|^2)
FID_T0_POINT_TWO = 0.587452706928638

BELL_RHO = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2.0


def random_qubit(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return UnknownQubit(a / norm, b / norm)


def test_unknown_qubit_validation():
    with pytest.raises(ValueError, match="norm"):
        UnknownQubit(1.0, 1.0)
    with pytest.raises(ValueError):
        UnknownQubit(0.0, 0.0)
    q = UnknownQubit(0.6, 0.8j)
    assert np.array_equal(q.as_vector(), np.array([0.6, 0.8j]))


def test_bell_channel_teleports_perfectly(rng):
    for _ in range(50):
        q = random_qubit(rng)
        outcomes = bell_project_teleport(BELL_RHO, q)
        for out in outcomes:
            assert abs(out.fidelity - 1.0) <= 1e-10
            assert abs(out.outcome_weight - 0.25) <= 1e-10
        assert abs(sum(o.outcome_weight for o in outcomes) - 1.0) <= 1e-10


def test_white_noise_channel_gives_half(rng):
    rho = np.eye(4, dtype=complex) / 4.0
    for _ in range(10):
        q = random_qubit(rng)
        for out in bell_project_teleport(rho, q):
            assert abs(out.fidelity - 0.5) <= 1e-10
            assert np.max(np.abs(out.bob_state - np.eye(2) / 2.0)) <= 1e-10


def test_ground_product_channel_breaks_teleportation():
    # |gg> channel: the phi branches hand Bob |g> up to the correction,
    # so the fidelity collapses to the |alpha_u|^2 overlap
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    q = UnknownQubit(0.95, math.sqrt(1.0 - 0.95**2))
    outcomes = {o.bell_label: o for o in bell_project_teleport(rho, q)}
    for label in ("phi_plus", "phi_minus"):
        assert abs(outcomes[label].fidelity - 0.95**2) <= 1e-10
    for label in ("psi_plus", "psi_minus"):
        assert abs(outcomes[label].fidelity - (1.0 - 0.95**2)) <= 1e-10


def test_branch_weights_sum_to_one(rng):
    for _ in range(10):
        rho = random_density(rng)
        q = random_qubit(rng)
        outcomes = bell_project_teleport(rho, q)
        assert abs(sum(o.outcome_weight for o in outcomes) - 1.0) <= 1e-10
        for out in outcomes:
            assert -1e-12 <= out.fidelity <= 1.0 + 1e-12
            assert abs(np.trace(out.bob_state) - 1.0) <= 1e-10


def test_degenerate_branch_routes():
    # the Bell measurement pairs the unknown qubit with atom 1, so an |eg>
    # channel and a |g> qubit give both phi branches zero weight
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    q = UnknownQubit(1.0, 0.0)
    outcomes = {o.bell_label: o for o in bell_project_teleport(rho, q)}
    for label in ("phi_plus", "phi_minus"):
        assert outcomes[label].outcome_weight == 0.0
        assert math.isnan(outcomes[label].fidelity)
        assert np.array_equal(outcomes[label].bob_state, np.eye(2) / 2.0)
    assert abs(outcomes["psi_plus"].outcome_weight - 0.5) <= 1e-12
    # the sweep reports nan too; at t = 0 an |eg> preparation feeds no
    # amplitude into the phi_plus sums
    init = AtomicInit(0.0, 0.0, 1.0, 0.0)
    grid = sweep_grid([0.0], [0.0], init, coherent_weights(1.0), q)
    assert grid.weight[0, 0] <= WEIGHT_FLOOR
    assert math.isnan(grid.fidelity[0, 0])


def test_closed_form_matches_projection_on_grid():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(5.0)
    unknown = UnknownQubit(0.95, math.sqrt(1.0 - 0.95**2))
    gammas = np.linspace(0.0, 1.0, 5)
    ts = np.linspace(0.0, 3.0, 5)
    grid = sweep_grid(ts, gammas, init, field, unknown)
    outcome_weight = grid.weight / grid.pre_norm_trace
    for i, gamma in enumerate(gammas):
        params = ModelParams(gamma=float(gamma), omega_rabi=1.0)
        for k, t in enumerate(ts):
            k2 = grid.kappa2[i, k]
            bob = np.array([[grid.kappa1[i, k], k2], [np.conj(k2), grid.kappa4[i, k]]])
            bob /= grid.weight[i, k]
            state = atomic_density(t, init, field, params)
            projected = bell_project_teleport(state.rho, unknown)[0]
            assert np.max(np.abs(bob - projected.bob_state)) <= 1e-9
            assert abs(grid.fidelity[i, k] - projected.fidelity) <= 1e-9
            assert abs(outcome_weight[i, k] - projected.outcome_weight) <= 1e-9


def test_frozen_initial_fidelity():
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    field = coherent_weights(5.0)
    unknown = UnknownQubit(0.95, math.sqrt(1.0 - 0.95**2))
    fidelity = sweep_grid([0.0], [0.5], init, field, unknown).fidelity[0, 0]
    assert abs(fidelity - FID_T0_POINT_TWO) <= 1e-9
    # independent evaluation: at t = 0 the channel is the pure preparation
    aa = abs(0.95 * 0.2) ** 2
    bb = abs(math.sqrt(1.0 - 0.95**2) * math.sqrt(0.96)) ** 2
    direct = (abs(0.95**2 * 0.2 + (1.0 - 0.95**2) * math.sqrt(0.96)) ** 2) / (aa + bb)
    assert abs(fidelity - direct) <= 1e-12


def test_kappa_conjugate_structure_corrected():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(3.0)
    table = amplitude_table(np.linspace(0.0, 2.0, 5), init, field,
                            ModelParams(gamma=0.3))
    unknown = UnknownQubit(0.7, math.sqrt(0.51) * 1j)
    k1, k2, k3, k4 = kappa_sums(table, unknown)
    assert np.array_equal(k3, np.conj(k2))
    assert np.all(k1 >= 0.0) and np.all(k4 >= 0.0)


def test_bell_outcome_table_shapes():
    assert [label for label, _, _ in BELL_OUTCOMES] == [
        "phi_plus", "phi_minus", "psi_plus", "psi_minus"]
    for _, vec, corr in BELL_OUTCOMES:
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15
        assert np.max(np.abs(corr @ corr.conj().T - np.eye(2))) <= 1e-15


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_fidelity_and_weights_stay_bounded(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    q = random_qubit(rng)
    for out in bell_project_teleport(rho, q):
        if not math.isnan(out.fidelity):
            assert -1e-12 <= out.fidelity <= 1.0 + 1e-12
        assert 0.0 <= out.outcome_weight <= 1.0 + 1e-12
