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

from chaocav.dynamics import AtomicInit, amplitude_table, averaged_q, sector_basis, table_density
from chaocav.field import coherent_weights
from chaocav.sweep import sweep_grid
from chaocav.teleport import (
    BELL_OUTCOMES,
    WEIGHT_FLOOR,
    UnknownQubit,
    bell_project_teleport,
    bell_projection,
    kappa_sums,
)
from conftest import BELL_INIT, four_rows, random_density

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


def per_branch_projection(channel_rho, unknown):
    # The projection written out one branch at a time: each 8x8 projector
    # built here, applied on both sides and traced over atoms 1 and 2.
    chi = unknown.as_vector()
    rho3 = np.kron(np.outer(chi, np.conj(chi)), channel_rho)
    branches = []
    for _, vec, correction in BELL_OUTCOMES:
        proj8 = np.kron(np.outer(vec, np.conj(vec)), np.eye(2, dtype=complex))
        selected = proj8 @ rho3 @ proj8
        weight = float(np.trace(selected).real)
        if weight <= WEIGHT_FLOOR:
            branches.append((0.0, float("nan"), np.eye(2, dtype=complex) / 2.0))
            continue
        bob_raw = np.einsum("abiabj->ij", selected.reshape((2,) * 6)) / weight
        bob = correction @ bob_raw @ np.conj(correction.T)
        branches.append((weight, float(np.real(np.conj(chi) @ bob @ chi)), bob))
    return branches


def test_stacked_projection_equals_the_per_branch_loop_bit_for_bit(rng):
    gg = np.zeros((4, 4), dtype=complex)
    gg[0, 0] = 1.0
    cases = [(random_density(rng, rank=rank), random_qubit(rng))
             for rank in (1, 2, 3, 4) for _ in range(10)]
    # Teleporting |g> through |gg><gg| puts both psi branches below WEIGHT_FLOOR.
    cases += [(gg, random_qubit(rng)), (gg, UnknownQubit(1.0, 0.0)), (BELL_RHO, random_qubit(rng))]
    floored = []
    for channel, unknown in cases:
        got = bell_project_teleport(channel, unknown)
        for outcome, (weight, fidelity, bob) in zip(got, per_branch_projection(channel, unknown)):
            assert np.float64(outcome.outcome_weight).tobytes() == np.float64(weight).tobytes()
            assert np.float64(outcome.fidelity).tobytes() == np.float64(fidelity).tobytes()
            assert outcome.bob_state.tobytes() == bob.tobytes()
            if outcome.outcome_weight == 0.0:
                floored.append(outcome.bell_label)
    assert floored == ["psi_plus", "psi_minus"]


def test_stacked_kernel_equals_one_state_projections_bit_for_bit(rng):
    # 60 random complex channels (neither Hermitian nor positive, so some
    # branch weights are negative and floored), each with its own unknown,
    # plus |gg><gg| teleporting |g>, whose psi branches fall below
    # WEIGHT_FLOOR.
    channels = rng.normal(size=(61, 4, 4)) + 1j * rng.normal(size=(61, 4, 4))
    channels /= np.trace(channels, axis1=1, axis2=2)[:, None, None]
    unknowns = [random_qubit(rng) for _ in range(60)] + [UnknownQubit(1.0, 0.0)]
    channels[60] = 0.0
    channels[60, 0, 0] = 1.0
    weights, bobs, fidelities = bell_projection(channels, [u.as_vector() for u in unknowns])
    assert weights.shape == fidelities.shape == (61, 4) and bobs.shape == (61, 4, 2, 2)
    for k, (channel, unknown) in enumerate(zip(channels, unknowns)):
        one = bell_project_teleport(channel, unknown)
        loop = per_branch_projection(channel, unknown)
        for j, (outcome, (weight, fidelity, bob)) in enumerate(zip(one, loop)):
            for got in (np.float64(outcome.outcome_weight), weights[k, j]):
                assert got.tobytes() == np.float64(weight).tobytes()
            for got in (np.float64(outcome.fidelity), fidelities[k, j]):
                assert got.tobytes() == np.float64(fidelity).tobytes()
            assert outcome.bob_state.tobytes() == bobs[k, j].tobytes() == bob.tobytes()
    assert np.array_equal(weights[60, 2:], [0.0, 0.0])
    assert np.all(np.isnan(fidelities[60, 2:]))
    assert np.array_equal(bobs[60, 2:], [np.eye(2) / 2.0] * 2)
    assert np.count_nonzero(weights > WEIGHT_FLOOR) >= 120


def test_closed_form_matches_projection_on_grid():
    init = BELL_INIT
    field = coherent_weights(5.0)
    unknown = UnknownQubit(0.95, math.sqrt(1.0 - 0.95**2))
    gammas = np.linspace(0.0, 1.0, 5)
    ts = np.linspace(0.0, 3.0, 5)
    grid = sweep_grid(ts, gammas, init, field, unknown)
    assert np.all(grid.kappa1 >= 0.0) and np.all(grid.kappa4 >= 0.0)
    outcome_weight = grid.weight / grid.pre_norm_trace
    for i, gamma in enumerate(gammas):
        for k, t in enumerate(ts):
            k2 = grid.kappa2[i, k]
            bob = np.array([[grid.kappa1[i, k], k2], [np.conj(k2), grid.kappa4[i, k]]])
            bob /= grid.weight[i, k]
            basis = sector_basis(t, init, field, 1.0)
            rho, _ = table_density(amplitude_table(basis, averaged_q(t, gamma)))
            projected = bell_project_teleport(rho[0], unknown)[0]
            assert np.max(np.abs(bob - projected.bob_state)) <= 1e-9
            assert abs(grid.fidelity[i, k] - projected.fidelity) <= 1e-9
            assert abs(outcome_weight[i, k] - projected.outcome_weight) <= 1e-9


@pytest.mark.parametrize("init", [AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)),
                                  AtomicInit(0.0, 0.6, 0.8j, 0.0)], ids=["gg_ee", "ge_eg"])
def test_one_pair_sums_equal_the_four_row_formula(init):
    # A one-pair table leaves its zero rows out of the sums; the four-row
    # formula multiplies them in. == counts -0 and +0 as equal.
    ts = np.linspace(0.0, 3.0, 31)
    table = amplitude_table(sector_basis(ts, init, coherent_weights(3.0), 1.3),
                            averaged_q(ts, 0.4))
    assert table.photon.shape[1] == 2
    a, b, c, d = np.moveaxis(four_rows(table), 1, 0)
    for unknown in (UnknownQubit(0.6 + 0.3j, complex(-0.4, math.sqrt(0.39))),
                    UnknownQubit(0.95, math.sqrt(0.0975))):
        au, bu = unknown.alpha_u, unknown.beta_u
        top = au * a + bu * c
        bot = au * b + bu * d
        want = (0.5 * np.sum(np.abs(top) ** 2, axis=1), 0.5 * np.sum(top * np.conj(bot), axis=1),
                0.5 * np.sum(np.abs(bot) ** 2, axis=1))
        for got, ref in zip(kappa_sums(table, unknown), want):
            assert np.all(got == ref)


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
