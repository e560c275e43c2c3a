"""Closed-form channel amplitudes: the hand-rolled erf_array, the averaged
phase factor, sector amplitudes, photon regrouping and the reduced density
matrix.

Reference values were frozen from independent evaluations (math.erf, the
direct formula for the average, explicit 4x4 outer products).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav.dynamics import (
    AtomicInit,
    ModelParams,
    amplitude_table,
    atomic_density,
    averaged_q,
    deterministic_density,
    deterministic_table,
    erf_array,
    table_density,
    _sector_amplitudes,
)
from chaocav.field import coherent_weights
from chaocav.linalg import require_density_matrix

ERF_ONE = 0.8427007929497149
Q_ONE_HALF = 0.6519338391203583  # averaged_q(1.0, 0.5), frozen from the direct formula


# ---------------------------------------------------------------- erf

def erf1(x):
    return float(erf_array(np.array([x]))[0])


def test_erf_frozen_point():
    assert abs(erf1(1.0) - ERF_ONE) <= 1e-12


ERF_EDGES = [0.0, -0.0, 3.0, -3.0, 3.0 + 1e-12, 3.0 - 1e-12, -3.0 - 1e-12, -3.0 + 1e-12,
             6.0, -6.0, 6.0 - 1e-12, -0.37, -1.9, -4.2, -5.5, 1e-300, 12.0, -1e5]


def test_erf_matches_reference_grid():
    xs = np.concatenate([ERF_EDGES, np.linspace(-8.0, 8.0, 20001)])
    got = erf_array(xs)
    want = np.array([math.erf(x) for x in xs.tolist()])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_erf_array_is_bit_equal_to_scalar_erf():
    # the branch masks must not let neighbours change a point's bits: the
    # whole array equals each point evaluated on its own
    xs = np.concatenate([ERF_EDGES, np.linspace(-8.0, 8.0, 20001)])
    got = erf_array(xs)
    want = np.array([erf1(x) for x in xs.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    grid = xs[:18].reshape(3, 6)
    assert np.array_equal(erf_array(grid), want[:18].reshape(3, 6))


def test_erf_odd_symmetry_is_exact():
    xs = np.array([0.3, 1.7, 2.9999, 3.0001, 5.5, 7.0])
    assert np.array_equal(erf_array(-xs), -erf_array(xs))
    assert erf1(0.0) == 0.0


def test_erf_saturates_beyond_six():
    assert erf1(6.0) == 1.0
    assert erf1(-7.3) == -1.0
    # the truncation error committed there is below double precision noise
    assert abs(1.0 - math.erf(6.0)) < 1e-16


@pytest.mark.parametrize("edge", [3.0, 6.0])
def test_erf_continuous_across_branch_switches(edge):
    eps = 1e-9
    assert abs(erf1(edge - eps) - erf1(edge + eps)) <= 1e-12


# ---------------------------------------------------------------- averaged factor

def test_averaged_q_frozen_value():
    assert abs(averaged_q(1.0, 0.5) - Q_ONE_HALF) <= 1e-12
    direct = math.exp(-0.5 * math.sqrt(math.pi * 0.5) * math.erf(math.sqrt(0.5)))
    assert abs(averaged_q(1.0, 0.5) - direct) <= 1e-14


def test_averaged_q_limits_are_exact():
    assert averaged_q(0.0, 3.7) == 1.0
    ts = np.linspace(0.0, 50.0, 11)
    assert np.array_equal(averaged_q(ts, 0.0), np.ones(11))


def test_averaged_q_monotone():
    ts = np.linspace(0.0, 20.0, 201)
    q = averaged_q(ts, 0.8)
    assert np.all(np.diff(q) < 0.0)
    at_fixed_t = [averaged_q(2.0, g) for g in (0.1, 0.3, 0.6, 1.0)]
    assert all(a > b for a, b in zip(at_fixed_t, at_fixed_t[1:]))
    assert np.all(q > 0.0) and np.all(q <= 1.0)


def test_averaged_q_rejects_bad_arguments():
    with pytest.raises(ValueError):
        averaged_q(1.0, -0.1)
    with pytest.raises(ValueError):
        averaged_q(-1.0, 0.5)


@pytest.mark.parametrize("t, gamma", [
    (math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf),
    (np.array([0.0, math.nan]), 0.5), (1.0, np.array([0.2, math.nan])),
])
def test_averaged_q_rejects_non_finite_arguments(t, gamma):
    with pytest.raises(ValueError, match="finite"):
        averaged_q(t, gamma)


def test_averaged_q_grid_equals_per_gamma_rows():
    ts = np.linspace(0.0, 10.0, 201)
    gammas = np.linspace(0.0, 1.0, 21)
    grid = averaged_q(np.broadcast_to(ts, (gammas.size, ts.size)), gammas[:, None])
    rows = np.stack([averaged_q(ts, g) for g in gammas])
    scalar = np.array([[averaged_q(float(t), float(g)) for t in ts] for g in gammas])
    assert np.array_equal(grid, rows)
    assert np.array_equal(grid, scalar)


# ---------------------------------------------------------------- configuration objects

def test_atomic_init_norm_enforcement():
    with pytest.raises(ValueError, match="norm"):
        AtomicInit(1.0, 1.0, 0.0, 0.0)
    AtomicInit(1.0, 1.0, 0.0, 0.0, enforce_norm=False)  # raw amplitudes allowed
    bell = AtomicInit.bell_phi_plus()
    assert abs(bell.norm_squared() - 1.0) <= 1e-15
    vec = AtomicInit(0, 0, 0, 1).as_vector()
    assert vec.dtype == complex
    assert np.array_equal(vec, np.array([0, 0, 0, 1], dtype=complex))


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(gamma=-0.5)
    with pytest.raises(ValueError):
        ModelParams(gamma=float("nan"))
    with pytest.raises(ValueError):
        ModelParams(g0=float("inf"))


# ---------------------------------------------------------------- amplitude tables

def small_setup(gamma=0.3, omega=1.0):
    return (AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)),
            coherent_weights(2.0),
            ModelParams(gamma=gamma, omega_rabi=omega))


def test_photon_regrouping_aligns_with_sectors():
    init, field, params = small_setup()
    ts = np.linspace(0.0, 3.0, 7)
    table = amplitude_table(ts, init, field, params)
    # the sector quadruples straight from the closed form
    n_sec = field.n_max + 2
    w_ext = np.append(field.weights, [0.0, 0.0])
    q = averaged_q(ts, params.gamma).astype(complex)[:, None]
    ep = np.exp(-1j * params.omega_rabi * ts)[:, None]
    amp_a, amp_b, amp_c, amp_d = _sector_amplitudes(np.arange(n_sec), q, q, ep,
                                                    np.conj(ep), init, w_ext)
    assert table.photon.shape == (ts.size, 4, n_sec + 1)
    assert np.array_equal(table.photon_a[:, 0], table.ground)
    assert np.array_equal(table.photon_a[:, 1:], amp_a)
    assert np.array_equal(table.photon_b[:, :n_sec], amp_b)
    assert np.array_equal(table.photon_c[:, :n_sec], amp_c)
    assert np.array_equal(table.photon_d[:, :n_sec - 1], amp_d[:, 1:])
    assert np.all(amp_d[:, 0] == 0.0)  # |ee,-1> does not exist
    # the slots no sector reaches stay empty
    assert np.all(table.photon_b[:, n_sec] == 0.0) and np.all(table.photon_c[:, n_sec] == 0.0)
    assert np.all(table.photon_d[:, n_sec - 1:] == 0.0)
    views = (table.photon_a, table.photon_b, table.photon_c, table.photon_d)
    for k, view in enumerate(views):
        assert np.shares_memory(view, table.photon)
        assert np.array_equal(view, table.photon[:, k])
    # the density read straight from the photon array equals the stacked route
    v = np.stack(views, axis=1)
    rho = np.einsum("tim,tjm->tij", v, np.conj(v))
    pre = np.einsum("tii->t", rho).real
    got_rho, got_pre = table_density(table)
    assert np.array_equal(got_pre, pre)
    assert np.array_equal(got_rho, rho / pre[:, None, None])


def test_initial_state_is_reproduced():
    for init in (AtomicInit.bell_phi_plus(),
                 AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)),
                 AtomicInit(0.5, 0.5j, -0.5, 0.5j)):
        for gamma in (0.0, 0.5):
            field = coherent_weights(3.0)
            state = atomic_density(0.0, init, field, ModelParams(gamma=gamma))
            vec = init.as_vector()
            want = np.outer(vec, vec.conj())
            assert np.max(np.abs(state.rho - want)) <= 1e-9
            assert abs(state.pre_norm_trace - 1.0) <= 1e-11


def test_zero_coupling_keeps_state_frozen():
    # gamma = 0 freezes the averaged field coupling; with the spin exchange
    # also off nothing moves at all
    init, field, _ = small_setup()
    params = ModelParams(gamma=0.0, omega_rabi=0.0)
    state = atomic_density(np.linspace(0.0, 8.0, 9), init, field, params)
    dev = np.max(np.abs(state.rho - state.rho[0]))
    assert dev <= 1e-12


def test_averaged_gamma_zero_equals_decoupled_phase():
    # cos(pi/2) kills the effective coupling, so one frozen realization at
    # kf_x = pi/2 must match the gamma = 0 averaged channel
    init, field, _ = small_setup()
    ts = np.linspace(0.0, 5.0, 11)
    avg = atomic_density(ts, init, field, ModelParams(gamma=0.0, omega_rabi=1.0))
    det = deterministic_density(ts, init, field, ModelParams(gamma=0.0, omega_rabi=1.0),
                                kf_x=math.pi / 2.0)
    assert np.max(np.abs(avg.rho - det.rho)) <= 1e-12


def test_deterministic_evolution_preserves_norm():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(2.0)
    table = deterministic_table(np.linspace(0.0, 6.0, 13), init, field,
                                ModelParams(omega_rabi=1.0))
    _, pre = table_density(table)
    total = float(np.sum(field.weights**2))
    assert np.max(np.abs(pre - total)) <= 1e-12


def test_averaging_shrinks_the_raw_trace_monotonically():
    init, field, params = small_setup(gamma=0.5)
    state = atomic_density(np.linspace(0.0, 10.0, 41), init, field, params)
    assert np.all(np.diff(state.pre_norm_trace) <= 1e-15)
    assert state.pre_norm_trace[-1] < state.pre_norm_trace[0]
    assert np.all(state.pre_norm_trace > 0.0)


def test_density_invariants_over_parameter_grid():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(5.0)
    ts = np.linspace(0.0, 10.0, 41)
    for gamma in (0.0, 0.1, 0.5, 0.9, 1.0):
        state = atomic_density(ts, init, field, ModelParams(gamma=gamma))
        for k in range(len(ts)):
            require_density_matrix(state.rho[k], context=f"t={ts[k]:.2f} gamma={gamma}")


def test_scalar_time_squeezes_output():
    init, field, params = small_setup()
    state = atomic_density(1.3, init, field, params)
    assert state.rho.shape == (4, 4)
    assert isinstance(state.pre_norm_trace, float)
    assert state.t == 1.3


finite_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(finite_complex, finite_complex)
def test_amplitudes_are_linear_in_the_preparation(ca, cb):
    field = coherent_weights(1.5)
    params = ModelParams(gamma=0.4, omega_rabi=1.0)
    ts = np.array([0.0, 0.9, 2.1])
    base_a = AtomicInit(1.0, 0.0, 0.5j, 0.0, enforce_norm=False)
    base_b = AtomicInit(0.0, 1.0, 0.0, -0.5, enforce_norm=False)
    mixed = AtomicInit(ca * base_a.c00 + cb * base_b.c00,
                       ca * base_a.c01 + cb * base_b.c01,
                       ca * base_a.c10 + cb * base_b.c10,
                       ca * base_a.c11 + cb * base_b.c11, enforce_norm=False)
    ta = amplitude_table(ts, base_a, field, params)
    tb = amplitude_table(ts, base_b, field, params)
    tm = amplitude_table(ts, mixed, field, params)
    for name in ("photon", "ground"):
        combo = ca * getattr(ta, name) + cb * getattr(tb, name)
        assert np.max(np.abs(getattr(tm, name) - combo)) <= 1e-12
