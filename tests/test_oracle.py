"""Independent cross-checks: operator algebra, the block Hamiltonian as a
restriction of the full tensor-space Hamiltonian, the RK4 integrator, the
Monte Carlo phase sampler and the joint averaging reference."""

import math
import tracemalloc

import numpy as np
import pytest

import chaocav.oracle as oracle
from chaocav.dynamics import (AtomicInit, amplitude_table, averaged_q, deterministic_table,
                              frozen_phases, gather_sectors, table_density)
from chaocav.entanglement import negativity
from chaocav.field import coherent_weights
from chaocav.linalg import InvariantViolation, require_density_matrix
from chaocav.oracle import (
    S_MINUS,
    S_PLUS,
    S_Z,
    build_block,
    full_hamiltonian,
    integrate_schrodinger,
    joint_averaged_density,
    legacy_quadruples,
    mc_short_time,
    monte_carlo_q,
    rk4_evolve,
    sector_density,
)
from conftest import BELL_INIT, random_hermitian


def sector_basis_indices(n, n_fock):
    """Indices of (|gg,n+1>, |ge,n>, |eg,n>, |ee,n-1>) in full_hamiltonian's space.

    The last entry is None for n = 0, where |ee,-1> does not exist.
    Raises if the sector pokes past the Fock truncation.
    """
    n = int(n)
    if n < 0 or n + 1 >= n_fock:
        raise ValueError(f"sector {n} needs Fock level {n + 1}, have 0..{n_fock - 1}")
    idx_ee = 3 * n_fock + (n - 1) if n >= 1 else None
    return (n + 1, n_fock + n, 2 * n_fock + n, idx_ee)


# ---------------------------------------------------------------- operators and blocks

def test_spin_operator_commutators_are_exact():
    assert np.array_equal(S_Z @ S_PLUS - S_PLUS @ S_Z, 2.0 * S_PLUS)
    assert np.array_equal(S_Z @ S_MINUS - S_MINUS @ S_Z, -2.0 * S_MINUS)
    assert np.array_equal(S_PLUS @ S_MINUS - S_MINUS @ S_PLUS, S_Z)


def test_block_matrix_structure():
    kf_x = 0.3
    h = build_block(3, 0.7, kf_x=kf_x)
    g = math.cos(kf_x)
    assert h[0, 1] == h[1, 0] == h[0, 2] == h[2, 0] == -g * math.sqrt(4.0)
    assert h[1, 3] == h[3, 1] == h[2, 3] == h[3, 2] == -g * math.sqrt(3.0)
    assert h[1, 2] == h[2, 1] == 0.7
    assert np.all(np.diag(h) == 0.0)  # interaction picture strips the diagonal
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_block_zero_sector_has_no_ee_component():
    h = build_block(0, 1.0)
    assert np.all(h[3, :] == 0.0)
    assert np.all(h[:, 3] == 0.0)


def test_block_scales_with_position_phase():
    h0 = build_block(1, 1.0, kf_x=0.0)
    hq = build_block(1, 1.0, kf_x=math.pi / 3.0)
    assert abs(hq[0, 1] - 0.5 * h0[0, 1]) <= 1e-15  # cos(pi/3) = 1/2
    hz = build_block(1, 1.0, kf_x=math.pi / 2.0)
    assert abs(hz[0, 1]) <= 1e-15


def test_block_is_restriction_of_full_hamiltonian():
    n_fock = 8
    full = full_hamiltonian(n_fock, 0.9, kf_x=0.4)
    assert np.max(np.abs(full - full.conj().T)) <= 1e-12
    for n in (0, 2, 5):
        idx = [i for i in sector_basis_indices(n, n_fock) if i is not None]
        sub = full[np.ix_(idx, idx)]
        block = build_block(n, 0.9, kf_x=0.4)
        want = block[: len(idx), : len(idx)]
        assert np.max(np.abs(sub - want)) <= 1e-12


def test_full_hamiltonian_does_not_mix_sectors():
    n_fock = 7
    full = full_hamiltonian(n_fock, 1.0)
    idx = [i for i in sector_basis_indices(3, n_fock) if i is not None]
    vec = np.zeros(4 * n_fock, dtype=complex)
    vec[idx] = [0.5, 0.5, 0.5, 0.5]
    image = full @ vec
    outside = np.delete(image, idx)
    assert np.max(np.abs(outside)) <= 1e-15


def test_sector_index_bounds():
    assert sector_basis_indices(0, 6) == (1, 6, 12, None)
    with pytest.raises(ValueError):
        sector_basis_indices(5, 6)  # needs Fock level 6
    with pytest.raises(ValueError):
        build_block(-1, 1.0)


# ---------------------------------------------------------------- integrator

def test_rk4_reproduces_a_two_level_rotation():
    w = 1.3
    h = np.array([[0.0, -w], [-w, 0.0]], dtype=complex)
    psi = rk4_evolve(h[None], np.array([[1.0, 0.0]], dtype=complex), 0.8, dt=1e-3)[0]
    want = np.array([math.cos(w * 0.8), 1j * math.sin(w * 0.8)])
    assert np.max(np.abs(psi - want)) <= 1e-9


def test_rk4_error_scales_at_fourth_order():
    w = 2.0
    h = np.array([[0.0, -w], [-w, 0.0]], dtype=complex)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    want = np.array([math.cos(w), 1j * math.sin(w)])
    err = [np.max(np.abs(rk4_evolve(h[None], psi0[None], 1.0, dt=dt)[0] - want))
           for dt in (2e-3, 1e-3)]
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


def test_rk4_partial_final_step_lands_on_t():
    w = 1.0
    h = np.array([[0.0, -w], [-w, 0.0]], dtype=complex)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    t = 0.0105  # not a multiple of dt
    psi = rk4_evolve(h[None], psi0[None], t, dt=1e-3)[0]
    want = np.array([math.cos(w * t), 1j * math.sin(w * t)])
    assert np.max(np.abs(psi - want)) <= 1e-12
    assert np.array_equal(rk4_evolve(h[None], psi0[None], 0.0, dt=1e-3), psi0[None])
    with pytest.raises(ValueError):
        rk4_evolve(h[None], psi0[None], -1.0)


def reference_rk4(blocks, psi0, t_final, dt):
    # The integrator as first written: allocating stages and -1j applied
    # after each block product.
    def deriv(p):
        return -1j * np.einsum("sij,sj->si", blocks, p)

    def step(p, h):
        k1 = deriv(p)
        k2 = deriv(p + 0.5 * h * k1)
        k3 = deriv(p + 0.5 * h * k2)
        k4 = deriv(p + h * k3)
        return p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    psi = np.array(psi0, dtype=complex)
    n_full = int(t_final / dt)
    for _ in range(n_full):
        psi = step(psi, dt)
    rem = t_final - n_full * dt
    return step(psi, rem) if rem > 1e-15 else psi


def random_blocks(rng, sectors):
    blocks = np.stack([random_hermitian(rng) for _ in range(sectors)])
    psi0 = rng.normal(size=(sectors, 4)) + 1j * rng.normal(size=(sectors, 4))
    return blocks, psi0


def test_rk4_matches_the_reference_bit_for_bit(rng):
    blocks, psi0 = random_blocks(rng, 7)
    for t_final in (0.25, 0.3337):  # whole steps only, then a partial last step
        got = rk4_evolve(blocks, psi0, t_final, dt=1e-3)
        assert np.array_equal(got, reference_rk4(blocks, psi0, t_final, 1e-3))


def test_stacked_groups_equal_separate_runs():
    # one pass over two parameter groups, stopping at 0.25 and going on to
    # 0.5, gives each group's rows bit for bit as separate runs would
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5)
    field = coherent_weights(2.0)
    every = list(range(field.n_max + 2))
    picked = [0, 3]
    states = integrate_schrodinger(init, field, ((0.0, every), (1.0, picked)),
                                   (0.25, 0.5), 1e-3)
    for t, psi in zip((0.25, 0.5), states):
        (alone0,) = integrate_schrodinger(init, field, ((0.0, every),), (t,), 1e-3)
        (alone1,) = integrate_schrodinger(init, field, ((1.0, picked),), (t,), 1e-3)
        assert np.array_equal(psi, np.concatenate([alone0, alone1]))


@pytest.mark.parametrize("kwargs, name", [
    ({"dt": -1e-3}, "dt"),
    ({"dt": 0.0}, "dt"),
    ({"dt": float("nan")}, "dt"),
    ({"dt": float("inf")}, "dt"),
    ({"t_final": float("nan")}, "t_final"),
    ({"t_final": float("inf")}, "t_final"),
])
def test_rk4_rejects_bad_times(kwargs, name):
    h = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
    args = {"t_final": 1.0, "dt": 1e-3, **kwargs}
    with pytest.raises(ValueError, match=name):
        rk4_evolve(h[None], np.array([[1.0, 0.0]]), **args)


def test_run_verification_takes_60000_rk4_steps(monkeypatch):
    calls = []
    original = oracle.rk4_evolve

    def counting(blocks, psi0, t_final, dt=1e-4):
        n_full = int(t_final / dt)
        calls.append(n_full + (1 if t_final - n_full * dt > 1e-15 else 0))
        return original(blocks, psi0, t_final, dt)

    monkeypatch.setattr(oracle, "rk4_evolve", counting)
    rows = oracle.run_verification()
    assert not any(row.status == "FAIL" for row in rows)
    assert sum(calls) == 60000


def test_integrator_matches_closed_form_without_spin_exchange():
    init = BELL_INIT
    field = coherent_weights(5.0)
    sectors = [0, 1, 5, 25]
    (psi,) = integrate_schrodinger(init, field, ((0.0, sectors),), (1.0,), dt=1e-3)
    table = deterministic_table(np.array([1.0]), init, field, 0.0)
    want = gather_sectors(table.photon[0], sectors)
    assert want[0, 3] == 0.0  # sector 0 has no |ee> component
    for k in range(len(sectors)):
        assert np.max(np.abs(psi[k] - want[k])) <= 1e-6


def test_integrator_norm_guard_trips_on_coarse_steps():
    init = BELL_INIT
    field = coherent_weights(5.0)
    with pytest.raises(InvariantViolation, match="drift"):
        integrate_schrodinger(init, field, ((0.0, [25]),), (1.0,), dt=0.2)


def test_integrator_sector_validation():
    field = coherent_weights(1.0)
    with pytest.raises(ValueError):
        integrate_schrodinger(BELL_INIT, field,
                              ((1.0, [field.n_max + 2]),), (1.0,))


def test_oracle_density_matches_closed_form_density():
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    field = coherent_weights(2.0)
    every = list(range(field.n_max + 2))
    (psi,) = integrate_schrodinger(init, field, ((0.0, every),), (0.7,), dt=1e-3)
    rho, pre = sector_density(psi, field.weights[0] * init.c00)
    want_rho, want_pre = table_density(deterministic_table(0.7, init, field, 0.0))
    assert np.max(np.abs(rho - want_rho[0])) <= 1e-8
    assert abs(pre - want_pre[0]) <= 1e-10
    require_density_matrix(rho)


def test_legacy_variant_distorts_the_initial_state():
    # the paper's printed form carries inconsistent index shifts; it does
    # not reproduce the preparation at t = 0 and is kept only for comparison
    init = BELL_INIT
    field = coherent_weights(5.0)
    sectors = np.arange(field.n_max + 2)
    legacy = legacy_quadruples(sectors, 0.0, 1.0, 1.0, init, field, 1.0)
    rho, _ = sector_density(legacy, 0.0)
    vec = init.as_vector()
    dev = np.max(np.abs(rho - np.outer(vec, vec.conj())))
    assert dev > 0.01
    require_density_matrix(rho)  # still a valid state after renormalization


def test_legacy_quadruples_pinned_with_mixed_preparation():
    # every c_ij nonzero, so the c01 and c10 terms of the printed form
    # enter; the column sums are pinned to the values the form gives now
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5)
    field = coherent_weights(2.0)
    sectors = np.array([0, 1, 5])
    q = frozen_phases(1.0, sectors)[0]
    legacy = legacy_quadruples(sectors, 1.0, q, np.conj(q), init, field, 1.0)
    want = np.array([0.08260100182254922 - 0.026215862597354284j,
                     0.11637616197768139 + 0.20589614077889862j,
                     -0.10010825310520537 - 0.1312583595385874j,
                     -0.04298435605070272 + 0.09563676738121518j])
    assert np.max(np.abs(legacy.sum(axis=0) - want)) <= 1e-12
    assert legacy[0, 3] == 0.0  # |ee,-1> does not exist


# ---------------------------------------------------------------- Monte Carlo phase

@pytest.mark.parametrize("gamma", [0.7, 1.0])
def test_phase_variance_quadrature_matches_the_closed_form(gamma):
    # V is integrated from the frequency covariance; averaged_q uses
    # V = sqrt(pi) s erf(s), s = t sqrt(gamma).
    ts = np.array([0.005, 0.3, 1.0, 2.5, 6.0, 10.0])
    got = oracle._phase_variance(ts, gamma)
    for t, v in zip(ts, got):
        s = t * math.sqrt(gamma)
        assert v == pytest.approx(math.sqrt(math.pi) * s * math.erf(s), rel=1e-10, abs=0.0)


def test_noise_spec_validation():
    # the sampler rejects the gammas averaged_q rejects, in its wording
    for gamma in (-1.0, float("nan"), float("inf")):
        for estimate in (averaged_q, monte_carlo_q):
            with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
                estimate(np.array([1.0]), gamma)


def test_monte_carlo_constant_process_is_exact():
    out = monte_carlo_q(np.array([0.0, 1.0, 5.0]), 0.0)
    assert np.array_equal(out.q_mean, np.ones(3, dtype=complex))
    assert np.array_equal(out.stderr, np.zeros(3))


def test_monte_carlo_is_deterministic_per_seed():
    grid = np.array([0.5, 1.5])
    a = monte_carlo_q(grid, 0.5, seed=8, n_samples=3000)
    b = monte_carlo_q(grid, 0.5, seed=8, n_samples=3000)
    c = monte_carlo_q(grid, 0.5, seed=9, n_samples=3000)
    assert np.array_equal(a.q_mean, b.q_mean)
    assert np.array_equal(a.stderr, b.stderr)
    assert not np.array_equal(a.q_mean, c.q_mean)


def test_monte_carlo_matches_gaussian_closure():
    out = monte_carlo_q(np.array([1.0]), 0.5, seed=8, n_samples=4000)
    want = averaged_q(1.0, 0.5)
    assert abs(out.q_mean[0].real - want) <= 5.0 * out.stderr[0]
    assert abs(out.q_mean[0].imag) <= 5.0 * out.stderr[0]


def test_monte_carlo_matches_averaged_q_on_the_whole_grid():
    # 4 standard errors per point: a two-sided normal tail of 6.3e-5, so
    # the familywise false-failure rate over the 50 points is at most
    # 50 * 6.3e-5 = 3.2e-3 by the union bound.
    grid = np.linspace(0.1, 5.0, 50)
    out = monte_carlo_q(grid, 0.7, seed=8)
    gaps = np.abs(out.q_mean.real - averaged_q(grid, 0.7))
    assert np.all(gaps <= 4.0 * out.stderr), np.max(gaps / out.stderr)


def test_monte_carlo_sums_match_the_whole_sample_statistics():
    # 20,000 samples span three chunks; the chunked sums must give what
    # np.mean and np.std give on the same draws, also at t = 0.005 where
    # cos(phi) is within 3e-5 of 1.
    grid = np.array([0.005, 0.01, 0.5, 2.0])
    phi = np.concatenate(list(oracle._phase_chunks(grid, 1.0, 8, 20000)))
    assert phi.shape == (20000, 4)
    out = monte_carlo_q(grid, 1.0, seed=8, n_samples=20000)
    want_se = np.std(np.cos(phi), axis=0, ddof=1) / math.sqrt(20000)
    assert out.stderr == pytest.approx(want_se, rel=1e-9, abs=0.0)
    assert out.q_mean == pytest.approx(np.mean(np.exp(1j * phi), axis=0), rel=1e-12)


def test_monte_carlo_memory_does_not_grow_with_samples():
    # One draw of all 100,000 samples on 50 points needs about 160 MB.
    grid = np.linspace(0.1, 5.0, 50)
    tracemalloc.start()
    try:
        monte_carlo_q(grid, 0.7, seed=8, n_samples=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_mc_short_time_fails_only_at_the_nominal_rate():
    # Two 3-sigma gates: a few seeds in a thousand fail by chance.
    failed = [seed for seed in range(120) if not mc_short_time(1.0, seed)[0]]
    assert len(failed) <= 2, failed


def test_monte_carlo_stderr_shrinks_with_samples():
    small = monte_carlo_q(np.array([1.0]), 0.5, seed=8, n_samples=2000)
    large = monte_carlo_q(np.array([1.0]), 0.5, seed=8, n_samples=8000)
    ratio = small.stderr[0] / large.stderr[0]
    assert 1.7 < ratio < 2.3


def test_monte_carlo_grid_validation():
    with pytest.raises(ValueError):
        monte_carlo_q(np.array([1.0, 0.5]), 0.5)
    with pytest.raises(ValueError):
        monte_carlo_q(np.array([0.5]), 0.5, n_samples=1)
    for bad in ([0.5, float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_q(np.array(bad), 0.5)


# ---------------------------------------------------------------- joint averaging

def test_joint_average_is_a_density_and_differs_from_scalar_substitution():
    init = BELL_INIT
    field = coherent_weights(2.0)
    q = averaged_q(2.0, 0.5)
    joint, _ = joint_averaged_density(2.0, q, init, field, 1.0)
    require_density_matrix(joint)
    scalar, _ = table_density(amplitude_table(2.0, q, init, field, 1.0))
    assert np.max(np.abs(joint - scalar[0])) > 1e-4


def test_joint_average_sampling_matches_analytic_moments():
    init = BELL_INIT
    field = coherent_weights(2.0)
    q = averaged_q(2.0, 0.5)
    analytic, _ = joint_averaged_density(2.0, q, init, field, 1.0)
    sampled, _ = joint_averaged_density(2.0, q, init, field, 1.0, n_samples=20000, seed=8)
    assert np.max(np.abs(analytic - sampled)) <= 0.02
    assert negativity(sampled) >= 0.0


def test_joint_average_sampling_at_zero_q_draws_uniform_phases():
    # q = 0 is what averaged_q gives once pi * gamma overflows; the
    # Gaussian variance -2 ln q is infinite there.
    init = AtomicInit(0.6, 0.3 + 0.1j, -0.2, math.sqrt(1.0 - 0.36 - 0.1 - 0.04))
    field = coherent_weights(2.0)
    q = averaged_q(1.0, 1e308)
    assert q == 0.0
    analytic, _ = joint_averaged_density(1.0, q, init, field, 1.0)
    sampled, _ = joint_averaged_density(1.0, q, init, field, 1.0, n_samples=20000, seed=8)
    require_density_matrix(sampled)
    assert np.max(np.abs(analytic - sampled)) <= 0.02
    # the bound tells q = 0 from the frozen state at q = 1
    frozen, _ = joint_averaged_density(1.0, 1.0, init, field, 1.0)
    assert np.max(np.abs(frozen - analytic)) > 0.1
