"""Independent cross-checks: operator algebra, the block Hamiltonian as a
restriction of the full tensor-space Hamiltonian, the RK4 integrator, the
stochastic phase surrogate and the joint averaging reference."""

import math

import numpy as np
import pytest

import chaocav.oracle as oracle
from chaocav.dynamics import AtomicInit, ModelParams, atomic_density, deterministic_density, deterministic_table
from chaocav.entanglement import negativity
from chaocav.field import coherent_weights
from chaocav.linalg import InvariantViolation, require_density_matrix
from chaocav.oracle import (
    S_MINUS,
    S_PLUS,
    S_Z,
    NoiseSpec,
    build_block,
    full_hamiltonian,
    integrate_schrodinger,
    joint_averaged_density,
    legacy_quadruples,
    mc_short_time,
    monte_carlo_q,
    noise_spec_for_gamma,
    ou_mean_q,
    rk4_evolve,
    sector_basis_indices,
    sector_density,
)
from conftest import random_hermitian


def kubo_mean(t, spec):
    # exact average of exp(i phi) for a stationary Gaussian drive
    x = t / spec.tau_c
    return math.exp(-spec.sigma**2 * spec.tau_c**2 * (x - 1.0 + math.exp(-x)))


# ---------------------------------------------------------------- operators and blocks

def test_spin_operator_commutators_are_exact():
    assert np.array_equal(S_Z @ S_PLUS - S_PLUS @ S_Z, 2.0 * S_PLUS)
    assert np.array_equal(S_Z @ S_MINUS - S_MINUS @ S_Z, -2.0 * S_MINUS)
    assert np.array_equal(S_PLUS @ S_MINUS - S_MINUS @ S_PLUS, S_Z)


def test_block_matrix_structure():
    params = ModelParams(gamma=0.0, omega_rabi=0.7, g0=1.3)
    h = build_block(3, params).matrix
    g = 1.3
    assert h[0, 1] == h[1, 0] == h[0, 2] == h[2, 0] == -g * math.sqrt(4.0)
    assert h[1, 3] == h[3, 1] == h[2, 3] == h[3, 2] == -g * math.sqrt(3.0)
    assert h[1, 2] == h[2, 1] == 0.7
    assert np.all(np.diag(h) == 0.0)  # interaction picture strips the diagonal
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_block_lab_frame_diagonal():
    params = ModelParams(omega_rabi=0.0, g0=1.0)
    h = build_block(2, params, interaction_picture=False, omega0=1.5, omega_f=2.0).matrix
    assert np.allclose(np.diag(h), [-3.0 + 6.0, 4.0, 4.0, 3.0 + 2.0])


def test_block_zero_sector_has_no_ee_component():
    h = build_block(0, ModelParams(omega_rabi=1.0), interaction_picture=False).matrix
    assert np.all(h[3, :] == 0.0)
    assert np.all(h[:, 3] == 0.0)


def test_block_scales_with_position_phase():
    params = ModelParams(g0=2.0)
    h0 = build_block(1, params, kf_x=0.0).matrix
    hq = build_block(1, params, kf_x=math.pi / 3.0).matrix
    assert abs(hq[0, 1] - 0.5 * h0[0, 1]) <= 1e-15  # cos(pi/3) = 1/2
    hz = build_block(1, params, kf_x=math.pi / 2.0).matrix
    assert abs(hz[0, 1]) <= 1e-15


@pytest.mark.parametrize("interaction", [True, False])
def test_block_is_restriction_of_full_hamiltonian(interaction):
    params = ModelParams(gamma=0.0, omega_rabi=0.9, g0=1.1)
    n_fock = 8
    full = full_hamiltonian(n_fock, params, kf_x=0.4, interaction_picture=interaction,
                            omega0=1.0, omega_f=2.0)
    assert np.max(np.abs(full - full.conj().T)) <= 1e-12
    for n in (0, 2, 5):
        idx = [i for i in sector_basis_indices(n, n_fock) if i is not None]
        sub = full[np.ix_(idx, idx)]
        block = build_block(n, params, kf_x=0.4, interaction_picture=interaction,
                            omega0=1.0, omega_f=2.0).matrix
        want = block[: len(idx), : len(idx)]
        assert np.max(np.abs(sub - want)) <= 1e-12


def test_full_hamiltonian_does_not_mix_sectors():
    params = ModelParams(omega_rabi=1.0, g0=1.0)
    n_fock = 7
    full = full_hamiltonian(n_fock, params)
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
        build_block(-1, ModelParams())


# ---------------------------------------------------------------- integrator

def test_rk4_reproduces_a_two_level_rotation():
    w = 1.3
    h = np.array([[0.0, -w], [-w, 0.0]], dtype=complex)
    psi = rk4_evolve(h, np.array([1.0, 0.0], dtype=complex), 0.8, dt=1e-3)
    want = np.array([math.cos(w * 0.8), 1j * math.sin(w * 0.8)])
    assert np.max(np.abs(psi - want)) <= 1e-9


def test_rk4_error_scales_at_fourth_order():
    w = 2.0
    h = np.array([[0.0, -w], [-w, 0.0]], dtype=complex)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    want = np.array([math.cos(w), 1j * math.sin(w)])
    err = [np.max(np.abs(rk4_evolve(h, psi0, 1.0, dt=dt) - want))
           for dt in (2e-3, 1e-3)]
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


def test_rk4_partial_final_step_lands_on_t():
    w = 1.0
    h = np.array([[0.0, -w], [-w, 0.0]], dtype=complex)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    t = 0.0105  # not a multiple of dt
    psi = rk4_evolve(h, psi0, t, dt=1e-3)
    want = np.array([math.cos(w * t), 1j * math.sin(w * t)])
    assert np.max(np.abs(psi - want)) <= 1e-12
    assert np.array_equal(rk4_evolve(h, psi0, 0.0, dt=1e-3), psi0)
    with pytest.raises(ValueError):
        rk4_evolve(h, psi0, -1.0)


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
    p0 = ModelParams(gamma=0.0, omega_rabi=0.0)
    p1 = ModelParams(gamma=0.0, omega_rabi=1.0)
    every = list(range(field.n_max + 2))
    picked = [0, 3]
    states = oracle._integrate_groups(init, field, ((p0, every), (p1, picked)),
                                      (0.25, 0.5), 1e-3)
    for t, psi in zip((0.25, 0.5), states):
        alone0 = integrate_schrodinger(init, field, p0, t_final=t, dt=1e-3).amplitudes
        alone1 = integrate_schrodinger(init, field, p1, t_final=t, dt=1e-3,
                                       sectors=picked).amplitudes
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
        rk4_evolve(h, np.array([1.0, 0.0]), **args)


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
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(5.0)
    params = ModelParams(gamma=0.0, omega_rabi=0.0, g0=1.0)
    sectors = [0, 1, 5, 25]
    state = integrate_schrodinger(init, field, params, t_final=1.0, dt=1e-3,
                                  sectors=sectors)
    table = deterministic_table(np.array([1.0]), init, field, params)
    want = oracle._closed_quadruples(table, sectors)
    assert want[0, 3] == 0.0  # sector 0 has no |ee> component
    for k in range(len(sectors)):
        assert np.max(np.abs(state.amplitudes[k] - want[k])) <= 1e-6


def test_integrator_norm_guard_trips_on_coarse_steps():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(5.0)
    params = ModelParams(gamma=0.0, omega_rabi=0.0)
    with pytest.raises(InvariantViolation, match="drift"):
        integrate_schrodinger(init, field, params, t_final=1.0, dt=0.2, sectors=[25])


def test_integrator_sector_validation():
    field = coherent_weights(1.0)
    with pytest.raises(ValueError):
        integrate_schrodinger(AtomicInit.bell_phi_plus(), field, ModelParams(),
                              sectors=[field.n_max + 2])


def test_oracle_density_matches_closed_form_density():
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    field = coherent_weights(2.0)
    params = ModelParams(gamma=0.0, omega_rabi=0.0)
    state = integrate_schrodinger(init, field, params, t_final=0.7, dt=1e-3)
    rho, pre = sector_density(state.sectors, state.amplitudes, state.ground)
    want = deterministic_density(0.7, init, field, params)
    assert np.max(np.abs(rho - want.rho)) <= 1e-8
    assert abs(pre - want.pre_norm_trace) <= 1e-10
    require_density_matrix(rho)


def test_lab_frame_amplitudes_keep_the_same_magnitudes():
    # on resonance (omega_f = 2 omega0) the bare energies are constant
    # within each sector, so the two pictures differ by phases only
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5)
    field = coherent_weights(2.0)
    params = ModelParams(gamma=0.0, omega_rabi=1.0)
    sectors = [0, 1, 3]
    kw = dict(t_final=0.9, dt=1e-3, sectors=sectors)
    rotating = integrate_schrodinger(init, field, params, **kw)
    lab = integrate_schrodinger(init, field, params, interaction_picture=False,
                                omega0=1.0, omega_f=2.0, **kw)
    assert np.max(np.abs(np.abs(lab.amplitudes) - np.abs(rotating.amplitudes))) <= 1e-8
    assert abs(abs(lab.ground) - abs(rotating.ground)) <= 1e-12


def test_legacy_variant_distorts_the_initial_state():
    # the paper's printed form carries inconsistent index shifts; it does
    # not reproduce the preparation at t = 0 and is kept only for comparison
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(5.0)
    sectors = np.arange(field.n_max + 2)
    legacy = legacy_quadruples(sectors, 0.0, 1.0, 1.0, init, field, ModelParams(gamma=0.0))
    rho, _ = sector_density(sectors, legacy, 0.0)
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
    q = np.exp(1j * np.sqrt(2.0 * (2.0 * sectors + 1.0)))
    legacy = legacy_quadruples(sectors, 1.0, q, np.conj(q), init, field,
                               ModelParams(omega_rabi=1.0))
    want = np.array([0.08260100182254922 - 0.026215862597354284j,
                     0.11637616197768139 + 0.20589614077889862j,
                     -0.10010825310520537 - 0.1312583595385874j,
                     -0.04298435605070272 + 0.09563676738121518j])
    assert np.max(np.abs(legacy.sum(axis=0) - want)) <= 1e-12
    assert legacy[0, 3] == 0.0  # |ee,-1> does not exist


# ---------------------------------------------------------------- noise surrogate

def test_noise_spec_matching_formulas():
    spec = noise_spec_for_gamma(0.5)
    assert abs(spec.sigma - 1.0) <= 1e-15
    assert abs(spec.tau_c - math.sqrt(math.pi) / (4.0 * math.sqrt(0.5))) <= 1e-15
    assert abs(spec.sigma**2 * spec.tau_c**2 - math.pi / 8.0) <= 1e-15
    assert noise_spec_for_gamma(0.0).process == "constant"


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(process="brownian")
    with pytest.raises(ValueError):
        NoiseSpec(process="ornstein_uhlenbeck", sigma=0.0, tau_c=1.0)


def test_monte_carlo_constant_process_is_exact():
    out = monte_carlo_q(np.array([0.0, 1.0, 5.0]), NoiseSpec(process="constant"))
    assert np.array_equal(out.q_mean, np.ones(3, dtype=complex))
    assert np.array_equal(out.stderr, np.zeros(3))


def test_monte_carlo_is_deterministic_per_seed():
    grid = np.array([0.5, 1.5])
    a = monte_carlo_q(grid, noise_spec_for_gamma(0.5, seed=8), n_samples=3000)
    b = monte_carlo_q(grid, noise_spec_for_gamma(0.5, seed=8), n_samples=3000)
    c = monte_carlo_q(grid, noise_spec_for_gamma(0.5, seed=9), n_samples=3000)
    assert np.array_equal(a.q_mean, b.q_mean)
    assert np.array_equal(a.stderr, b.stderr)
    assert not np.array_equal(a.q_mean, c.q_mean)


def reference_monte_carlo(t_grid, spec, n_samples):
    # The substep loop as first written, allocating a fresh array per operation.
    rng = np.random.Generator(np.random.Philox(spec.seed))
    sigma, tau = spec.sigma, spec.tau_c
    omega = rng.normal(0.0, sigma, n_samples)
    phi = np.zeros(n_samples)
    q_mean, stderr = [], []
    t_prev = 0.0
    for tk in t_grid:
        seg = tk - t_prev
        if seg > 0.0:
            n_steps = max(1, int(math.ceil(seg / (tau / 64.0))))
            h = seg / n_steps
            decay = math.exp(-h / tau)
            kick = sigma * math.sqrt(1.0 - decay * decay)
            for _ in range(n_steps):
                omega_next = decay * omega + kick * rng.normal(0.0, 1.0, n_samples)
                phi += 0.5 * h * (omega + omega_next)
                omega = omega_next
        vals = np.exp(1j * phi)
        q_mean.append(vals.mean())
        stderr.append(float(np.std(vals.real, ddof=1) / math.sqrt(n_samples)))
        t_prev = tk
    return np.array(q_mean), np.array(stderr)


@pytest.mark.parametrize("seed", [8, 31])
@pytest.mark.parametrize("n_samples", [2, 5000])
def test_monte_carlo_matches_the_reference_bit_for_bit(seed, n_samples):
    grid = np.array([0.0, 0.013, 0.4, 0.4, 1.37])
    spec = noise_spec_for_gamma(0.7, seed=seed)
    out = monte_carlo_q(grid, spec, n_samples=n_samples)
    q_mean, stderr = reference_monte_carlo(grid, spec, n_samples)
    assert np.array_equal(out.q_mean, q_mean)
    assert np.array_equal(out.stderr, stderr)


def test_monte_carlo_matches_gaussian_closure():
    spec = noise_spec_for_gamma(0.5, seed=8)
    out = monte_carlo_q(np.array([1.0]), spec, n_samples=4000)
    want = kubo_mean(1.0, spec)
    assert abs(out.q_mean[0].real - want) <= 5.0 * out.stderr[0]
    assert abs(out.q_mean[0].imag) <= 5.0 * out.stderr[0]


def test_ou_mean_matches_gaussian_closure():
    spec = noise_spec_for_gamma(1.0)
    ts = np.array([0.005, 0.01, 0.5, 3.0])
    want = [kubo_mean(t, spec) for t in ts]
    assert ou_mean_q(ts, spec) == pytest.approx(want, rel=1e-12)
    assert np.array_equal(ou_mean_q(ts, NoiseSpec(process="constant")), np.ones(4))


def test_mc_short_time_fails_only_at_the_nominal_rate():
    # Two 3-sigma gates: a few seeds in a thousand fail by chance. Gating
    # against exp(-gamma t^2) instead failed 18 of these 120 seeds.
    failed = [seed for seed in range(120) if not mc_short_time(1.0, seed)[0]]
    assert len(failed) <= 2, failed


def test_monte_carlo_stderr_shrinks_with_samples():
    spec = noise_spec_for_gamma(0.5, seed=8)
    small = monte_carlo_q(np.array([1.0]), spec, n_samples=2000)
    large = monte_carlo_q(np.array([1.0]), spec, n_samples=8000)
    ratio = small.stderr[0] / large.stderr[0]
    assert 1.7 < ratio < 2.3


def test_monte_carlo_grid_validation():
    spec = noise_spec_for_gamma(0.5)
    with pytest.raises(ValueError):
        monte_carlo_q(np.array([1.0, 0.5]), spec)
    with pytest.raises(ValueError):
        monte_carlo_q(np.array([0.5]), spec, n_samples=1)
    for bad in ([0.5, float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_q(np.array(bad), spec)


# ---------------------------------------------------------------- joint averaging

def test_joint_average_is_a_density_and_differs_from_scalar_substitution():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(2.0)
    params = ModelParams(gamma=0.5, omega_rabi=1.0)
    joint = joint_averaged_density(2.0, init, field, params)
    require_density_matrix(joint.rho)
    scalar = atomic_density(2.0, init, field, params)
    assert np.max(np.abs(joint.rho - scalar.rho)) > 1e-4


def test_joint_average_sampling_matches_analytic_moments():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(2.0)
    params = ModelParams(gamma=0.5, omega_rabi=1.0)
    analytic = joint_averaged_density(2.0, init, field, params)
    sampled = joint_averaged_density(2.0, init, field, params, n_samples=20000, seed=8)
    assert np.max(np.abs(analytic.rho - sampled.rho)) <= 0.02
    assert negativity(sampled.rho) >= 0.0
