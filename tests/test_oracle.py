"""Independent cross-checks: operator algebra, the block Hamiltonian as a
restriction of the full tensor-space Hamiltonian, the RK4 integrator, the
stochastic phase surrogate and the joint averaging reference."""

import math

import numpy as np
import pytest

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
    oracle_density,
    rk4_evolve,
    run_verification,
    sector_basis_indices,
    sector_density,
)


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


def test_integrator_matches_closed_form_without_spin_exchange():
    init = AtomicInit.bell_phi_plus()
    field = coherent_weights(5.0)
    params = ModelParams(gamma=0.0, omega_rabi=0.0, g0=1.0)
    sectors = [0, 1, 5, 25]
    state = integrate_schrodinger(init, field, params, t_final=1.0, dt=1e-3,
                                  sectors=sectors)
    table = deterministic_table(np.array([1.0]), init, field, params)
    for k, n in enumerate(sectors):
        want = np.array([table.sector_a[0, n], table.sector_b[0, n],
                         table.sector_c[0, n], table.sector_d[0, n]])
        assert np.max(np.abs(state.amplitudes[k] - want)) <= 1e-6


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
    got = oracle_density(0.7, init, field, params, dt=1e-3)
    want = deterministic_density(0.7, init, field, params)
    assert np.max(np.abs(got.rho - want.rho)) <= 1e-8
    assert abs(got.pre_norm_trace - want.pre_norm_trace) <= 1e-10
    require_density_matrix(got.rho)


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


# ---------------------------------------------------------------- battery

def test_verification_battery_quick_mode_has_no_failures():
    checks = run_verification(quick=True)
    failures = [c for c in checks if c.status == "FAIL"]
    assert failures == []
    names = {c.name for c in checks}
    assert "amplitudes_vs_integrator" in names
    assert "mc_short_time" in names
    # documented deviations surface as INFO, never as silent passes
    assert any(c.status == "INFO" for c in checks)
