"""Independent cross-checks: operator algebra, the block Hamiltonian as a
restriction of the full tensor-space Hamiltonian, the exact propagator, the
Monte Carlo phase sampler and the joint averaging reference."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import chaocav.oracle as oracle
from chaocav.dynamics import (AmplitudeTable, AtomicInit, _build_table, amplitude_table,
                              averaged_q, deterministic_table, frozen_phases, gather_sectors,
                              padded_weights, scatter_sectors, sector_basis, start_quadruples,
                              table_density)
from chaocav.entanglement import negativity
from chaocav.field import coherent_weights
from chaocav.linalg import require_density_matrix
from chaocav.sweep import sweep_grid
from chaocav.teleport import UnknownQubit, bell_project_teleport
from chaocav.oracle import (
    S_MINUS,
    S_PLUS,
    S_Z,
    build_block,
    full_hamiltonian,
    gaussian_moments,
    integrate_schrodinger,
    joint_averaged_density,
    legacy_quadruples,
    mc_short_time,
    monte_carlo_q,
)
from conftest import BELL_INIT, four_rows


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
    h = build_block(3, 0.7)
    assert h[0, 1] == h[1, 0] == h[0, 2] == h[2, 0] == -math.sqrt(4.0)
    assert h[1, 3] == h[3, 1] == h[2, 3] == h[3, 2] == -math.sqrt(3.0)
    assert h[1, 2] == h[2, 1] == 0.7
    assert np.all(np.diag(h) == 0.0)  # interaction picture strips the diagonal
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_block_zero_sector_has_no_ee_component():
    h = build_block(0, 1.0)
    assert np.all(h[3, :] == 0.0)
    assert np.all(h[:, 3] == 0.0)


def test_block_is_restriction_of_full_hamiltonian():
    n_fock = 8
    full = full_hamiltonian(n_fock, 0.9)
    assert np.max(np.abs(full - full.conj().T)) <= 1e-12
    for n in (0, 2, 5):
        idx = [i for i in sector_basis_indices(n, n_fock) if i is not None]
        sub = full[np.ix_(idx, idx)]
        block = build_block(n, 0.9)
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


# ---------------------------------------------------------------- propagator

def test_exact_states_solve_the_schroedinger_equation():
    # The start state and d psi/dt = -i H psi fix the solution; the rate is
    # a central difference, with the spin-spin coupling on so every block
    # entry enters.
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5)
    field = coherent_weights(2.0)
    every = list(range(field.n_max + 2))
    t, h = 0.7, 1e-4
    start, before, now, after = integrate_schrodinger(init, field, every,
                                                      (0.0, t - h, t, t + h), 1.0)
    psi0 = start_quadruples(np.array(every), init, padded_weights(field))
    assert np.max(np.abs(start - psi0)) <= 1e-14
    blocks = np.stack([build_block(n, 1.0) for n in every])
    rate = (after - before) / (2.0 * h)
    want = -1j * np.einsum("sij,sj->si", blocks, now)
    assert np.max(np.abs(rate - want)) <= 1e-7  # truncation error h^2 |H^3 psi| / 6: 4.2e-8


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_integrator_rejects_bad_times(t):
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        integrate_schrodinger(BELL_INIT, coherent_weights(1.0), [0, 1], (0.5, t), 0.0)


def test_integrator_matches_closed_form_without_spin_exchange():
    init = BELL_INIT
    field = coherent_weights(5.0)
    every = list(range(field.n_max + 2))
    (psi,) = integrate_schrodinger(init, field, every, (1.0,), 0.0)
    table = deterministic_table(sector_basis(1.0, init, field, 0.0))
    want = gather_sectors(table.photon[0], every)
    assert want[0, 3] == 0.0  # sector 0 has no |ee> component
    assert np.max(np.abs(psi - want)) <= 1e-12


def test_integrator_sector_validation():
    field = coherent_weights(1.0)
    for bad in (-1, field.n_max + 2):
        with pytest.raises(ValueError, match="sectors must lie in"):
            integrate_schrodinger(BELL_INIT, field, [0, bad], (1.0,), 1.0)


def test_oracle_density_matches_closed_form_density():
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    field = coherent_weights(2.0)
    every = list(range(field.n_max + 2))
    (psi,) = integrate_schrodinger(init, field, every, (0.7,), 0.0)
    ground = field.weights[0] * init.c00
    rho, pre = table_density(AmplitudeTable(scatter_sectors(psi.T, ground)[None]))
    want_rho, want_pre = table_density(deterministic_table(sector_basis(0.7, init, field, 0.0)))
    assert np.max(np.abs(rho - want_rho)) <= 1e-8
    assert np.max(np.abs(pre - want_pre)) <= 1e-10
    require_density_matrix(rho[0])


#: Atomic rows a preparation may fill: all four, or one pair, which sends
#: sweep_grid's eigensolve through the 2x2 block route.
PREPARATION_ROWS = {"all_four": [0, 1, 2, 3], "gg_ee": [0, 3], "ge_eg": [1, 2]}


@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       st.sampled_from(sorted(PREPARATION_ROWS)), st.floats(0.0, 4.0), st.floats(0.0, 5.0),
       st.floats(0.0, 2.0), st.floats(0.0, math.pi / 2.0), st.floats(0.0, 2.0 * math.pi))
def test_scalar_channel_is_the_mean_of_the_propagator_forward_and_back(
        parts, rows, alpha, t, gamma, theta, phi):
    # At omega_rabi = 0 sector n's block has eigenvalues 0, 0 and
    # +-omega_n, omega_n = sqrt(2 (2n + 1)). The scalar channel puts the
    # mean q in place of both phase factors exp(+-i omega_n t), so its
    # amplitudes are (U_n(tau) + U_n(-tau)) psi0_n / 2 with
    # cos(omega_n tau) = q, U_n from eigh of the written-down block. The
    # state, entanglement and teleportation built from those amplitudes
    # share no code with sweep_grid's routes.
    c = np.zeros(4, dtype=complex)
    keep = PREPARATION_ROWS[rows]
    c[keep] = (np.array(parts[:4]) + 1j * np.array(parts[4:]))[keep]
    assume(np.linalg.norm(c) > 0.1)
    init = AtomicInit(*(c / np.linalg.norm(c)))
    unknown = UnknownQubit(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
    field = coherent_weights(alpha)
    q = averaged_q(t, gamma)
    ns = np.arange(field.n_max + 2)
    w, v = np.linalg.eigh(np.stack([build_block(n, 0.0) for n in ns]))
    tau = np.arccos(q) / np.sqrt(2.0 * (2.0 * ns + 1.0))

    def propagator(tau):
        return np.einsum("sij,sj,skj->sik", v, np.exp(-1j * w * tau[:, None]), v.conj())

    psi0 = start_quadruples(ns, init, padded_weights(field))
    amps = np.einsum("sij,sj->si", (propagator(tau) + propagator(-tau)) / 2.0, psi0)
    photon = scatter_sectors(amps.T, field.weights[0] * init.c00)
    table = amplitude_table(sector_basis(t, init, field, 0.0), q)
    assert np.max(np.abs(four_rows(table)[0] - photon)) <= 1e-13
    raw = photon @ photon.conj().T
    pre = float(np.trace(raw).real)
    rho = raw / pre
    grid = sweep_grid([t], [gamma], init, field, unknown, omega_rabi=0.0)
    assert abs(grid.doe[0, 0] - oracle._doe_reference(rho)) <= 1e-12
    assert abs(grid.pre_norm_trace[0, 0] - pre) <= 1e-12
    proj = bell_project_teleport(rho, unknown)[0]
    k2 = grid.kappa2[0, 0]
    bob_raw = np.array([[grid.kappa1[0, 0], k2], [np.conj(k2), grid.kappa4[0, 0]]])
    assert np.max(np.abs(bob_raw - proj.bob_state * proj.outcome_weight * pre)) <= 1e-12
    # The fidelity divides by the branch weight, which amplifies rounding.
    if proj.outcome_weight > 1e-3:
        assert abs(grid.fidelity[0, 0] - proj.fidelity) <= 1e-12


def test_legacy_variant_distorts_the_initial_state():
    # the paper's printed form carries inconsistent index shifts; it does
    # not reproduce the preparation at t = 0 and is kept only for comparison
    init = BELL_INIT
    field = coherent_weights(5.0)
    sectors = np.arange(field.n_max + 2)
    legacy = legacy_quadruples(sectors, 0.0, 1.0, 1.0, init, field, 1.0)
    rho = table_density(AmplitudeTable(scatter_sectors(legacy.T, 0.0)[None]))[0][0]
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


def phase_variance_node_loop(t, gamma):
    # The rule one node at a time, accumulated in node order.
    from numpy.polynomial.legendre import leggauss

    t = np.asarray(t, dtype=float)
    total = np.zeros(t.shape)
    for node, weight in zip(*leggauss(64)):
        tau = 0.5 * (node + 1.0) * t
        gt2 = gamma * tau * tau
        total += weight * (t - tau) * (2.0 * gamma * (1.0 - gt2) * np.exp(-gt2))
    return t * total


@pytest.mark.parametrize("gamma", [0.7, 1.0])
def test_phase_variance_broadcast_matches_the_node_loop(gamma):
    grid = np.linspace(0.1, 5.0, 50)
    for t in (np.abs(grid[:, None] - grid[None, :]),  # _phase_chunks' lag matrix
              np.array([0.005, 0.3, 1.0, 2.5, 6.0, 10.0]), np.array([3.0]), 3.0):
        got = oracle._phase_variance(t, gamma)
        want = phase_variance_node_loop(t, gamma)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_monte_carlo_rejects_the_gammas_averaged_q_rejects():
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


@pytest.mark.parametrize("gamma", [1e12, 1e308])
def test_monte_carlo_rejects_phases_past_its_quadrature_range(gamma):
    # At t sqrt(gamma) = 1e6 the quadrature's variance is 0, so the sampler
    # returned exactly 1 where q is 0; at 1e154 it returned nan.
    with pytest.raises(ValueError, match="exceeds 40"):
        monte_carlo_q(np.array([1.0]), gamma)


def test_monte_carlo_samples_up_to_its_quadrature_range():
    out = monte_carlo_q(np.array([40.0]), 1.0, seed=8, n_samples=4000)
    assert abs(out.q_mean[0].real - averaged_q(40.0, 1.0)) <= 5.0 * out.stderr[0]


# ---------------------------------------------------------------- joint averaging

MIXED_INIT = AtomicInit(0.6, 0.3 + 0.1j, -0.2, math.sqrt(1.0 - 0.36 - 0.1 - 0.04))


def sampled_phase_factors(t, gamma, n_samples, seed=8):
    # p = e^{i phi(t)} over the process monte_carlo_q samples.
    phi = np.concatenate(list(oracle._phase_chunks(np.array([t]), gamma, seed, n_samples)))
    return np.exp(1j * phi[:, 0])


@pytest.mark.parametrize("t, gamma", [(0.5, 1.0), (2.0, 0.5), (3.0, 0.2), (1.0, 4.0)])
def test_phase_moments_are_q_and_q_to_the_fourth(t, gamma):
    # The joint channel's moments: for a Gaussian phase of variance V,
    # <e^{i phi}> = exp(-V/2) = q and <e^{2i phi}> = exp(-2V) = q^4.
    p = sampled_phase_factors(t, gamma, 20000)
    for sample, want in zip((p, p * p), gaussian_moments(averaged_q(t, gamma))):
        mean = sample.mean()
        se_re, se_im = (np.std(part, ddof=1) / math.sqrt(sample.size)
                        for part in (sample.real, sample.imag))
        assert abs(mean.real - want) <= 4.0 * se_re, (mean, want, se_re)
        assert abs(mean.imag) <= 4.0 * se_im, (mean, se_im)


def test_joint_average_is_a_density_and_differs_from_scalar_substitution():
    init = BELL_INIT
    field = coherent_weights(2.0)
    q = averaged_q(2.0, 0.5)
    joint, _ = joint_averaged_density(2.0, *gaussian_moments(q), init, field, 1.0)
    require_density_matrix(joint)
    scalar, _ = table_density(amplitude_table(sector_basis(2.0, init, field, 1.0), q))
    assert np.max(np.abs(joint - scalar[0])) > 1e-4
    # Fully dephased moments, which averaged_q reaches once pi * gamma
    # overflows, still give a state, and one far from the frozen state.
    dephased, _ = joint_averaged_density(1.0, 0.0, 0.0, MIXED_INIT, field, 1.0)
    require_density_matrix(dephased)
    frozen, _ = joint_averaged_density(1.0, 1.0, 1.0, MIXED_INIT, field, 1.0)
    assert np.max(np.abs(frozen - dephased)) > 0.1


def test_joint_average_sampling_matches_analytic_moments():
    init = BELL_INIT
    field = coherent_weights(2.0)
    q = averaged_q(2.0, 0.5)
    analytic, _ = joint_averaged_density(2.0, *gaussian_moments(q), init, field, 1.0)
    p = sampled_phase_factors(2.0, 0.5, 20000)
    sampled, _ = joint_averaged_density(2.0, p.mean(), (p * p).mean(), init, field, 1.0)
    assert np.max(np.abs(analytic - sampled)) <= 0.02
    assert negativity(sampled) >= 0.0


def per_sample_joint_average(t, p, init, field, omega_rabi):
    # One amplitude table per sampled phase factor, then sum v v^H / n.
    basis = sector_basis(np.full(p.size, t), init, field, omega_rabi)
    v = _build_table(basis, p[:, None], np.conj(p)[:, None]).photon
    rho = np.einsum("sim,sjm->ij", v, np.conj(v)) / p.size
    pre = float(np.trace(rho).real)
    return rho / pre, pre


@pytest.mark.parametrize("init", [BELL_INIT, MIXED_INIT])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 30.0])
def test_joint_average_sample_moments_match_the_per_sample_average(init, gamma):
    field = coherent_weights(2.0)
    p = sampled_phase_factors(2.0, gamma, 500)
    rho, pre = joint_averaged_density(2.0, p.mean(), (p * p).mean(), init, field, 1.0)
    want_rho, want_pre = per_sample_joint_average(2.0, p, init, field, 1.0)
    assert np.max(np.abs(rho - want_rho)) <= 1e-12
    assert abs(pre - want_pre) <= 1e-12


@pytest.mark.parametrize("t", [0, 100])
@pytest.mark.parametrize("q", [float("nan"), -0.5, 1.5])
def test_joint_average_rejects_q_outside_the_unit_interval(q, t):
    # The analytic pair of a q outside [0, 1]: (-0.5, 0.0625) lies on the
    # unit disc, so only the q check stops it. Rejected at t = 0 too, where
    # the state does not depend on the moments.
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
        joint_averaged_density(t, *gaussian_moments(q), BELL_INIT, coherent_weights(2.0), 1.0)
    for edge in (0.0, 1.0):
        assert gaussian_moments(edge) == (edge, edge ** 4)


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -1.5, 0.9 + 0.9j])
def test_joint_average_rejects_moments_off_the_unit_disc(bad):
    for m1, m2 in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError, match="moments must lie on the unit disc"):
            joint_averaged_density(2.0, m1, m2, BELL_INIT, coherent_weights(2.0), 1.0)
