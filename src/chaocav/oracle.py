"""Independent cross-checks for the closed-form dynamics.

Everything here rebuilds the physics from first principles: the sector
Hamiltonians are written down directly and propagated exactly through
numpy's Hermitian eigensolver, the random phase factor is re-estimated by
Monte Carlo over the Gaussian phase whose exact mean is averaged_q (its
variance integrated from the frequency covariance), and teleportation is
re-done by explicit Bell projection. run_verification bundles the
comparisons into a pass/fail report; the same checks back the test suite.
This is also the only module that keeps the paper's printed amplitude
formulas (legacy_quadruples), as a documented comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (INV_SQRT2, SQRT2, AmplitudeTable, AtomicInit, amplitude_table,
                       averaged_q, deterministic_table, erf_array, frozen_phases,
                       gather_sectors, padded_weights, scatter_sectors, sector_basis,
                       start_quadruples, table_density, _build_table)
from .entanglement import negativity
from .field import coherent_weights
from .linalg import (InvariantViolation, partial_transpose, require_density_matrix,
                     tensor)
from .sweep import sweep_grid
from .teleport import UnknownQubit, bell_project_teleport

#: Single-atom operators in the (|g>, |e>) basis; S_Z has eigenvalues -1, +1.
S_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
S_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
S_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def build_block(n, omega_rabi):
    """4x4 Hamiltonian of sector n, written down independently of the closed form.

    The basis is (|gg,n+1>, |ge,n>, |eg,n>, |ee,n-1>), in the interaction
    picture (zero diagonal) with the coupling phase frozen and the field
    coupling as the unit of energy, so the couplings are -sqrt(n+1) and
    -sqrt(n). At n = 0 the |ee,-1> couplings carry sqrt(n) = 0, so that
    row and column are zero.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"sector index must be >= 0, got {n}")
    root_up = math.sqrt(n + 1.0)
    root_dn = math.sqrt(float(n))
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = h[0, 2] = h[2, 0] = -root_up
    h[1, 3] = h[3, 1] = h[2, 3] = h[3, 2] = -root_dn
    h[1, 2] = h[2, 1] = omega_rabi
    return h


def full_hamiltonian(n_fock, omega_rabi):
    """Two atoms and a truncated Fock space assembled from operator tensors.

    Used to confirm that the sector blocks really are the restriction of
    one global Hamiltonian. n_fock is the Fock-space dimension (levels
    0..n_fock-1).
    """
    if n_fock < 2:
        raise ValueError("n_fock must be at least 2")
    id2 = np.eye(2, dtype=complex)
    idf = np.eye(n_fock, dtype=complex)
    lower = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)
    sp1 = tensor(S_PLUS, id2, idf)
    sm1 = tensor(S_MINUS, id2, idf)
    sp2 = tensor(id2, S_PLUS, idf)
    sm2 = tensor(id2, S_MINUS, idf)
    af = tensor(id2, id2, lower)
    adf = af.conj().T
    h = omega_rabi * (sp1 @ sm2 + sm1 @ sp2)
    return h - (af @ (sp1 + sp2) + adf @ (sm1 + sm2))


def integrate_schrodinger(init, field, sectors, times, omega_rabi):
    """Exact sector amplitudes with the coupling phase frozen.

    Every block is a constant Hermitian 4x4 matrix, so with w, V from
    numpy's eigh the state at time t is V exp(-i w t) V^H psi0, psi0 the
    factorized initial state. Returns the (S, 4) state of the sectors at
    each of the times.
    """
    if any(n < 0 or n > field.n_max + 1 for n in sectors):
        raise ValueError(f"sectors must lie in 0..{field.n_max + 1}")
    times = [float(t) for t in times]
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError(f"times must be finite and >= 0, got {times}")
    w, v = np.linalg.eigh(np.stack([build_block(n, omega_rabi) for n in sectors]))
    psi0 = start_quadruples(np.asarray(sectors, dtype=int), init, padded_weights(field))
    coeff = np.einsum("sji,sj->si", v.conj(), psi0)
    return [np.einsum("sij,sj->si", v, np.exp(-1j * w * t) * coeff) for t in times]


def legacy_quadruples(sectors, t, q_plus, q_minus, init, field, omega_rabi):
    """The paper's printed sector quadruples at time t, index errors included.

    The printed algebraic form shifts its indices inconsistently: it does
    not reproduce the initial state at t = 0 and departs from the
    integrator at omega = 0. It is kept, unrepaired, only as verify's verbatim_* INFO
    comparison; every sweep runs the exact form of dynamics. q_plus and
    q_minus stand for the random phase factor and its inverse: scalars,
    or one value per sector such as the frozen phases of
    dynamics.deterministic_table. Returns an (S, 4) array in the layout of
    integrate_schrodinger's states, with no |gg,0> component.
    """
    c00, c01, c10, c11 = init.c00, init.c01, init.c10, init.c11
    ns = np.asarray(sectors)
    nf = ns.astype(float)
    wn = padded_weights(field)[ns]
    qp = np.asarray(q_plus, dtype=complex)
    qm = np.asarray(q_minus, dtype=complex)
    ep = np.exp(-1j * omega_rabi * float(t))
    em = np.conj(ep)
    pref = 1.0 / (2.0 * SQRT2 * (2.0 * nf + 1.0))
    com = c00 * qp - c01 * qm
    amp_a = wn * (np.sqrt(nf + 1.0) * pref * ep * com
                  + ep / (2.0 * np.sqrt(nf + 1.0)) * (c11 - pref * (c00 - c01)))
    amp_b = wn * (ep / (4.0 * np.sqrt(2.0 * nf + 1.0)) * com - 0.5 * c10 * em)
    amp_c = wn * (ep / (4.0 * np.sqrt(2.0 * nf + 1.0)) * com + 0.5 * c10 * em)
    amp_d = wn * (np.sqrt(nf) * pref * ep * com
                  - ep / (2.0 * np.sqrt(nf + 1.0)) * (c11 - pref * (c01 - c00)))
    # |ee,-1> does not exist, so the n = 0 quadruple has no d component.
    amp_d = np.where(ns > 0, amp_d, 0.0j)
    return np.stack([amp_a, amp_b, amp_c, amp_d], axis=-1)


@functools.cache
def _legendre_rule():
    """64-node Gauss-Legendre rule as (tau / t, weight) columns, built once.

    Imported here, so importing the package does not load numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(64)
    return 0.5 * (nodes + 1.0), weights


def _phase_variance(t, gamma):
    """Phase variance V(t) = 2 int_0^t (t - tau) C(tau) dtau, elementwise over t.

    C(tau) = 2 gamma (1 - gamma tau^2) exp(-gamma tau^2) is the frequency
    covariance, integrated by a 64-node Gauss-Legendre rule on [0, t]. So
    the Monte Carlo check reaches averaged_q = exp(-V/2) by a route apart
    from its closed form sqrt(pi) s erf(s), s = t sqrt(gamma); the two agree
    to about 1e-14 relative up to s = 40, where exp(-V/2) is below 1e-15.
    """
    frac, weights = _legendre_rule()
    t = np.asarray(t, dtype=float)
    axes = (slice(None),) + (None,) * t.ndim
    tau = frac[axes] * t
    gt2 = gamma * tau * tau
    terms = weights[axes] * (t - tau) * (2.0 * gamma * (1.0 - gt2) * np.exp(-gt2))
    return t * terms.sum(axis=0)


@dataclass(frozen=True)
class MonteCarloQ:
    """Sample mean of exp(i phi(t)) with the standard error of its real part."""

    q_mean: np.ndarray
    stderr: np.ndarray
    n_samples: int


def _phase_chunks(t_grid, gamma, seed, n_samples):
    """The sampled phases phi(t_grid) as (m, T) arrays of at most 8,192 draws.

    The phases are one multivariate normal with
    Cov(phi(a), phi(b)) = (V(a) + V(b) - V(|a - b|)) / 2. In floating point
    that matrix is only semidefinite, so it is factored with eigh and its
    negative eigenvalues are clipped to 0. At gamma = 0 every phase is 0.
    Memory does not grow with n_samples. Raises ValueError past
    t sqrt(gamma) = 40, where _phase_variance loses its digits.
    """
    s_max = t_grid.max(initial=0.0) * math.sqrt(gamma)
    if s_max > 40.0:
        raise ValueError(f"t * sqrt(gamma) = {s_max:.3g} exceeds 40, the range of the "
                         "phase variance quadrature")
    var = _phase_variance(t_grid, gamma)
    lag = _phase_variance(np.abs(t_grid[:, None] - t_grid[None, :]), gamma)
    eig, vecs = np.linalg.eigh(0.5 * (var[:, None] + var[None, :] - lag))
    root_t = (vecs * np.sqrt(np.clip(eig, 0.0, None))).T
    rng = np.random.Generator(np.random.Philox(seed))
    for start in range(0, n_samples, 8192):
        yield rng.standard_normal((min(8192, n_samples - start), t_grid.size)) @ root_t


def monte_carlo_q(t_grid, gamma, seed=0, n_samples=20000):
    """Monte Carlo estimate of the averaged phase factor on a time grid.

    Samples the Gaussian phase whose exact mean is averaged_q(t, gamma)
    jointly on the grid (_phase_chunks) and sums chunk by chunk. The real
    part goes through 1 - cos(phi) = 2 sin(phi/2)^2, so the standard error
    keeps its digits where cos(phi) is close to 1. gamma = 0 gives q = 1
    with zero error, exactly. Deterministic for a fixed (gamma, seed).
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be finite, got {t_grid}")
    if np.any(t_grid < 0.0) or np.any(np.diff(t_grid) < 0.0):
        raise ValueError("t_grid must be nonnegative and nondecreasing")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    sum_y = np.zeros(t_grid.shape)
    sum_y2 = np.zeros(t_grid.shape)
    sum_sin = np.zeros(t_grid.shape)
    for phi in _phase_chunks(t_grid, gamma, seed, n_samples):
        sum_sin += np.sin(phi).sum(axis=0)
        # Rebinding phi to 1 - cos(phi) frees the draw; one chunk outlives the step.
        phi = 2.0 * np.sin(0.5 * phi) ** 2
        sum_y += phi.sum(axis=0)
        sum_y2 += (phi * phi).sum(axis=0)
    q_mean = (1.0 - sum_y / n_samples) + 1j * (sum_sin / n_samples)
    var = (sum_y2 - sum_y * sum_y / n_samples) / (n_samples - 1)
    return MonteCarloQ(q_mean=q_mean, stderr=np.sqrt(var / n_samples), n_samples=n_samples)


def gaussian_moments(q):
    """Phase moments (<p>, <p^2>) = (q, q^4) of a Gaussian phase with <p> = q.

    The analytic pair for joint_averaged_density, with q from averaged_q.
    A Gaussian phase has q in [0, 1]; anything else, NaN included, is
    rejected here, since a pair such as (-0.5, 0.0625) lies on the unit disc.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:  # NaN fails too
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return q, q ** 4


def joint_averaged_density(t, m1, m2, init, field, omega_rabi):
    """Two-atom state averaged jointly over the phase factor pair.

    The amplitudes are v = vx p + vy conj(p) + base, linear in the phase
    factor p = e^{i phi} and its inverse. Since |p| = 1, the average of
    v v^H needs only the moments m1 = <p> and m2 = <p^2>:
    vx vx^H + vy vy^H + base base^H + H + H^H with
    H = m2 vx vy^H + m1 (vx base^H + base vy^H). With a Gaussian
    accumulated phase the exact moments are gaussian_moments(q) = (q, q^4)
    with q = averaged_q(t, gamma); sample means of p and p^2 over
    _phase_chunks give the sampled average. Contrast with the scalar channel,
    table_density(amplitude_table(...)), which substitutes the scalar mean
    for both factors before forming the density. Moments of a unimodular
    p lie on the closed unit disc; anything else, NaN included, is rejected.

    Returns (rho, pre_norm_trace) like table_density, for one time. The
    map preserves the trace up to the field's truncated tail mass, so
    pre_norm_trace stays within eps_trunc of 1 and the renormalisation is
    cosmetic. The acceptance gate checks the gamma-ordering guarantee
    (entanglement falls as gamma rises) on this state.
    """
    m1, m2 = complex(m1), complex(m2)
    if not (abs(m1) <= 1.0 and abs(m2) <= 1.0):  # NaN fails too
        raise ValueError(f"moments must lie on the unit disc, got m1={m1}, m2={m2}")
    basis = sector_basis(float(t), init, field, omega_rabi)
    one = np.ones((1, 1), dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    base = _build_table(basis, zero, zero).photon[0]
    vx = _build_table(basis, one, zero).photon[0] - base
    vy = _build_table(basis, zero, one).photon[0] - base
    cross = m2 * (vx @ vy.conj().T) + m1 * (vx @ base.conj().T + base @ vy.conj().T)
    rho = (vx @ vx.conj().T + vy @ vy.conj().T + base @ base.conj().T
           + cross + cross.conj().T)
    pre = float(np.trace(rho).real)
    if pre <= 0.0:
        raise InvariantViolation("jointly averaged state carries no weight")
    return rho / pre, pre


@dataclass(frozen=True)
class VerifyCheck:
    """One verification row: PASS/FAIL for asserted checks, INFO for reports."""

    name: str
    status: str
    detail: str


def mc_short_time(gamma, seed):
    """Monte Carlo mean at t = 0.005 and 0.01 against averaged_q.

    Returns (ok, detail) from 100,000 samples. ok holds when both gaps
    are within three standard errors, which fails by chance for a few
    seeds in a thousand.
    """
    t_grid = np.array([0.005, 0.01])
    mc = monte_carlo_q(t_grid, gamma, seed=seed, n_samples=100000)
    gaps = np.abs(mc.q_mean.real - averaged_q(t_grid, gamma))
    detail = "; ".join(f"t={t}: gap {gap:.2e} vs 3*se {3.0 * se:.2e}"
                       for t, gap, se in zip(t_grid, gaps, mc.stderr))
    return bool(np.all(gaps <= 3.0 * mc.stderr)), detail


def _doe_reference(rho):
    # LAPACK's general eigensolver (zgeev) on the partial transpose, not the
    # Hermitian one (zheevd) that production's 4x4 route calls, so that no
    # production solver checks itself. Used only as a cross-check.
    mu = np.linalg.eigvals(partial_transpose(rho)).real
    return max(0.0, float(np.sum(np.abs(mu)) - 1.0))


def run_verification(seed=8):
    """Re-derive the headline quantities independently and compare.

    Returns VerifyCheck rows; any FAIL means the closed-form dynamics and
    the independent reconstruction disagree beyond tolerance. Statistical
    rows are deterministic for a fixed seed. They are 3-sigma gates, so
    any seed may fail one by chance; none of the seeds 0..119 does.
    """
    rows = []

    def check(name, ok, detail):
        rows.append(VerifyCheck(name=name, status="PASS" if ok else "FAIL", detail=detail))

    def info(name, detail):
        rows.append(VerifyCheck(name=name, status="INFO", detail=detail))

    # Spin algebra of the hand-written operators.
    comm = np.abs(S_Z @ S_PLUS - S_PLUS @ S_Z - 2.0 * S_PLUS).max()
    comm = max(comm, np.abs(S_Z @ S_MINUS - S_MINUS @ S_Z + 2.0 * S_MINUS).max())
    comm = max(comm, np.abs(S_PLUS @ S_MINUS - S_MINUS @ S_PLUS - S_Z).max())
    check("spin_commutators", comm == 0.0, f"max residual {comm:.1e}")

    # The error function the sweeps evaluate, against the math library.
    xs = np.linspace(-8.0, 8.0, 1601)
    err = float(np.max(np.abs(erf_array(xs) - np.array([math.erf(x) for x in xs.tolist()]))))
    edge = erf_array(np.array([3.0 - 1e-12, 3.0 + 1e-12]))
    jump = abs(float(edge[0] - edge[1]))
    check("erf_reference", err <= 1e-12 and jump <= 1e-12,
          f"max |diff| {err:.2e}, branch jump {jump:.2e}")

    # Limits and monotonicity of the averaged phase factor.
    ts = np.linspace(0.0, 12.0, 121)
    q0 = averaged_q(ts, 0.0)
    ok = bool(np.all(q0 == 1.0)) and averaged_q(0.0, 3.7) == 1.0
    last = None
    for gamma in (0.05, 0.3, 1.0):
        qs = averaged_q(ts, gamma)
        ok = ok and bool(np.all(qs > 0.0)) and bool(np.all(qs <= 1.0))
        ok = ok and bool(np.all(np.diff(qs) <= 1e-15))
        if last is not None:
            ok = ok and bool(np.all(qs <= last + 1e-15))
        last = qs
    check("q_limits", ok, "q(t,0)=1, q(0,g)=1, monotone in t and gamma")

    # Exact propagation of every sector without the spin-spin term, at
    # t = 0.5 and 1, and of the checked sectors with it, at t = 1 and 10.
    field = coherent_weights(5.0)
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    every = list(range(field.n_max + 2))
    sectors = [0, 1, 5, 25]
    psi_half, psi_1 = integrate_schrodinger(init, field, every, (0.5, 1.0), 0.0)
    amps1, psi10 = integrate_schrodinger(init, field, sectors, (1.0, 10.0), 1.0)
    ground = complex(field.weights[0] * init.c00)
    amps0 = psi_1[sectors]

    # Closed form against the integrator, sector by sector, no spin-spin term.
    table = deterministic_table(sector_basis(1.0, init, field, 0.0))
    dev = float(np.abs(gather_sectors(table.photon[0], sectors) - amps0).max())
    dev = max(dev, abs(complex(table.photon_a[0, 0]) - ground))
    check("amplitudes_vs_integrator", dev <= 1e-12,
          f"max |closed - exact| {dev:.2e} over sectors {sectors} at t=1")

    # The same comparison with the spin-spin coupling on: the closed form
    # treats those phases approximately, so this is reported, not asserted.
    table1 = deterministic_table(sector_basis(1.0, init, field, 1.0))
    dev1 = float(np.abs(gather_sectors(table1.photon[0], sectors) - amps1).max())
    info("amplitudes_vs_integrator_rabi",
         f"spin-spin phases are approximate: max |closed - exact| {dev1:.2e} at omega=1, t=1")

    # The paper's printed formulas: document, do not assert.
    legacy0 = legacy_quadruples(every, 0.0, 1.0, 1.0, init, field, 1.0)
    rho_vb = table_density(AmplitudeTable(scatter_sectors(legacy0.T, 0.0)[None]))[0][0]
    c = init.as_vector()
    prep = np.outer(c, np.conj(c))
    dev_vb = float(np.abs(rho_vb - prep).max())
    info("verbatim_initial_state",
         f"verbatim state at t=0 deviates from the preparation by {dev_vb:.3f} (max element)")
    # The frozen phases of deterministic_table at t = 1.
    q_frozen = frozen_phases(1.0, sectors)[0]
    legacy = legacy_quadruples(sectors, 1.0, q_frozen, np.conj(q_frozen), init, field, 0.0)
    dev_vb1 = float(np.abs(legacy - amps0).max())
    info("verbatim_vs_integrator", f"max |verbatim - exact| {dev_vb1:.3f} at omega=0, t=1")

    # Long-horizon norm conservation of the propagator itself.
    psi0 = start_quadruples(sectors, init, padded_weights(field))
    drift = abs(float(np.sum(np.abs(psi10) ** 2) - np.sum(np.abs(psi0) ** 2)))
    drift /= float(np.sum(np.abs(psi0) ** 2))
    check("norm_conservation", drift < 1e-12,
          f"relative drift {drift:.2e} at t=10 (tolerance 1e-12)")

    # gamma = 0 must freeze the averaged channel at the preparation exactly.
    ts = np.linspace(0.0, 3.0, 7)
    basis = sector_basis(ts, init, field, 0.0)
    rho_avg, _ = table_density(amplitude_table(basis, averaged_q(ts, 0.0)))
    dev_frz = float(np.abs(rho_avg - prep).max())
    doe_frz = abs(negativity(rho_avg[3]) - _doe_reference(prep))
    check("averaged_frozen_limit", dev_frz <= 1e-12 and doe_frz <= 1e-12,
          f"max state diff {dev_frz:.2e}, negativity diff {doe_frz:.2e}")

    # Entanglement of the frozen-phase dynamics against the integrator.
    doe_dev = 0.0
    for t_chk, psi in ((0.5, psi_half), (1.0, psi_1)):
        rho_cf = table_density(deterministic_table(sector_basis(t_chk, init, field, 0.0)))[0][0]
        rho_ex = table_density(AmplitudeTable(scatter_sectors(psi.T, ground)[None]))[0][0]
        doe_dev = max(doe_dev, abs(negativity(rho_cf) - _doe_reference(rho_ex)))
    check("negativity_vs_integrator", doe_dev <= 1e-12,
          f"max negativity diff {doe_dev:.2e} at t in (0.5, 1.0)")

    # The sweep's teleportation columns against explicit Bell projection.
    qubits = [UnknownQubit(0.95, math.sqrt(1.0 - 0.95 ** 2)),
              UnknownQubit(0.6, 0.8j)]
    t_spots = (0.3, 1.2, 2.7)
    gamma_spots = (0.1, 0.9)
    grids = [sweep_grid(t_spots, gamma_spots, init, field, unknown, omega_rabi=1.0)
             for unknown in qubits]
    tele_dev = 0.0
    for i, gamma in enumerate(gamma_spots):
        for k, t_chk in enumerate(t_spots):
            q = averaged_q(t_chk, gamma)
            rho_ch = table_density(amplitude_table(sector_basis(t_chk, init, field, 1.0), q))[0][0]
            for unknown, grid in zip(qubits, grids):
                proj = bell_project_teleport(rho_ch, unknown)[0]
                k2 = grid.kappa2[i, k]
                bob = np.array([[grid.kappa1[i, k], k2], [np.conj(k2), grid.kappa4[i, k]]])
                bob /= grid.weight[i, k]
                tele_dev = max(tele_dev,
                               abs(grid.fidelity[i, k] - proj.fidelity),
                               float(np.abs(bob - proj.bob_state).max()),
                               abs(grid.weight[i, k] / grid.pre_norm_trace[i, k]
                                   - proj.outcome_weight))
    check("teleport_projection_consistency", tele_dev <= 1e-9,
          f"max |closed - projected| {tele_dev:.2e} over the spot grid")

    # A perfect Bell channel must teleport any qubit with unit fidelity
    # on every measurement branch.
    rng = np.random.Generator(np.random.Philox(seed))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = INV_SQRT2
    rho_bell = np.outer(bell, np.conj(bell))
    bell_dev = 0.0
    for _ in range(40):
        raw = rng.normal(size=4)
        vec = (raw[0] + 1j * raw[1], raw[2] + 1j * raw[3])
        norm = math.sqrt(abs(vec[0]) ** 2 + abs(vec[1]) ** 2)
        unknown = UnknownQubit(vec[0] / norm, vec[1] / norm)
        for out in bell_project_teleport(rho_bell, unknown):
            bell_dev = max(bell_dev, abs(out.fidelity - 1.0),
                           abs(out.outcome_weight - 0.25))
    check("bell_channel_fidelity", bell_dev <= 1e-12,
          f"max deviation from unit fidelity and weight 1/4: {bell_dev:.2e}")

    # The sampled phase must reproduce averaged_q at short times and its decay rate.
    gamma_mc = 1.0
    check("mc_short_time", *mc_short_time(gamma_mc, seed))
    t_long = 3.0
    mc_long = monte_carlo_q(np.array([t_long]), gamma_mc, seed=seed, n_samples=100000)
    rate_hat = -math.log(float(mc_long.q_mean[0].real)) / t_long
    rate_expect = -math.log(float(averaged_q(t_long, gamma_mc))) / t_long
    rel = abs(rate_hat - rate_expect) / rate_expect
    check("mc_decay_rate", rel <= 0.05,
          f"estimated rate {rate_hat:.4f} vs {rate_expect:.4f} ({100 * rel:.2f}% off)")

    # Standard-error scaling of the estimator: quadrupling the samples
    # should halve the standard error.
    se_a = monte_carlo_q(np.array([1.0]), 1.0, seed=seed + 1, n_samples=5000).stderr[0]
    se_b = monte_carlo_q(np.array([1.0]), 1.0, seed=seed + 2, n_samples=20000).stderr[0]
    ratio = se_a / se_b
    check("mc_stderr_scaling", 1.8 <= ratio <= 2.2,
          f"se(n)/se(4n) = {ratio:.3f}, expected about 2")

    # Scalar substitution versus the jointly averaged second moments.
    joint_dev = 0.0
    for t_chk in (1.0, 3.0):
        q = averaged_q(t_chk, 0.5)
        rho_s = table_density(amplitude_table(sector_basis(t_chk, init, field, 1.0), q))[0][0]
        rho_j, _ = joint_averaged_density(t_chk, *gaussian_moments(q), init, field, 1.0)
        joint_dev = max(joint_dev, float(np.abs(rho_s - rho_j).max()))
    info("scalar_vs_joint_average",
         f"scalar substitution differs from joint moments by up to {joint_dev:.3f}")
    q = averaged_q(2.0, 0.5)
    rho_j, _ = joint_averaged_density(2.0, *gaussian_moments(q), init, field, 1.0)
    phi = np.concatenate(list(_phase_chunks(np.array([2.0]), 0.5, seed, 3000)))
    p = np.exp(1j * phi[:, 0])
    rho_m, _ = joint_averaged_density(2.0, p.mean(), (p * p).mean(), init, field, 1.0)
    info("joint_mc_consistency",
         f"analytic vs sampled joint moments differ by {float(np.abs(rho_j - rho_m).max()):.2e}")

    # Every averaged state on a coarse grid must be a valid density matrix.
    ok_grid = True
    worst = ""
    ts = np.linspace(0.0, 10.0, 21)
    basis = sector_basis(ts, init, field, 1.0)
    for gamma in (0.0, 0.3, 0.8):
        rhos, _ = table_density(amplitude_table(basis, averaged_q(ts, gamma)))
        for k in range(ts.size):
            try:
                require_density_matrix(rhos[k], context=f"t={ts[k]}, gamma={gamma}")
            except InvariantViolation as exc:
                ok_grid = False
                worst = str(exc)
                break
    check("density_invariants", ok_grid, worst or "Hermitian, unit trace, positive on the grid")

    return rows
