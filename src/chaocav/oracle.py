"""Independent cross-checks for the closed-form dynamics.

Everything here rebuilds the physics from first principles: the sector
Hamiltonians are written down directly and integrated with a fixed-step
RK4 scheme, the random phase factor is re-estimated by Monte Carlo over
an Ornstein-Uhlenbeck surrogate, and teleportation is re-done by
explicit Bell projection. run_verification bundles the comparisons into
a pass/fail report; the same checks back the test suite. This is also the
only module that keeps the paper's printed amplitude formulas
(legacy_quadruples), as a documented comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (SQRT2, AtomicInit, ModelParams, ReducedState, atomic_density,
                       averaged_q, deterministic_density, deterministic_table,
                       erf_array, _build_table)
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

NORM_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class HamiltonianBlock:
    """One excitation sector over (|gg,n+1>, |ge,n>, |eg,n>, |ee,n-1>)."""

    n: int
    matrix: np.ndarray


def build_block(n, params, kf_x=0.0, interaction_picture=True, omega0=1.0, omega_f=1.0):
    """Sector Hamiltonian written down independently of the closed form.

    With interaction_picture the bare atomic and field energies are
    subtracted, which zeroes the diagonal of every sector. The n = 0
    block has its |ee,-1> row and column removed entirely.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"sector index must be >= 0, got {n}")
    g = params.g0 * math.cos(kf_x)
    root_up = math.sqrt(n + 1.0)
    root_dn = math.sqrt(float(n))
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = h[0, 2] = h[2, 0] = -g * root_up
    h[1, 3] = h[3, 1] = h[2, 3] = h[3, 2] = -g * root_dn
    h[1, 2] = h[2, 1] = params.omega_rabi
    if not interaction_picture:
        h[0, 0] = -2.0 * omega0 + omega_f * (n + 1.0)
        h[1, 1] = h[2, 2] = omega_f * n
        h[3, 3] = 2.0 * omega0 + omega_f * (n - 1.0)
    if n == 0:
        h[3, :] = 0.0
        h[:, 3] = 0.0
    return HamiltonianBlock(n=n, matrix=h)


def full_hamiltonian(n_fock, params, kf_x=0.0, interaction_picture=True,
                     omega0=1.0, omega_f=1.0):
    """Two atoms and a truncated Fock space assembled from operator tensors.

    Used to confirm that the sector blocks really are the restriction of
    one global Hamiltonian. n_fock is the Fock-space dimension (levels
    0..n_fock-1).
    """
    if n_fock < 2:
        raise ValueError("n_fock must be at least 2")
    g = params.g0 * math.cos(kf_x)
    id2 = np.eye(2, dtype=complex)
    idf = np.eye(n_fock, dtype=complex)
    lower = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)
    sp1 = tensor(S_PLUS, id2, idf)
    sm1 = tensor(S_MINUS, id2, idf)
    sp2 = tensor(id2, S_PLUS, idf)
    sm2 = tensor(id2, S_MINUS, idf)
    af = tensor(id2, id2, lower)
    adf = af.conj().T
    h = params.omega_rabi * (sp1 @ sm2 + sm1 @ sp2)
    h = h - g * (af @ (sp1 + sp2) + adf @ (sm1 + sm2))
    if not interaction_picture:
        sz1 = tensor(S_Z, id2, idf)
        sz2 = tensor(id2, S_Z, idf)
        h = h + omega0 * (sz1 + sz2) + omega_f * (adf @ af)
    return h


def sector_basis_indices(n, n_fock):
    """Indices of (|gg,n+1>, |ge,n>, |eg,n>, |ee,n-1>) in the tensor space.

    The last entry is None for n = 0, where |ee,-1> does not exist.
    Raises if the sector pokes past the Fock truncation.
    """
    n = int(n)
    if n < 0 or n + 1 >= n_fock:
        raise ValueError(f"sector {n} needs Fock level {n + 1}, have 0..{n_fock - 1}")
    idx_gg = 0 * n_fock + (n + 1)
    idx_ge = 1 * n_fock + n
    idx_eg = 2 * n_fock + n
    idx_ee = 3 * n_fock + (n - 1) if n >= 1 else None
    return (idx_gg, idx_ge, idx_eg, idx_ee)


def rk4_evolve(blocks, psi0, t_final, dt=1e-4):
    """Fixed-step RK4 for d psi/dt = -i H psi with constant block-diagonal H.

    blocks has shape (S, d, d) and psi0 (S, d); a single (d, d) block
    with a (d,) vector also works. A trailing partial step lands exactly
    on t_final. Rows never mix, so blocks with different parameters can
    share one pass, each row ending bit for bit where a separate run would.
    """
    blocks = np.asarray(blocks, dtype=complex)
    psi = np.array(psi0, dtype=complex, copy=True)
    single = blocks.ndim == 2
    if single:
        blocks = blocks[None]
        psi = psi[None]
    t_final = float(t_final)
    dt = float(dt)
    if not math.isfinite(t_final) or t_final < 0.0:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")

    # -1j * H is exact, so folding it into the blocks once leaves every
    # digit of -1j * (H p) unchanged and saves a multiply per stage.
    gen = -1j * blocks

    def deriv(p):
        return np.einsum("sij,sj->si", gen, p)

    def step(p, h):
        k1 = deriv(p)
        k2 = deriv(p + 0.5 * h * k1)
        k3 = deriv(p + 0.5 * h * k2)
        k4 = deriv(p + h * k3)
        return p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_full = int(t_final / dt)
    for _ in range(n_full):
        psi = step(psi, dt)
    rem = t_final - n_full * dt
    if rem > 1e-15:
        psi = step(psi, rem)
    return psi[0] if single else psi


@dataclass(frozen=True)
class IntegratedState:
    """Sector amplitudes after numerical integration to t_final."""

    t_final: float
    sectors: np.ndarray
    amplitudes: np.ndarray
    ground: complex


def _sector_psi0(init, field, sectors):
    # The factorized initial state in each sector, one quadruple per row.
    w_ext = np.zeros(field.n_max + 3)
    w_ext[: field.n_max + 1] = field.weights
    return np.stack([np.array([w_ext[n + 1] * init.c00,
                               w_ext[n] * init.c01,
                               w_ext[n] * init.c10,
                               (w_ext[n - 1] * init.c11) if n >= 1 else 0.0j])
                     for n in sectors])


def _integrate_groups(init, field, groups, times, dt, **block_kw):
    # Integrates the sectors of every (params, sectors) group in one stacked
    # RK4 pass from the factorized initial state. The pass stops at each of
    # the increasing times and goes on from there; a stop a whole number of
    # steps after the last leaves the bits of one longer run. At every stop
    # each group's summed norm must stay within NORM_DRIFT_TOL of its start,
    # else dt is too large. Returns the stacked (S, 4) state at each time.
    blocks = np.concatenate([np.stack([build_block(n, p, **block_kw).matrix for n in s])
                             for p, s in groups])
    psi0 = np.concatenate([_sector_psi0(init, field, s) for _, s in groups])
    edges = np.cumsum([0] + [len(s) for _, s in groups])
    states = []
    psi, t_prev = psi0, 0.0
    for t in times:
        psi = rk4_evolve(blocks, psi, t - t_prev, dt)
        for a, b in zip(edges[:-1], edges[1:]):
            norm0 = float(np.sum(np.abs(psi0[a:b]) ** 2))
            norm1 = float(np.sum(np.abs(psi[a:b]) ** 2))
            if norm0 > 0.0 and abs(norm1 - norm0) / norm0 > NORM_DRIFT_TOL:
                raise InvariantViolation(
                    f"integrator norm drifted by {abs(norm1 - norm0) / norm0:.3e} "
                    f"over t={t}; reduce dt (currently {dt})")
        states.append(psi)
        t_prev = t
    return states


def integrate_schrodinger(init, field, params, kf_x=0.0, t_final=1.0, dt=1e-4,
                          sectors=None, interaction_picture=True,
                          omega0=1.0, omega_f=1.0):
    """Numerically exact sector amplitudes for one frozen coupling phase.

    Integrates every requested sector of the block Hamiltonian from the
    factorized initial state. Raises InvariantViolation when the summed
    norm drifts by more than 1e-6, which signals that dt is too large.
    """
    if sectors is None:
        sectors = list(range(field.n_max + 2))
    sectors = [int(s) for s in sectors]
    if any(s < 0 or s > field.n_max + 1 for s in sectors):
        raise ValueError(f"sectors must lie in 0..{field.n_max + 1}")
    (psi,) = _integrate_groups(init, field, [(params, sectors)], [t_final], dt, kf_x=kf_x,
                               interaction_picture=interaction_picture,
                               omega0=omega0, omega_f=omega_f)
    ground = field.weights[0] * init.c00
    if not interaction_picture:
        ground *= np.exp(1j * 2.0 * omega0 * t_final)
    return IntegratedState(t_final=float(t_final), sectors=np.array(sectors),
                           amplitudes=psi, ground=complex(ground))


def sector_density(sectors, amplitudes, ground):
    """Renormalised two-atom state of sector quadruples, the field traced out.

    amplitudes is (S, 4): one (|gg,n+1>, |ge,n>, |eg,n>, |ee,n-1>)
    quadruple per sector n in sectors, the layout of
    IntegratedState.amplitudes; ground multiplies |gg,0>. The quadruples
    are regrouped by Fock level like dynamics.AmplitudeTable.photon.
    Returns (rho, pre_norm_trace).
    """
    rows = np.zeros((4, int(max(sectors)) + 2), dtype=complex)
    rows[0, 0] = ground
    for k, n in enumerate(sectors):
        rows[0, n + 1] = amplitudes[k, 0]
        rows[1, n] = amplitudes[k, 1]
        rows[2, n] = amplitudes[k, 2]
        if n >= 1:
            rows[3, n - 1] = amplitudes[k, 3]
    rho = rows @ rows.conj().T
    pre = float(np.trace(rho).real)
    if pre <= 0.0:
        raise InvariantViolation("sector state carries no weight")
    return rho / pre, pre


def legacy_quadruples(sectors, t, q_plus, q_minus, init, field, params):
    """The paper's printed sector quadruples at time t, index errors included.

    The printed algebraic form shifts its indices inconsistently: it does
    not reproduce the initial state at t = 0 and departs from the
    integrator at omega = 0. It is kept, unrepaired, only as verify's verbatim_* INFO
    comparison; every sweep runs the exact form of dynamics. q_plus and
    q_minus stand for the random phase factor and its inverse: scalars,
    or one value per sector such as the frozen phases of
    dynamics.deterministic_table. Returns an (S, 4) array in the layout of
    IntegratedState.amplitudes, with no |gg,0> component.
    """
    c00, c01, c10, c11 = init.c00, init.c01, init.c10, init.c11
    ns = np.asarray(sectors)
    nf = ns.astype(float)
    w_ext = np.zeros(field.n_max + 3)
    w_ext[: field.n_max + 1] = field.weights
    wn = w_ext[ns]
    qp = np.asarray(q_plus, dtype=complex)
    qm = np.asarray(q_minus, dtype=complex)
    ep = np.exp(-1j * params.omega_rabi * float(t))
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


@dataclass(frozen=True)
class NoiseSpec:
    """Phase-noise surrogate: a constant phase or an Ornstein-Uhlenbeck drive."""

    process: str = "ornstein_uhlenbeck"
    sigma: float = 0.0
    tau_c: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.process not in ("constant", "ornstein_uhlenbeck"):
            raise ValueError(f"unknown noise process {self.process!r}")
        if self.process == "ornstein_uhlenbeck" and (self.sigma <= 0.0 or self.tau_c <= 0.0):
            raise ValueError("ornstein_uhlenbeck noise needs sigma > 0 and tau_c > 0")


def noise_spec_for_gamma(gamma, seed=0):
    """Surrogate matched to the averaged channel at both ends of the time axis.

    Variance sigma^2 = 2 gamma reproduces the short-time decay
    exp(-gamma t^2); correlation time sqrt(pi)/(4 sqrt(gamma)) reproduces
    the long-time decay rate sqrt(pi gamma)/2. The surrogate's long-time
    average then carries a constant excess factor exp(pi/8).
    """
    gamma = float(gamma)
    if gamma <= 0.0:
        return NoiseSpec(process="constant", seed=seed)
    return NoiseSpec(process="ornstein_uhlenbeck",
                     sigma=math.sqrt(2.0 * gamma),
                     tau_c=math.sqrt(math.pi) / (4.0 * math.sqrt(gamma)),
                     seed=seed)


@dataclass(frozen=True)
class MonteCarloQ:
    """Sample mean of exp(i phi(t)) with the standard error of its real part."""

    t: np.ndarray
    q_mean: np.ndarray
    stderr: np.ndarray
    n_samples: int


def monte_carlo_q(t_grid, spec, n_samples=20000):
    """Monte Carlo estimate of the averaged phase factor on a time grid.

    The driving frequency follows the exact stationary discretization of
    the Ornstein-Uhlenbeck process (64 substeps per correlation time);
    the phase accumulates by the trapezoid rule. Deterministic for a
    fixed spec: the counter-based generator is seeded from spec.seed.
    The substeps draw into and update preallocated buffers, keeping the
    operand order of omega' = decay omega + kick z and
    phi += (h/2) (omega + omega'), so no substep allocates.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be finite, got {t_grid}")
    if np.any(t_grid < 0.0) or np.any(np.diff(t_grid) < 0.0):
        raise ValueError("t_grid must be nonnegative and nondecreasing")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if spec.process == "constant":
        return MonteCarloQ(t=t_grid, q_mean=np.ones(t_grid.shape, dtype=complex),
                           stderr=np.zeros(t_grid.shape), n_samples=n_samples)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    sigma, tau = spec.sigma, spec.tau_c
    omega = rng.normal(0.0, sigma, n_samples)
    omega_next = np.empty(n_samples)
    z = np.empty(n_samples)
    phi = np.zeros(n_samples)
    q_mean = np.empty(t_grid.shape, dtype=complex)
    stderr = np.empty(t_grid.shape)
    t_prev = 0.0
    for k, tk in enumerate(t_grid):
        seg = tk - t_prev
        if seg > 0.0:
            n_steps = max(1, int(math.ceil(seg / (tau / 64.0))))
            h = seg / n_steps
            decay = math.exp(-h / tau)
            kick = sigma * math.sqrt(1.0 - decay * decay)
            for _ in range(n_steps):
                rng.standard_normal(n_samples, out=z)
                np.add(np.multiply(decay, omega, out=omega_next),
                       np.multiply(kick, z, out=z), out=omega_next)
                phi += np.multiply(0.5 * h, np.add(omega, omega_next, out=z), out=z)
                omega, omega_next = omega_next, omega
        vals = np.exp(1j * phi)
        q_mean[k] = vals.mean()
        stderr[k] = float(np.std(vals.real, ddof=1) / math.sqrt(n_samples))
        t_prev = tk
    return MonteCarloQ(t=t_grid, q_mean=q_mean, stderr=stderr, n_samples=n_samples)


def joint_averaged_density(t, init, field, params, n_samples=0, seed=0):
    """Two-atom state averaged jointly over the phase factor pair.

    The amplitudes are linear in (q_plus, q_minus), so with a Gaussian
    accumulated phase the exact second moments close the average:
    <e^{2i phi}> = q^4 and <e^{i phi}> = q with phase variance -2 ln q.
    Contrast with atomic_density, which substitutes the scalar mean for
    both factors before forming the density. n_samples > 0 replaces the
    analytic moments with a sample average over Gaussian phases.

    The map preserves the trace up to the field's truncated tail mass, so pre_norm_trace stays within eps_trunc
    of 1 and the renormalisation is cosmetic. The acceptance gate checks
    the gamma-ordering guarantee (entanglement falls as gamma rises) on
    this state.
    """
    tt = float(t)
    one = np.ones((1, 1), dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    base = _build_table(tt, zero, zero, init, field, params).photon[0]
    vx = _build_table(tt, one, zero, init, field, params).photon[0] - base
    vy = _build_table(tt, zero, one, init, field, params).photon[0] - base
    q = averaged_q(tt, params.gamma)
    if n_samples <= 0:
        q4 = q ** 4
        rho = (vx @ vx.conj().T + vy @ vy.conj().T + base @ base.conj().T
               + q4 * (vx @ vy.conj().T + vy @ vx.conj().T)
               + q * (vx @ base.conj().T + base @ vx.conj().T
                      + vy @ base.conj().T + base @ vy.conj().T))
    else:
        var = -2.0 * math.log(q) if q < 1.0 else 0.0
        rng = np.random.Generator(np.random.Philox(seed))
        phases = np.exp(1j * rng.normal(0.0, math.sqrt(var), n_samples))
        v = (vx[None] * phases[:, None, None]
             + vy[None] * np.conj(phases)[:, None, None] + base[None])
        rho = np.einsum("sim,sjm->ij", v, np.conj(v)) / n_samples
    pre = float(np.trace(rho).real)
    if pre <= 0.0:
        raise InvariantViolation("jointly averaged state carries no weight")
    return ReducedState(rho=rho / pre, pre_norm_trace=pre, t=tt)


@dataclass(frozen=True)
class VerifyCheck:
    """One verification row: PASS/FAIL for asserted checks, INFO for reports."""

    name: str
    status: str
    detail: str


def ou_mean_q(t_grid, spec):
    """Exact mean of exp(i phi(t)) for the phase-noise surrogate.

    For the Ornstein-Uhlenbeck drive the phase is Gaussian with variance
    2 sigma^2 tau_c^2 (t/tau_c - 1 + exp(-t/tau_c)), so the mean is
    exp(-sigma^2 tau_c^2 (t/tau_c - 1 + exp(-t/tau_c))). It tends to
    exp(-sigma^2 t^2 / 2) as t -> 0 but sits above it at every t > 0.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if spec.process == "constant":
        return np.ones(t_grid.shape)
    x = t_grid / spec.tau_c
    # x + expm1(-x) keeps its digits where x is small.
    return np.exp(-(spec.sigma * spec.tau_c) ** 2 * (x + np.expm1(-x)))


def mc_short_time(gamma, seed, n_samples=100000):
    """Monte Carlo mean of the surrogate at t = 0.005 and 0.01 against its exact mean.

    Returns (ok, detail). ok holds when both gaps are within three
    standard errors, which fails by chance for a few seeds in a thousand.
    The detail also reports the deterministic gap between the exact mean
    and exp(-gamma t^2), the averaged channel's short-time form.
    """
    spec = noise_spec_for_gamma(gamma, seed=seed)
    mc = monte_carlo_q(np.array([0.005, 0.01]), spec, n_samples=n_samples)
    exact = ou_mean_q(mc.t, spec)
    ok = True
    details = []
    for k, t_chk in enumerate(mc.t):
        gap = abs(mc.q_mean[k].real - exact[k])
        bias = exact[k] - math.exp(-gamma * t_chk ** 2)
        ok = ok and gap <= 3.0 * mc.stderr[k]
        details.append(f"t={t_chk}: gap {gap:.2e} vs 3*se {3.0 * mc.stderr[k]:.2e}, "
                       f"exact mean - exp(-gamma t^2) {bias:.2e}")
    return ok, "; ".join(details)


def _doe_reference(rho):
    # Library eigensolver on the partial transpose; used only as a cross-check.
    mu = np.linalg.eigvalsh(partial_transpose(rho, subsystem=2))
    return max(0.0, float(np.sum(np.abs(mu)) - 1.0))


def _closed_quadruples(table, sectors):
    # The table's quadruples at its first time, laid out like
    # IntegratedState.amplitudes: sector n is (photon_a[n+1], photon_b[n],
    # photon_c[n], photon_d[n-1]), with no |ee> component at n = 0.
    ns = np.asarray(sectors)
    d = np.where(ns > 0, table.photon_d[0, np.maximum(ns - 1, 0)], 0.0j)
    return np.stack([table.photon_a[0, ns + 1], table.photon_b[0, ns],
                     table.photon_c[0, ns], d], axis=1)


def run_verification(seed=8):
    """Re-derive the headline quantities independently and compare.

    Returns VerifyCheck rows; any FAIL means the closed-form dynamics and
    the independent reconstruction disagree beyond tolerance. Statistical
    rows are deterministic for a fixed seed. They are 3-sigma gates, so
    any seed may fail one by chance; mc_short_time fails for one of the
    seeds 0..119 (46), and the default seed 8 passes them all.
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

    # One RK4 pass at dt = 1e-4 integrates every sector without the
    # spin-spin term and the checked sectors with it, stopping at t = 0.5
    # and going on to t = 1. Rows never mix, so each slice equals a
    # separate run.
    field = coherent_weights(5.0)
    init = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
    params0 = ModelParams(gamma=0.0, omega_rabi=0.0, g0=1.0)
    params1 = ModelParams(gamma=0.0, omega_rabi=1.0, g0=1.0)
    every = list(range(field.n_max + 2))
    sectors = [0, 1, 5, 25]
    psi_half, psi_1 = _integrate_groups(init, field, ((params0, every), (params1, sectors)),
                                        (0.5, 1.0), 1e-4)
    split = len(every)
    ground = complex(field.weights[0] * init.c00)
    amps0 = psi_1[sectors]
    amps1 = psi_1[split:]

    # Closed form against the integrator, sector by sector, no spin-spin term.
    table = deterministic_table(np.array([1.0]), init, field, params0, kf_x=0.0)
    dev = float(np.abs(_closed_quadruples(table, sectors) - amps0).max())
    dev = max(dev, abs(complex(table.ground[0]) - ground))
    check("amplitudes_vs_integrator", dev <= 1e-6,
          f"max |closed - rk4| {dev:.2e} over sectors {sectors} at t=1")

    # The same comparison with the spin-spin coupling on: the closed form
    # treats those phases approximately, so this is reported, not asserted.
    table1 = deterministic_table(np.array([1.0]), init, field, params1, kf_x=0.0)
    dev1 = float(np.abs(_closed_quadruples(table1, sectors) - amps1).max())
    info("amplitudes_vs_integrator_rabi",
         f"spin-spin phases are approximate: max |closed - rk4| {dev1:.2e} at omega=1, t=1")

    # The paper's printed formulas: document, do not assert.
    rho_vb, _ = sector_density(every, legacy_quadruples(every, 0.0, 1.0, 1.0, init,
                                                        field, params1), 0.0)
    psi0 = init.as_vector()
    dev_vb = float(np.abs(rho_vb - np.outer(psi0, np.conj(psi0))).max())
    info("verbatim_initial_state",
         f"verbatim state at t=0 deviates from the preparation by {dev_vb:.3f} (max element)")
    # The frozen phases of deterministic_table at kf_x = 0 and t = 1.
    q_frozen = np.exp(1j * (np.sqrt(2.0 * (2.0 * np.array(sectors) + 1.0)) * params0.g0))
    legacy = legacy_quadruples(sectors, 1.0, q_frozen, np.conj(q_frozen), init, field, params0)
    dev_vb1 = float(np.abs(legacy - amps0).max())
    info("verbatim_vs_integrator", f"max |verbatim - rk4| {dev_vb1:.3f} at omega=0, t=1")

    # Long-horizon norm conservation of the integrator itself.
    psi0 = _sector_psi0(init, field, sectors)
    psi10 = integrate_schrodinger(init, field, params1, t_final=10.0, dt=2e-4,
                                  sectors=sectors).amplitudes
    drift = abs(float(np.sum(np.abs(psi10) ** 2) - np.sum(np.abs(psi0) ** 2)))
    drift /= float(np.sum(np.abs(psi0) ** 2))
    check("norm_conservation", drift < 1e-9,
          f"relative drift {drift:.2e} at t=10 (tolerance 1e-9)")

    # gamma = 0 must freeze the averaged channel exactly; a zero-coupling
    # phase (kf_x = pi/2) freezes the deterministic one the same way.
    rho_avg = atomic_density(np.linspace(0.0, 3.0, 7), init, field, params0).rho
    rho_frozen = deterministic_density(np.linspace(0.0, 3.0, 7), init, field,
                                       params0, kf_x=math.pi / 2.0).rho
    dev_frz = float(np.abs(rho_avg - rho_frozen).max())
    doe_pkg = negativity(rho_avg[3])
    doe_ref = _doe_reference(rho_frozen[3])
    check("averaged_frozen_limit",
          dev_frz <= 1e-12 and abs(doe_pkg - doe_ref) <= 5e-4,
          f"max state diff {dev_frz:.2e}, negativity diff {abs(doe_pkg - doe_ref):.2e}")

    # Entanglement of the frozen-phase dynamics against the integrator.
    doe_dev = 0.0
    for t_chk, psi in ((0.5, psi_half), (1.0, psi_1)):
        rho_cf = deterministic_density(t_chk, init, field, params0, kf_x=0.0).rho
        rho_rk, _ = sector_density(every, psi[:split], ground)
        doe_dev = max(doe_dev, abs(negativity(rho_cf) - _doe_reference(rho_rk)))
    check("negativity_vs_integrator", doe_dev <= 5e-4,
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
        params = ModelParams(gamma=gamma, omega_rabi=1.0, g0=1.0)
        for k, t_chk in enumerate(t_spots):
            rho_ch = atomic_density(t_chk, init, field, params)
            for unknown, grid in zip(qubits, grids):
                proj = bell_project_teleport(rho_ch.rho, unknown)[0]
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
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
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

    # The noise surrogate must match its own exact mean at short times,
    # where it approaches the averaged factor's exp(-gamma t^2).
    gamma_mc = 1.0
    spec = noise_spec_for_gamma(gamma_mc, seed=seed)
    check("mc_short_time", *mc_short_time(gamma_mc, seed))

    # At long times the surrogate decays at rate sigma^2 tau_c with a
    # known constant offset exp(pi/8); the rate must match sqrt(pi g)/2.
    t_long = 3.0
    mc_long = monte_carlo_q(np.array([t_long]), spec, n_samples=100000)
    q_hat = float(mc_long.q_mean[0].real)
    rate_hat = (-math.log(q_hat) + math.pi / 8.0) / t_long
    rate_expect = math.sqrt(math.pi * gamma_mc) / 2.0
    rel = abs(rate_hat - rate_expect) / rate_expect
    check("mc_decay_rate", rel <= 0.05,
          f"estimated rate {rate_hat:.4f} vs {rate_expect:.4f} ({100 * rel:.2f}% off)")

    # Standard-error scaling of the estimator: quadrupling the samples
    # should halve the standard error.
    se_a = monte_carlo_q(np.array([1.0]), noise_spec_for_gamma(1.0, seed=seed + 1),
                         n_samples=5000).stderr[0]
    se_b = monte_carlo_q(np.array([1.0]), noise_spec_for_gamma(1.0, seed=seed + 2),
                         n_samples=20000).stderr[0]
    ratio = se_a / se_b
    check("mc_stderr_scaling", 1.8 <= ratio <= 2.2,
          f"se(n)/se(4n) = {ratio:.3f}, expected about 2")

    # Scalar substitution versus the jointly averaged second moments.
    params_mid = ModelParams(gamma=0.5, omega_rabi=1.0, g0=1.0)
    joint_dev = 0.0
    for t_chk in (1.0, 3.0):
        rho_s = atomic_density(t_chk, init, field, params_mid).rho
        rho_j = joint_averaged_density(t_chk, init, field, params_mid).rho
        joint_dev = max(joint_dev, float(np.abs(rho_s - rho_j).max()))
    info("scalar_vs_joint_average",
         f"scalar substitution differs from joint moments by up to {joint_dev:.3f}")
    rho_j = joint_averaged_density(2.0, init, field, params_mid).rho
    rho_m = joint_averaged_density(2.0, init, field, params_mid,
                                   n_samples=3000, seed=seed).rho
    info("joint_mc_consistency",
         f"analytic vs sampled joint moments differ by {float(np.abs(rho_j - rho_m).max()):.2e}")

    # Every averaged state on a coarse grid must be a valid density matrix.
    ok_grid = True
    worst = ""
    for gamma in (0.0, 0.3, 0.8):
        params = ModelParams(gamma=gamma, omega_rabi=1.0, g0=1.0)
        states = atomic_density(np.linspace(0.0, 10.0, 21), init, field, params)
        for k in range(states.rho.shape[0]):
            try:
                require_density_matrix(states.rho[k], context=f"t={states.t[k]}, gamma={gamma}")
            except InvariantViolation as exc:
                ok_grid = False
                worst = str(exc)
                break
    check("density_invariants", ok_grid, worst or "Hermitian, unit trace, positive on the grid")

    return rows
