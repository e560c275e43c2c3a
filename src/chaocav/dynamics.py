"""Closed-form dynamics of two atoms exchanging excitation with a cavity mode.

The atom-field coupling carries a position phase that is treated as a
random process. Everything here works in the interaction picture, with
the randomness entering through the phase factors q_plus and q_minus.
The scalar channel replaces both factors by the same real mean
averaged_q(t, gamma) and renormalises the state of these phase-averaged
amplitudes. That is not the ensemble average of the state: its raw trace
drains below 1. The trace-preserving ensemble average of the density
matrix is oracle.joint_averaged_density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import InvariantViolation

SQRT2 = math.sqrt(2.0)
NORM_TOL = 1e-12


def _erf_series_array(x):
    # Alternating Maclaurin sum with a term recurrence, used for |x| <= 3;
    # each element stops at its own first term below 1e-18.
    x2 = x * x
    term = x.copy()
    total = x.copy()
    out = np.empty_like(x)
    idx = np.arange(x.size)
    k = 0
    while idx.size:
        k += 1
        term *= -x2 / k
        contrib = term / (2 * k + 1)
        total += contrib
        done = np.abs(contrib) < 1e-18
        out[idx[done]] = total[done]
        live = ~done
        idx, x2, term, total = idx[live], x2[live], term[live], total[live]
    return out * 2.0 / math.sqrt(math.pi)


def _erfc_fraction_array(x):
    # Modified Lentz evaluation of the continued fraction
    # erfc(x) * sqrt(pi) * exp(x^2) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
    # used for 3 < |x| < 6; each element stops at its own convergence.
    tiny = 1e-300
    f = np.full(x.shape, tiny)
    c = np.full(x.shape, tiny)
    d = np.zeros(x.shape)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 300):
        a = 1.0 if k == 1 else 0.5 * (k - 1)
        xs = x[live]
        dk = xs + a * d[live]
        dk[dk == 0.0] = tiny
        ck = xs + a / c[live]
        ck[ck == 0.0] = tiny
        dk = 1.0 / dk
        delta = ck * dk
        f[live] *= delta
        d[live] = dk
        c[live] = ck
        live[np.flatnonzero(live)[np.abs(delta - 1.0) < 1e-16]] = False
        if not live.any():
            break
    gauss = np.array([math.exp(v) for v in (-x * x).tolist()])
    return gauss / math.sqrt(math.pi) * f


def erf_array(x):
    """Error function on an array, absolute accuracy better than 1e-12 on all reals.

    Series for |x| <= 3, continued fraction for the tail, saturation at
    |x| >= 6. Odd symmetry holds exactly because only |x| is evaluated.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    val = np.ones(x.shape)
    series = ax <= 3.0
    tail = (ax > 3.0) & (ax < 6.0)
    val[series] = _erf_series_array(ax[series])
    val[tail] = 1.0 - _erfc_fraction_array(ax[tail])
    val = np.where(x > 0, val, -val)
    val[x == 0.0] = 0.0
    return val


def averaged_q(t, gamma):
    """Ensemble average of the random phase factor at time t.

    Returns exp(-(t/2) sqrt(pi gamma) erf(t sqrt(gamma))), a real value in
    (0, 1], as a float for scalar arguments. t and gamma may be arrays that
    broadcast against each other; a (G, 1) gamma column against a (G, T)
    time grid gives a whole sweep in one call, equal bit for bit to the
    per-gamma rows. Non-finite or negative arguments raise ValueError.
    Monotone non-increasing in both t and gamma; gamma = 0 gives exactly 1.
    """
    t_arr = np.asarray(t, dtype=float)
    g_arr = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g_arr)) or np.any(g_arr < 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not np.all(np.isfinite(t_arr)) or np.any(t_arr < 0.0):
        raise ValueError("time must be finite and >= 0")
    root = np.sqrt(math.pi * g_arr)
    arg = -0.5 * t_arr * root * erf_array(t_arr * np.sqrt(g_arr))
    # math.exp, not np.exp: the two differ in the last bit.
    q = np.array([math.exp(v) for v in arg.ravel().tolist()]).reshape(arg.shape)
    return float(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants: chaotic parameter gamma, spin-spin coupling, field coupling."""

    gamma: float = 0.0
    omega_rabi: float = 1.0
    g0: float = 1.0

    def __post_init__(self):
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.omega_rabi) and math.isfinite(self.g0)):
            raise ValueError("omega_rabi and g0 must be finite")


@dataclass(frozen=True)
class AtomicInit:
    """Initial two-atom amplitudes over (|gg>, |ge>, |eg>, |ee>).

    Unit norm is enforced to 1e-12 unless enforce_norm is disabled for
    linearity tests on raw amplitudes.
    """

    c00: complex
    c01: complex
    c10: complex
    c11: complex
    enforce_norm: bool = True

    def __post_init__(self):
        for name in ("c00", "c01", "c10", "c11"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.enforce_norm:
            norm = self.norm_squared()
            if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
                raise ValueError(f"initial amplitudes have norm {norm:.15g}, expected 1 within {NORM_TOL}")

    def norm_squared(self):
        return abs(self.c00) ** 2 + abs(self.c01) ** 2 + abs(self.c10) ** 2 + abs(self.c11) ** 2

    def as_vector(self):
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)

    @classmethod
    def bell_phi_plus(cls):
        return cls(1.0 / SQRT2, 0.0, 0.0, 1.0 / SQRT2)


@dataclass(frozen=True)
class AmplitudeTable:
    """Amplitudes at the sampled times, grouped by Fock level.

    The (T, 4, N + 1) photon array holds the amplitudes of the N sectors
    n = 0..N-1, and photon_a..photon_d are its views photon[:, 0]..photon[:, 3]:
    photon_a[m] multiplies |gg,m> (m = 0 holds the decoupled |gg,0>
    component, also kept as ground), photon_b[m] and photon_c[m] multiply
    |ge,m> and |eg,m>, and photon_d[m] multiplies |ee,m>. Sector n over
    (|gg,n+1>, |ge,n>, |eg,n>, |ee,n-1>) is therefore
    (photon_a[n+1], photon_b[n], photon_c[n], photon_d[n-1]), with no
    |ee> component at n = 0.
    """

    t: np.ndarray
    ground: np.ndarray
    photon: np.ndarray
    photon_a: np.ndarray
    photon_b: np.ndarray
    photon_c: np.ndarray
    photon_d: np.ndarray


def _sector_amplitudes(ns, qp, qm, ep, em, init, w_ext):
    """Evaluate the closed-form quadruples for every sector in ns.

    qp and qm are the phase factors standing in for Q and its inverse;
    they may be per-sector arrays or the scalar mean averaged_q. The form
    solves the bright/dark coupling block exactly and reproduces the
    initial state at t = 0. The paper's printed formulas, which do not,
    survive only in oracle.legacy_quadruples, as a comparison.
    """
    c00, c01, c10, c11 = init.c00, init.c01, init.c10, init.c11
    nf = ns.astype(float)
    wn = w_ext[ns]
    a0 = w_ext[ns + 1] * c00
    b0 = wn * c01
    c0 = wn * c10
    d0 = np.where(ns > 0, w_ext[np.maximum(ns - 1, 0)] * c11, 0.0j)
    r1 = np.sqrt((nf + 1.0) / (2.0 * nf + 1.0))
    r2 = np.sqrt(nf / (2.0 * nf + 1.0))
    ub0 = r1 * a0 + r2 * d0
    ud0 = r2 * a0 - r1 * d0
    s0 = (b0 + c0) / SQRT2
    an0 = (b0 - c0) / SQRT2
    cosf = (qp + qm) / 2.0
    isin = (qp - qm) / 2.0
    # Each (T, N) term once, sums updated in place, operands in their
    # original order: every value is bit-for-bit that of the expression
    # in the comment. Products stay out of place: numpy's in-place complex
    # multiply can round a one-element array differently.
    ub = cosf * ub0
    ub += isin * s0  # ub = cosf * ub0 + isin * s0
    sym = isin * ub0
    sym += cosf * s0  # sym = isin * ub0 + cosf * s0
    amp_a = r1 * ub
    amp_a += r2 * ud0
    amp_a = ep * amp_a  # amp_a = ep * (r1 * ub + r2 * ud0)
    amp_d = r2 * ub
    amp_d -= r1 * ud0
    amp_d = ep * amp_d  # amp_d = ep * (r2 * ub - r1 * ud0)
    sym = ep * sym
    dark = em * an0
    amp_b = sym + dark
    amp_b /= SQRT2  # amp_b = (ep * sym + em * an0) / SQRT2
    amp_c = np.subtract(sym, dark, out=sym)
    amp_c /= SQRT2  # amp_c = (ep * sym - em * an0) / SQRT2
    return amp_a, amp_b, amp_c, amp_d


def _build_table(t, qp, qm, init, field, params):
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    n_sec = field.n_max + 2
    ns = np.arange(n_sec)
    w_ext = np.zeros(n_sec + 1)
    w_ext[: field.n_max + 1] = field.weights
    ep = np.exp(-1j * params.omega_rabi * t_arr)[:, None]
    em = np.conj(ep)
    amp_a, amp_b, amp_c, amp_d = _sector_amplitudes(ns, qp, qm, ep, em, init, w_ext)
    ground = ep[:, 0] * (w_ext[0] * init.c00)
    photon = np.zeros((t_arr.size, 4, n_sec + 1), dtype=complex)
    pa, pb, pc, pd = (photon[:, k] for k in range(4))
    pa[:, 0] = ground
    pa[:, 1:] = amp_a
    pb[:, :n_sec] = amp_b
    pc[:, :n_sec] = amp_c
    pd[:, : n_sec - 1] = amp_d[:, 1:]
    return AmplitudeTable(t=t_arr, ground=ground, photon=photon,
                          photon_a=pa, photon_b=pb, photon_c=pc, photon_d=pd)


def amplitude_table(t, init, field, params, q=None):
    """Phase-averaged amplitudes of the scalar channel at the given times.

    Both random phase factors are replaced by the scalar mean
    averaged_q(t, params.gamma), which freezes the coupled dynamics
    entirely at gamma = 0. A sweep that has already evaluated that mean
    passes it as q, one value per time. The density built from these
    amplitudes is not the ensemble-averaged state;
    oracle.joint_averaged_density is.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if q is None:
        q = averaged_q(t_arr, params.gamma)
    q = np.asarray(q, dtype=float).astype(complex)[:, None]
    return _build_table(t_arr, q, q, init, field, params)


def deterministic_table(t, init, field, params, kf_x=0.0):
    """Amplitudes for one frozen realization of the coupling phase.

    Every sector evolves with its own phase exp(+-i omega_n t) where
    omega_n = sqrt(2 (2n+1)) g0 cos(kf_x). This is the reference dynamics
    the numerical integrator must reproduce.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    n_sec = field.n_max + 2
    ns = np.arange(n_sec)
    g_eff = params.g0 * math.cos(kf_x)
    omega_n = np.sqrt(2.0 * (2.0 * ns + 1.0)) * g_eff
    phase = t_arr[:, None] * omega_n[None, :]
    qp = np.exp(1j * phase)
    return _build_table(t_arr, qp, np.conj(qp), init, field, params)


@dataclass(frozen=True)
class ReducedState:
    """Two-atom density matrix after tracing the field, plus its raw trace.

    In the scalar channel, substituting the phase mean into the amplitudes
    shrinks the raw trace below 1, so the matrix is always renormalized and
    the pre-normalization trace reported alongside. For the trace-preserving
    ensemble average (pre_norm_trace 1 up to the field's truncated tail
    mass) see oracle.joint_averaged_density.
    """

    rho: np.ndarray
    pre_norm_trace: object
    t: object


def table_density(table):
    """Photon-summed density matrices for every time in the table.

    Returns (rho, pre_norm_trace) with shapes (T, 4, 4) and (T,). The
    outer-product assembly keeps the matrix Hermitian and positive by
    construction before renormalization.
    """
    v = table.photon
    rho = np.einsum("tim,tjm->tij", v, np.conj(v))
    pre = np.einsum("tii->t", rho).real
    if np.any(pre <= 0.0):
        raise InvariantViolation("density matrix trace vanished; initial state carries no weight")
    rho /= pre[:, None, None]
    return rho, pre


def _reduced_state(table, scalar):
    # Density of a table; a scalar time gives one matrix and float trace.
    rho, pre = table_density(table)
    if scalar:
        return ReducedState(rho=rho[0], pre_norm_trace=float(pre[0]), t=float(table.t[0]))
    return ReducedState(rho=rho, pre_norm_trace=pre, t=table.t)


def atomic_density(t, init, field, params):
    """Renormalised two-atom state of the phase-averaged amplitudes at time t.

    This is the scalar channel, for scalar or array t; the trace-preserving
    ensemble average of the state is oracle.joint_averaged_density.
    """
    return _reduced_state(amplitude_table(t, init, field, params), np.ndim(t) == 0)


def deterministic_density(t, init, field, params, kf_x=0.0):
    """Two-atom state for one frozen coupling phase (no averaging)."""
    return _reduced_state(deterministic_table(t, init, field, params, kf_x), np.ndim(t) == 0)
