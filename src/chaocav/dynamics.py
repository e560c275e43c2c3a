"""Closed-form dynamics of two atoms exchanging excitation with a cavity mode.

The atom-field coupling carries a position phase that is treated as a
random process. Everything here works in the interaction picture, with
the randomness entering through the phase factors q_plus and q_minus.
The scalar channel replaces both factors by the same real mean
averaged_q(t, gamma) and renormalises the state of these phase-averaged
amplitudes. That is not the ensemble average of the state: its raw trace
drains below 1. The trace-preserving ensemble average of the density
matrix is oracle.joint_averaged_density.

Every state takes one route: amplitude_table (or deterministic_table, for
one frozen phase) builds the amplitudes at the sampled times, a scalar
time giving one row, and table_density traces out the field. On the
scalar channel the pair (|gg>, |ee>) evolves from c00 and c11 alone and
(|ge>, |eg>) from c01 and c10 alone, so a table holds only the pair its
preparation fills and table_density contracts only that pair; rows of an
empty pair are exact zeros, and leaving them out moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2
NORM_TOL = 1e-12

#: Basic slices of the atomic rows (a, b, c, d) of an amplitude table: all
#: four, the pair (|gg>, |ee>) and the pair (|ge>, |eg>).
ALL_ROWS, AD_ROWS, BC_ROWS = slice(0, 4), slice(0, 4, 3), slice(1, 3)


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


def erf_array(x):
    """Error function on an array, absolute accuracy better than 1e-12 on all reals.

    The Maclaurin series runs for |x| <= 3, odd by construction, and
    math.erf, one element at a time, everywhere else (the tail, infinities
    and NaN). The series stays because its bits set every preset output:
    on [0, 3] math.erf differs from it at 82% of points, by up to 1.0e-13,
    which moves preset values by up to 1.4e-11 relative.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    series = ax <= 3.0
    val = np.empty(x.shape)
    val[series] = np.copysign(_erf_series_array(ax[series]), x[series])
    val[~series] = [math.erf(v) for v in x[~series].tolist()]
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
    # A product past the float range saturates to inf and exp(-inf) to
    # the exact limit 0, so the overflow is not an error; at t = 0, where
    # 0 * inf is NaN, q is exactly 1.
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(math.pi * g_arr)
        arg = -0.5 * t_arr * root * erf_array(t_arr * np.sqrt(g_arr))
    arg = np.where(t_arr == 0.0, 0.0, arg)
    # math.exp, not np.exp: the two differ in the last bit.
    q = np.array([math.exp(v) for v in arg.ravel().tolist()]).reshape(arg.shape)
    return float(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class AtomicInit:
    """Initial two-atom amplitudes over (|gg>, |ge>, |eg>, |ee>), unit norm to 1e-12."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def __post_init__(self):
        for name in ("c00", "c01", "c10", "c11"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        norm = self.norm_squared()
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"initial amplitudes have norm {norm:.15g}, expected 1 within {NORM_TOL}")

    def norm_squared(self):
        return abs(self.c00) ** 2 + abs(self.c01) ** 2 + abs(self.c10) ** 2 + abs(self.c11) ** 2

    def as_vector(self):
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)


@dataclass(frozen=True)
class AmplitudeTable:
    """Amplitudes at the sampled times, grouped by Fock level.

    The (T, 4, N + 1) photon array holds the amplitudes of the N sectors
    n = 0..N-1; photon_a..photon_d are read-only views photon[:, 0]..photon[:, 3]:
    photon_a[m] multiplies |gg,m> (m = 0 holds the decoupled |gg,0>
    component), photon_b[m] and photon_c[m] multiply
    |ge,m> and |eg,m>, and photon_d[m] multiplies |ee,m>.
    scatter_sectors builds it from sector quadruples and gather_sectors
    reads them back. live is the basic slice of the atomic rows that may
    hold amplitude: all four by default, or 0::3 for the pair (a, d) or
    1:3 for (b, c) when the other pair's rows are exactly zero.
    table_density and teleport.kappa_sums contract only those rows.
    """

    photon: np.ndarray
    live: slice = dataclass_field(default_factory=lambda: ALL_ROWS)

    photon_a = property(lambda self: self.photon[:, 0])
    photon_b = property(lambda self: self.photon[:, 1])
    photon_c = property(lambda self: self.photon[:, 2])
    photon_d = property(lambda self: self.photon[:, 3])


def padded_weights(field):
    """Fock weights W_0..W_n_max and two zeros, so every sector 0..n_max + 1 can read W[n + 1]."""
    return np.append(field.weights, [0.0, 0.0])


def scatter_sectors(quads, ground):
    """Photon array (..., 4, N + 1) of the sectors n = 0..N-1, grouped by Fock level.

    quads holds the four (..., N) components over (|gg,n+1>, |ge,n>, |eg,n>,
    |ee,n-1>) and ground multiplies |gg,0>; sector 0's |ee> entry is dropped.
    A pair given as None, (a, d) with the ground or (b, c), keeps its rows
    at exact zero.
    """
    a, b, c, d = quads
    lead = b if a is None else a
    n_sec = lead.shape[-1]
    photon = np.zeros(lead.shape[:-1] + (4, n_sec + 1), dtype=complex)
    if a is not None:
        photon[..., 0, 0] = ground
        photon[..., 0, 1:] = a
        photon[..., 3, : n_sec - 1] = d[..., 1:]
    if b is not None:
        photon[..., 1, :n_sec] = b
        photon[..., 2, :n_sec] = c
    return photon


def gather_sectors(photon, ns):
    """The (..., S, 4) quadruples of the sectors ns in a (..., 4, M) photon array.

    The inverse of scatter_sectors: sector n reads (photon[0, n+1], photon[1, n],
    photon[2, n], photon[3, n-1]), and 0 for |ee,-1>.
    """
    ns = np.asarray(ns)
    d = np.where(ns > 0, photon[..., 3, np.maximum(ns - 1, 0)], 0.0j)
    return np.stack([photon[..., 0, ns + 1], photon[..., 1, ns], photon[..., 2, ns], d], -1)


def start_quadruples(ns, init, w_ext):
    """(S, 4) amplitudes of the factorized state init x field in the sectors ns.

    The product state holds c_k W[m] on atomic state k with m photons; ns is
    an integer array and w_ext is padded_weights(field).
    """
    return gather_sectors(w_ext * init.as_vector()[:, None], ns)


def _sector_amplitudes(ns, qp, qm, ep, em, init, w_ext):
    """Evaluate the closed-form quadruples for every sector in ns.

    qp and qm are the phase factors standing in for Q and its inverse,
    arrays that broadcast against the (T, N) grid of times and sectors.
    qm = None is the scalar channel, where both factors are the mean qp
    (a (T, 1) column of averaged_q): their cosine part is then exactly qp
    and their sine part exactly 0, so the sine terms are left out. Without
    them the pair (a, d) is built from c00 and c11 alone and the pair
    (b, c) from c01 and c10 alone; a pair whose two amplitudes the
    preparation sets to 0 is exactly 0 at every time, so it is not built
    and both its entries are None. The form solves the bright/dark
    coupling block exactly and reproduces the initial state at t = 0. The
    paper's printed formulas, which do not, survive only in
    oracle.legacy_quadruples, as a comparison.
    """
    nf = ns.astype(float)
    a0, b0, c0, d0 = start_quadruples(ns, init, w_ext).T
    r1 = np.sqrt((nf + 1.0) / (2.0 * nf + 1.0))
    r2 = np.sqrt(nf / (2.0 * nf + 1.0))
    ub0 = r1 * a0 + r2 * d0
    ud0 = r2 * a0 - r1 * d0
    s0 = (b0 + c0) / SQRT2
    an0 = (b0 - c0) / SQRT2
    # Each (T, N) term once, sums updated in place, operands in their
    # original order: every value is bit-for-bit that of the expression
    # in the comment, except that the sign of a zero may differ. Products
    # stay out of place: numpy's in-place complex multiply can round a
    # one-element array differently.
    if qm is None:
        ub = qp * ub0 if init.c00 or init.c11 else None
        sym = qp * s0 if init.c01 or init.c10 else None
    else:
        cosf = (qp + qm) / 2.0
        isin = (qp - qm) / 2.0
        ub = cosf * ub0
        ub += isin * s0  # ub = cosf * ub0 + isin * s0
        sym = isin * ub0
        sym += cosf * s0  # sym = isin * ub0 + cosf * s0
    amp_a = amp_b = amp_c = amp_d = None
    if ub is not None:
        amp_a = r1 * ub
        amp_a += r2 * ud0
        amp_a = ep * amp_a  # amp_a = ep * (r1 * ub + r2 * ud0)
        amp_d = r2 * ub
        amp_d -= r1 * ud0
        amp_d = ep * amp_d  # amp_d = ep * (r2 * ub - r1 * ud0)
    if sym is not None:
        sym = ep * sym
        dark = em * an0
        amp_b = sym + dark
        # numpy divides a complex value by a real d as (re + im * 0) * (1 / d),
        # so scaling by INV_SQRT2 gives the quotient but for the sign of a zero.
        amp_b *= INV_SQRT2  # amp_b = (ep * sym + em * an0) / SQRT2
        amp_c = np.subtract(sym, dark, out=sym)
        amp_c *= INV_SQRT2  # amp_c = (ep * sym - em * an0) / SQRT2
    return amp_a, amp_b, amp_c, amp_d


def _build_table(t, qp, qm, init, field, omega_rabi):
    w_ext = padded_weights(field)
    ep = np.exp(-1j * omega_rabi * np.atleast_1d(np.asarray(t, dtype=float)))[:, None]
    quads = _sector_amplitudes(np.arange(field.n_max + 2), qp, qm, ep, np.conj(ep), init, w_ext)
    live = BC_ROWS if quads[0] is None else AD_ROWS if quads[1] is None else ALL_ROWS
    return AmplitudeTable(scatter_sectors(quads, ep[:, 0] * (w_ext[0] * init.c00)), live)


def amplitude_table(t, q, init, field, omega_rabi):
    """Phase-averaged amplitudes of the scalar channel at the given times.

    Both random phase factors are replaced by the scalar mean q, one value
    per time: averaged_q(t, gamma), which freezes the coupled dynamics
    entirely at gamma = 0. The density built from these amplitudes is not
    the ensemble-averaged state; oracle.joint_averaged_density is.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float)).astype(complex)[:, None]
    return _build_table(t, q, None, init, field, omega_rabi)


def frozen_phases(t, ns):
    """(T, S) phase factors exp(i omega_n t) of the sectors ns with the coupling phase frozen.

    omega_n = sqrt(2 (2n+1)), the bright-state frequency of sector n in
    units of the field coupling.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    omega_n = np.sqrt(2.0 * (2.0 * np.asarray(ns) + 1.0))
    return np.exp(1j * (t_arr[:, None] * omega_n[None, :]))


def deterministic_table(t, init, field, omega_rabi):
    """Amplitudes with the coupling phase frozen, so the coupling is the unit of energy.

    Every sector evolves with its own phases frozen_phases(t, ns) and
    their conjugates. This is the reference dynamics the exact propagator
    must reproduce.
    """
    qp = frozen_phases(t, np.arange(field.n_max + 2))
    return _build_table(t, qp, np.conj(qp), init, field, omega_rabi)


def table_density(table):
    """Photon-summed density matrices for every time in the table.

    Returns (rho, pre_norm_trace) with shapes (T, 4, 4) and (T,); a table
    built at a scalar time has T = 1. The outer-product assembly keeps the
    matrix Hermitian and positive by construction before renormalization.
    Where the phase averaging drained the state (q = 0, or a q whose square
    underflows), the trace is 0 and that time's matrix is NaN.

    Only the table's live rows are contracted, through a basic slice, and
    einsum writes their block of rho in place. This is exact: einsum sums
    each entry in order from +0, so an entry that touches an all-zero row
    is +0, which the zero-filled rho already holds. matmul and np.sum
    accumulate in other orders and would move preset bits.
    """
    s = table.live
    v = table.photon[:, s]
    rho = np.zeros((v.shape[0], 4, 4), dtype=complex)
    np.einsum("tim,tjm->tij", v, np.conj(v), out=rho[:, s, s])
    pre = np.einsum("tii->t", rho).real
    with np.errstate(invalid="ignore"):  # 0 / 0 at a drained time
        rho /= pre[:, None, None]
    return rho, pre
