"""Closed-form dynamics of two atoms exchanging excitation with a cavity mode.

The atom-field coupling carries a position phase that is treated as a
random process. Everything here works in the interaction picture, with
the randomness entering through the phase factors q_plus and q_minus.
The scalar channel replaces both factors by the same real mean
averaged_q(t, gamma) and renormalises the state of these phase-averaged
amplitudes. That is not the ensemble average of the state: its raw trace
drains below 1. The trace-preserving ensemble average of the density
matrix is oracle.joint_averaged_density.

Every state takes one route. sector_basis builds the part of the closed
form that no phase factor touches, once for a set of times (a scalar time
gives one); amplitude_table (or deterministic_table, for one frozen phase)
adds the phase factors and writes the amplitudes into a table, and
table_density traces out the field. On the scalar channel the pair
(|gg>, |ee>) evolves from c00 and c11 alone and (|ge>, |eg>) from c01 and
c10 alone, so a table holds only the rows of the pair its preparation
fills and table_density contracts only those; rows of an empty pair are
exact zeros, and leaving them out moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2
NORM_TOL = 1e-12

#: Basic slices of the atomic rows (a, b, c, d) that name the rows an
#: amplitude table holds: all four, the pair (|gg>, |ee>) and the pair
#: (|ge>, |eg>).
ALL_ROWS, AD_ROWS, BC_ROWS = slice(0, 4), slice(0, 4, 3), slice(1, 3)


def erf_array(x):
    """Error function on an array, absolute accuracy better than 1e-12 on all reals.

    The Maclaurin series runs for |x| <= 3, odd by construction, and
    math.erf, one element at a time, everywhere else (the tail, infinities
    and NaN). The series stays because its bits set every preset output:
    on [0, 3] math.erf differs from it at 82% of points, by up to 1.0e-13,
    which moves preset values by up to 1.4e-11 relative. Every element runs
    the same number of terms: the stop of the largest series |x|, where its
    own contribution first falls below 1e-18, plus two. A smaller element
    stops no later, and each term past an element's stop is below a
    quarter ulp of its sum, so the extra terms change no bit.
    """
    x = np.asarray(x, dtype=float)
    series = np.abs(x) <= 3.0
    # Alternating sum with a term recurrence over the whole array, 0 standing
    # in where the series does not apply. An element's value is its sum at
    # its own first contribution below 1e-18: for |x| <= 3 every later one
    # is smaller still and below a quarter ulp of the running sum, so adding
    # it leaves the sum unchanged.
    ax = np.where(series, np.abs(x), 0.0)
    # The term count: the largest |x|'s own stop, by the same recurrence on
    # one float, plus two terms in case rounding lets a smaller element
    # stop one term later (no-ops elsewhere, by the argument above).
    b = float(ax.max(initial=0.0))
    t, terms = b, 0
    while True:
        terms += 1
        t *= -(b * b) / terms
        if abs(t / (2 * terms + 1)) < 1e-18:
            break
    nx2 = -(ax * ax)
    term = ax.copy()
    total = ax.copy()
    step = np.empty_like(ax)
    for k in range(1, terms + 3):
        np.divide(nx2, k, out=step)
        term *= step
        np.divide(term, 2 * k + 1, out=step)
        total += step
    val = np.copysign(total * 2.0 / math.sqrt(math.pi), x, out=np.empty(x.shape))
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
    q = np.fromiter(map(math.exp, arg.ravel().tolist()), float, count=arg.size).reshape(arg.shape)
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

    photon is a (T, R, N + 1) array of the atomic rows (a, b, c, d) that
    live names: all four (R = 4) by default, or 0::3 for the pair (a, d)
    or 1:3 for (b, c) (R = 2) when the other pair's rows are exactly
    zero. It holds the amplitudes of the N sectors n = 0..N-1 in the
    layout of scatter_sectors, which builds it, and gather_sectors reads
    sector quadruples back: row a at m multiplies |gg,m> (m = 0 holds the
    decoupled |gg,0> component), rows b and c multiply |ge,m> and |eg,m>,
    and row d multiplies |ee,m>. table_density and teleport.kappa_sums
    contract photon as it is.
    """

    photon: np.ndarray
    live: slice = dataclass_field(default_factory=lambda: ALL_ROWS)

    def row(self, k):
        """The (T, N + 1) view of atomic row k (0..3 for a..d), or None outside live."""
        rows = range(4)[self.live]
        return self.photon[:, rows.index(k)] if k in rows else None

    @property
    def photon_a(self):
        """Row a, or zeros where the table does not hold it; the benchmark's table counters
        read its (T, N + 1) shape."""
        row = self.row(0)
        return np.zeros(self.photon[:, 0].shape, dtype=complex) if row is None else row


@dataclass(frozen=True)
class SectorBasis:
    """The part of every amplitude table that no phase factor touches.

    sector_basis builds it once for a set of times t and a preparation;
    each table at those times then only adds its phase factors, and
    piece(cols) gives the basis at the times t[cols]. ep is the
    (T, 1) column exp(-i omega_rabi t) and ground the (T,) amplitude of
    the decoupled |gg,0>. Over the N sectors n = 0..N-1, r1 and r2 turn
    the start amplitudes of (|gg,n+1>, |ee,n-1>) into their bright part
    ub0 = r1 a0 + r2 d0, which the field couples, and dark part
    ud0 = r2 a0 - r1 d0; s0 and an0 are the symmetric and antisymmetric
    parts of (|ge,n>, |eg,n>). live is the pair the scalar channel
    carries: 0::3 when the preparation sets c01 and c10 to 0, 1:3 when
    it sets c00 and c11 to 0, all four rows otherwise.
    """

    t: np.ndarray
    ep: np.ndarray
    ground: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    ub0: np.ndarray
    ud0: np.ndarray
    s0: np.ndarray
    an0: np.ndarray
    live: slice

    def piece(self, cols):
        """The basis at the times t[cols], a slice, sharing the sector vectors."""
        return replace(self, t=self.t[cols], ep=self.ep[cols], ground=self.ground[cols])


def padded_weights(field):
    """Fock weights W_0..W_n_max and two zeros, so every sector 0..n_max + 1 can read W[n + 1]."""
    return np.append(field.weights, [0.0, 0.0])


def scatter_sectors(quads, ground):
    """Photon array (..., R, N + 1) of the sectors n = 0..N-1, grouped by Fock level.

    quads holds the four (..., N) components over (|gg,n+1>, |ge,n>, |eg,n>,
    |ee,n-1>), or None for a row to leave out; the array holds the R rows
    given, in a..d order. ground multiplies |gg,0> in row a, and sector 0's
    |ee> entry is dropped. Every amplitude table is built here.
    """
    held = [(k, x) for k, x in enumerate(quads) if x is not None]
    n_sec = held[0][1].shape[-1]
    photon = np.zeros(held[0][1].shape[:-1] + (len(held), n_sec + 1), dtype=complex)
    for i, (k, x) in enumerate(held):
        if k == 0:
            photon[..., i, 0] = ground
            photon[..., i, 1:] = x
        elif k == 3:
            photon[..., i, : n_sec - 1] = x[..., 1:]
        else:
            photon[..., i, :n_sec] = x
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


def sector_basis(t, init, field, omega_rabi):
    """The SectorBasis of the preparation init on the field at the times t.

    t is an array of times, or a scalar for one.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w_ext = padded_weights(field)
    ns = np.arange(field.n_max + 2)
    nf = ns.astype(float)
    a0, b0, c0, d0 = start_quadruples(ns, init, w_ext).T
    r1 = np.sqrt((nf + 1.0) / (2.0 * nf + 1.0))
    r2 = np.sqrt(nf / (2.0 * nf + 1.0))
    ep = np.exp(-1j * omega_rabi * t)[:, None]
    live = (BC_ROWS if not (init.c00 or init.c11)
            else AD_ROWS if not (init.c01 or init.c10) else ALL_ROWS)
    return SectorBasis(t=t, ep=ep, ground=ep[:, 0] * (w_ext[0] * init.c00), r1=r1, r2=r2,
                       ub0=r1 * a0 + r2 * d0, ud0=r2 * a0 - r1 * d0,
                       s0=(b0 + c0) / SQRT2, an0=(b0 - c0) / SQRT2, live=live)


def _build_table(basis, qp, qm):
    """Evaluate the closed form at the basis times into a table.

    qp and qm are the phase factors standing in for Q and its inverse,
    arrays that broadcast against the (T, N) grid of times and sectors.
    qm = None is the scalar channel, where both factors are the mean qp
    (a (T, 1) column of averaged_q): their cosine part is then exactly qp
    and their sine part exactly 0, so the sine terms are left out. Without
    them the pair (a, d) is built from c00 and c11 alone and the pair
    (b, c) from c01 and c10 alone, and the table holds only basis.live; a
    pair whose two amplitudes the preparation sets to 0 is exactly 0 at
    every time. The general form holds all four rows. Each amplitude is
    computed in its own (T, N) array and scatter_sectors lays them out.
    The form solves the bright/dark coupling block exactly and reproduces
    the initial state at t = 0. The paper's printed formulas, which do
    not, survive only in oracle.legacy_quadruples, as a comparison.
    """
    live = basis.live if qm is None else ALL_ROWS
    rows = range(4)[live]
    shape = (basis.t.size, basis.r1.size)
    ep, r1, r2, ud0 = basis.ep, basis.r1, basis.r2, basis.ud0
    a = b = c = d = None
    # Each (T, N) term once, sums and products updated in place, operands
    # in their original order: every value is bit-for-bit that of the
    # expression in the comment, except that the sign of a zero may
    # differ. numpy's complex multiply is not bitwise commutative, so a
    # product updates x in place only as np.multiply(y, x, out=x) where
    # the expression reads y * x; x *= y would compute x * y. A (T, 1)
    # column times an (N,) row gets an output array: the one numpy
    # allocates makes it loop over T innermost, several times slower.
    if qm is None:
        cosf, isin = qp, None
    else:
        cosf = (qp + qm) / 2.0
        isin = (qp - qm) / 2.0
    if 0 in rows:
        ub = np.multiply(cosf, basis.ub0, out=np.empty(shape, dtype=complex))
        if isin is not None:
            ub += isin * basis.s0  # ub = cosf * ub0 + isin * s0
        d = r2 * ub
        d -= r1 * ud0
        np.multiply(ep, d, out=d)  # d = ep * (r2 * ub - r1 * ud0)
        a = np.multiply(r1, ub, out=ub)
        a += r2 * ud0
        np.multiply(ep, a, out=a)  # a = ep * (r1 * ub + r2 * ud0)
    if 1 in rows:
        sym = np.multiply(cosf, basis.s0, out=np.empty(shape, dtype=complex))
        if isin is not None:
            sym += isin * basis.ub0  # sym = cosf * s0 + isin * ub0
        np.multiply(ep, sym, out=sym)
        dark = np.multiply(np.conj(ep), basis.an0, out=np.empty(shape, dtype=complex))
        # b = (ep * sym + em * an0) / SQRT2, c = (ep * sym - em * an0) / SQRT2:
        # numpy divides a complex value by a real d as (re + im * 0) * (1 / d),
        # so scaling by INV_SQRT2 gives the quotient but for the sign of a zero.
        b = np.add(sym, dark)
        b *= INV_SQRT2
        c = np.subtract(sym, dark, out=sym)
        c *= INV_SQRT2
    return AmplitudeTable(scatter_sectors((a, b, c, d), basis.ground), live)


def amplitude_table(basis, q):
    """Phase-averaged amplitudes of the scalar channel at the basis times.

    Both random phase factors are replaced by the scalar mean q, one value
    per time: averaged_q(basis.t, gamma), which freezes the coupled
    dynamics entirely at gamma = 0. The table holds the rows basis.live.
    The density built from these amplitudes is not the ensemble-averaged
    state; oracle.joint_averaged_density is.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float)).astype(complex)[:, None]
    return _build_table(basis, q, None)


def frozen_phases(t, ns):
    """(T, S) phase factors exp(i omega_n t) of the sectors ns with the coupling phase frozen.

    omega_n = sqrt(2 (2n+1)), the bright-state frequency of sector n in
    units of the field coupling.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    omega_n = np.sqrt(2.0 * (2.0 * np.asarray(ns) + 1.0))
    return np.exp(1j * (t_arr[:, None] * omega_n[None, :]))


def deterministic_table(basis):
    """Amplitudes with the coupling phase frozen, so the coupling is the unit of energy.

    Every sector evolves with its own phases frozen_phases(basis.t, ns)
    and their conjugates, in a four-row table. This is the reference
    dynamics the exact propagator must reproduce.
    """
    qp = frozen_phases(basis.t, np.arange(basis.r1.size))
    return _build_table(basis, qp, np.conj(qp))


def table_density(table):
    """Photon-summed density matrices for every time in the table.

    Returns (rho, pre_norm_trace) with shapes (T, 4, 4) and (T,); a table
    built at a scalar time has T = 1. The outer-product assembly keeps the
    matrix Hermitian and positive by construction before renormalization.
    Where the phase averaging drained the state (at q = 0, a preparation with
    no ground or dark weight), the trace is 0 and that time's matrix is NaN.

    Each entry (i, j) of the live rows is its own einsum over the photon
    columns, written in place into the zero-filled rho; an entry that
    touches a row outside live is +0, which rho already holds. einsum sums
    each entry in order from +0, so every entry has the bits of the
    "tim,tjm->tij" contraction; matmul and np.sum accumulate in other
    orders and would move preset bits. Since no sum is -0, scaling the
    real and imaginary parts by 1 / pre gives the bits of the complex
    quotient rho / pre, which numpy forms as (re + im * 0) * (1 / pre).
    """
    rows = range(4)[table.live]
    v = table.photon
    cv = np.conj(v)
    rho = np.zeros((v.shape[0], 4, 4), dtype=complex)
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            np.einsum("tm,tm->t", v[:, i], cv[:, j], out=rho[:, ri, rj])
    pre = np.einsum("tii->t", rho).real
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * (1 / 0) at a drained time
        rho.view(float)[...] *= (1.0 / pre)[:, None, None]
    return rho, pre
