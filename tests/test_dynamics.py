"""Closed-form channel amplitudes: erf_array, the averaged
phase factor, sector amplitudes, photon regrouping and the reduced density
matrix.

Reference values were frozen from independent evaluations (math.erf, the
direct formula for the average, explicit 4x4 outer products).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav.dynamics import (
    INV_SQRT2,
    AmplitudeTable,
    AtomicInit,
    amplitude_table,
    averaged_q,
    deterministic_table,
    erf_array,
    frozen_phases,
    gather_sectors,
    padded_weights,
    scatter_sectors,
    sector_basis,
    start_quadruples,
    table_density,
    _build_table,
)
from chaocav.field import coherent_weights
from chaocav.linalg import require_density_matrix
from chaocav.oracle import build_block
from conftest import BELL_INIT, four_rows, random_pure_state, random_unitary

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
    # beyond the series, erf_array is math.erf
    tail = np.abs(xs) > 3.0
    assert got[tail].view(np.int64).tolist() == want[tail].view(np.int64).tolist()


def test_erf_array_is_bit_equal_to_scalar_erf():
    # the branch masks must not let neighbours change a point's bits: the
    # whole array equals each point evaluated on its own
    xs = np.concatenate([ERF_EDGES, np.linspace(-8.0, 8.0, 20001)])
    got = erf_array(xs)
    want = np.array([erf1(x) for x in xs.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    grid = xs[:18].reshape(3, 6)
    assert np.array_equal(erf_array(grid), want[:18].reshape(3, 6))


def erf_series_reference(x):
    # One element at a time: the same term recurrence, stopped at the
    # element's own first contribution below 1e-18.
    ax = abs(x)
    x2 = ax * ax
    term = total = ax
    k = 0
    while True:
        k += 1
        term *= -x2 / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < 1e-18:
            return math.copysign(total * 2.0 / math.sqrt(math.pi), x)


def test_erf_series_equals_the_per_element_stop_bit_for_bit(rng):
    # The whole-array sum runs every element to the slowest one's stop; the
    # extra contributions must leave each sum's bits alone.
    below = np.nextafter(3.0, 0.0)
    edges = [3.0, below, np.nextafter(below, 0.0), 0.0, 5e-324, 1e-310,
             2.2250738585072014e-308, 1e-300, 1e-8, 1.4e-6]
    mags = np.exp(rng.uniform(math.log(1e-320), math.log(3.0), 3000))
    xs = np.concatenate([edges, np.negative(edges), np.linspace(-3.0, 3.0, 20001),
                         mags * rng.choice([-1.0, 1.0], mags.size)])
    want = np.array([erf_series_reference(x) for x in xs.tolist()])
    assert np.array_equal(erf_array(xs).view(np.uint64), want.view(np.uint64))
    for x in edges + [-0.0, -1.7, 2.9]:
        got = erf_array(np.float64(x))
        assert got.shape == ()
        assert got.view(np.uint64) == np.float64(erf_series_reference(x)).view(np.uint64), x


def erf_per_element(xs):
    # The per-element stop where the series applies, math.erf elsewhere.
    return np.array([erf_series_reference(x) if abs(x) <= 3.0 else math.erf(x)
                     for x in np.ravel(xs).tolist()]).reshape(np.shape(xs))


@pytest.mark.parametrize("xs", [
    [3.5, -4.0, 7.0, 1e300, -np.inf],        # tail only: the largest series |x| is 0
    [3.5, 0.0, -0.0, -6.2],                  # series values all 0
    [1e-300, 3.0, -1e-200, 1e-100, 1e-30, -1e-12, 1e-8],  # a lone 3.0
    [3.0, -3.0, 3.0, 0.7, -2.1],             # the largest |x| repeated
    [np.nextafter(3.0, 0.0)] * 3 + [1.0, -2.0, np.nextafter(3.0, 4.0)],
    [np.nan, 2.9, np.inf, -1.2, -np.inf, 0.3, np.nan, -3.0],
])
def test_erf_term_count_equals_the_per_element_stop_bit_for_bit(xs):
    # erf_array runs the largest series |x|'s own stop plus two terms on
    # every element; the result must be the per-element stop's, bit for bit.
    xs = np.array(xs)
    got = erf_array(xs)
    assert got.shape == xs.shape
    assert np.array_equal(got.view(np.uint64), erf_per_element(xs).view(np.uint64))


def test_erf_term_count_on_0d_and_empty_input():
    for x in (2.5, -3.0, 0.0, 1e-300, 4.0, np.nan):
        got = erf_array(np.float64(x))
        assert got.shape == ()
        assert got.view(np.uint64) == erf_per_element(np.float64(x)).view(np.uint64), x
    for shape in ((0,), (0, 3), (2, 0)):
        got = erf_array(np.empty(shape))
        assert got.shape == shape and got.dtype == float


def test_erf_odd_symmetry_is_exact():
    xs = np.array([0.3, 1.7, 2.9999, 3.0001, 5.5, 7.0])
    assert np.array_equal(erf_array(-xs), -erf_array(xs))
    assert erf1(0.0) == 0.0


def test_erf_saturates_beyond_six():
    assert erf1(6.0) == 1.0
    assert erf1(-7.3) == -1.0
    # erfc(6) = 2.2e-17 is below half an ulp of 1, so erf(6) rounds to 1
    assert abs(1.0 - math.erf(6.0)) < 1e-16
    assert erf1(math.inf) == 1.0
    assert erf1(-math.inf) == -1.0
    assert math.isnan(erf1(math.nan))


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


def test_averaged_q_saturates_past_the_float_range():
    # t sqrt(pi gamma) overflows to inf; the exact limit is q = 0, silently
    assert averaged_q(1e200, 1e300) == 0.0
    assert np.array_equal(averaged_q(np.array([0.0, 1e200]), 1e300), [1.0, 0.0])


def test_averaged_q_is_one_at_t_zero_when_pi_gamma_overflows():
    # pi * 1e308 is inf and 0 * inf is NaN; t = 0 still gives q = 1 exactly,
    # and the suite turns any RuntimeWarning into a failure
    assert np.array_equal(averaged_q([0.0, 1.0], 1e308), [1.0, 0.0])


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


def test_averaged_q_memory_on_a_contour_grid():
    # fig 3's 150 times by 400 gamma rows, a 0.48 MB result: the series
    # once peaked at about 15 times that, 7.4 MB.
    ts, gammas = np.linspace(0.0, 3.0, 150), np.linspace(0.0, 1.0, 400)
    tracemalloc.start()
    try:
        averaged_q(np.broadcast_to(ts, (gammas.size, ts.size)), gammas[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak


# ---------------------------------------------------------------- configuration objects

def test_atomic_init_norm_enforcement():
    with pytest.raises(ValueError, match="norm"):
        AtomicInit(1.0, 1.0, 0.0, 0.0)
    assert abs(BELL_INIT.norm_squared() - 1.0) <= 1e-15
    vec = AtomicInit(0, 0, 0, 1).as_vector()
    assert vec.dtype == complex
    assert np.array_equal(vec, np.array([0, 0, 0, 1], dtype=complex))


# ---------------------------------------------------------------- amplitude tables

def small_setup():
    return AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)), coherent_weights(2.0)


def test_photon_regrouping_aligns_with_sectors():
    # The x state fills only the pair (a, d): the table holds those two
    # rows, and the general form gives rows b and c exact zeros.
    init, field = small_setup()
    ts = np.linspace(0.0, 3.0, 7)
    basis = sector_basis(ts, init, field, 1.0)
    q = averaged_q(ts, 0.3)
    table = amplitude_table(basis, q)
    # the sector quadruples of the general form, which builds all four rows
    n_sec = field.n_max + 2
    w_ext = padded_weights(field)
    qp = q.astype(complex)[:, None]
    general = _build_table(basis, qp, qp)
    amp_a, amp_b, amp_c, amp_d = np.moveaxis(gather_sectors(general.photon, np.arange(n_sec)),
                                              -1, 0)
    ep = np.exp(-1j * ts)[:, None]
    row_a, row_d = table.row(0), table.row(3)
    assert table.photon.shape == (ts.size, 2, n_sec + 1) and table.live == slice(0, 4, 3)
    assert np.array_equal(row_a[:, 0], ep[:, 0] * (w_ext[0] * init.c00))
    assert np.array_equal(row_a[:, 1:], amp_a)
    assert np.array_equal(row_d[:, :n_sec - 1], amp_d[:, 1:])
    assert table.row(1) is None and table.row(2) is None
    assert not np.any(amp_b) and not np.any(amp_c)
    assert np.all(amp_d[:, 0] == 0.0)  # |ee,-1> does not exist
    # the slots no sector reaches stay empty
    assert np.all(row_d[:, n_sec - 1:] == 0.0)
    # row(0), row(3) and photon_a are views of the table's two rows
    for k, view in enumerate((row_a, row_d)):
        assert np.shares_memory(view, table.photon)
        assert np.array_equal(view, table.photon[:, k])
    assert np.shares_memory(table.photon_a, table.photon)
    # the density read straight from the photon array equals the four-row route
    v = four_rows(table)
    rho = np.einsum("tim,tjm->tij", v, np.conj(v))
    pre = np.einsum("tii->t", rho).real
    got_rho, got_pre = table_density(table)
    assert np.array_equal(got_pre, pre)
    assert np.array_equal(got_rho, rho / pre[:, None, None])


def slot_writing_table(basis, qp, qm):
    """The (T, R, N + 1) photon array as _build_table wrote it before it
    handed its amplitudes to scatter_sectors: each last product straight
    into its table slot. Every preset was drawn with these bits."""
    live = basis.live if qm is None else slice(0, 4)
    rows = range(4)[live]
    n_sec = basis.r1.size
    shape = (basis.t.size, n_sec)
    ep, r1, r2, ud0 = basis.ep, basis.r1, basis.r2, basis.ud0
    photon = np.empty((shape[0], len(rows), n_sec + 1), dtype=complex)
    if qm is None:
        cosf, isin = qp, None
    else:
        cosf = (qp + qm) / 2.0
        isin = (qp - qm) / 2.0
    if 0 in rows:
        ub = np.multiply(cosf, basis.ub0, out=np.empty(shape, dtype=complex))
        if isin is not None:
            ub += isin * basis.s0
        row_a, row_d = photon[:, rows.index(0)], photon[:, rows.index(3)]
        row_a[:, 0] = basis.ground
        amp_d = r2 * ub
        amp_d -= r1 * ud0
        np.multiply(ep, amp_d[:, 1:], out=row_d[:, : n_sec - 1])
        row_d[:, n_sec - 1:] = 0.0
        amp_a = np.multiply(r1, ub, out=ub)
        amp_a += r2 * ud0
        np.multiply(ep, amp_a, out=row_a[:, 1:])
    if 1 in rows:
        sym = np.multiply(cosf, basis.s0, out=np.empty(shape, dtype=complex))
        if isin is not None:
            sym += isin * basis.ub0
        np.multiply(ep, sym, out=sym)
        dark = np.multiply(np.conj(ep), basis.an0, out=np.empty(shape, dtype=complex))
        for k, combine in ((1, np.add), (2, np.subtract)):
            row = photon[:, rows.index(k)]
            amp = combine(sym, dark, out=row[:, :n_sec])
            amp *= INV_SQRT2
            row[:, n_sec] = 0.0
    return photon


@pytest.mark.parametrize("alpha", [5.0, 6.0])
@pytest.mark.parametrize("steps", [150, 500])
def test_tables_keep_the_bits_of_the_slot_writing_build(alpha, steps):
    # A (T, N) amplitude of 150 times on alpha 5 is about 168 KB, of 500
    # times on alpha 6 about 704 KB: both sides of the 256 KiB above which
    # numpy reuses a temporary in place. The uint64 views make signed
    # zeros count.
    field = coherent_weights(alpha)
    ts = np.linspace(0.0, 10.0, steps)
    n_sec = field.n_max + 2
    for init, live in [(AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)), slice(0, 4, 3)),
                       (AtomicInit(0.0, 0.6, 0.8j, 0.0), slice(1, 3)),
                       (AtomicInit(0.5, 0.5j, -0.5, 0.5j), slice(0, 4))]:
        basis = sector_basis(ts, init, field, 1.3)
        for gamma in (0.1, 0.9):
            q = averaged_q(ts, gamma)
            table = amplitude_table(basis, q)
            want = slot_writing_table(basis, q.astype(complex)[:, None], None)
            assert table.live == live and table.photon.shape == want.shape
            assert np.array_equal(table.photon.view(np.uint64), want.view(np.uint64))
        qp = frozen_phases(ts, np.arange(n_sec))
        table = deterministic_table(basis)
        want = slot_writing_table(basis, qp, np.conj(qp))
        assert table.live == slice(0, 4) and table.photon.shape == want.shape
        assert np.array_equal(table.photon.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("init, live", [
    (AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)), slice(0, 4, 3)),
    (AtomicInit(0.0, 0.6, 0.8j, 0.0), slice(1, 3)),
    (AtomicInit(0.5, 0.5j, -0.5, 0.5j), slice(0, 4)),
], ids=["gg_ee", "ge_eg", "four_rows"])
def test_table_density_is_the_four_row_contraction_bit_for_bit(init, live):
    # Each entry's own einsum and the real reciprocal give the bits of the
    # whole contraction divided by pre. Time 2 is drained by hand: its
    # matrix is all NaN, with no warning (warnings are errors here).
    field = coherent_weights(3.0)
    ts = np.linspace(0.0, 3.0, 9)
    table = amplitude_table(sector_basis(ts, init, field, 1.3), averaged_q(ts, 0.4))
    photon = table.photon.copy()
    photon[2] = 0.0
    table = AmplitudeTable(photon, table.live)
    assert table.live == live
    v = four_rows(table)
    want = np.einsum("tim,tjm->tij", v, v.conj())
    want_pre = np.einsum("tii->t", want).real
    with np.errstate(invalid="ignore"):
        want /= want_pre[:, None, None]
    rho, pre = table_density(table)
    assert np.array_equal(pre.view(np.uint64), want_pre.view(np.uint64))
    assert np.array_equal(rho.view(np.uint64), want.view(np.uint64))
    assert pre[2] == 0.0 and np.all(np.isnan(rho[2].view(float)))
    assert not np.any(np.isnan(np.delete(rho, 2, axis=0)))


SQRT_HALF = math.sqrt(0.5)


@pytest.mark.parametrize("init, alpha", [
    (AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)), 3.0),
    (AtomicInit(0.5, 0.5j, -0.5, 0.5j), 3.0),
    (AtomicInit(SQRT_HALF, 0.0, 0.0, SQRT_HALF), 5.0),
    (AtomicInit(0.0, SQRT_HALF, SQRT_HALF, 0.0), 0.0),
    # -0.0 amplitudes count as empty: the pair they sit in is not held
    (AtomicInit(0.6, -0.0, complex(-0.0, -0.0), -0.8), 2.0),
    (AtomicInit(complex(-0.0, 0.0), 0.6, 0.8j, complex(0.0, -0.0)), 2.0),
], ids=["x_state", "c01_c10", "bell", "psi_plus_vacuum", "negative_zero_x", "negative_zero_psi"])
def test_scalar_form_equals_the_general_form(init, alpha):
    # qm = None leaves out the sine terms, which vanish when qm equals qp,
    # and holds no pair the preparation leaves empty: each row it holds is,
    # bit for bit, the general form's, and the general form gives the
    # other pair exact zeros
    field = coherent_weights(alpha)
    ts = np.linspace(0.0, 4.0, 9)
    basis = sector_basis(ts, init, field, 1.3)
    dead_ad = init.c00 == 0 and init.c11 == 0
    dead_bc = init.c01 == 0 and init.c10 == 0
    for gamma in (0.0, 0.7, 1e300):
        q = averaged_q(ts, gamma)
        scalar = amplitude_table(basis, q)
        qp = q.astype(complex)[:, None]
        general = _build_table(basis, qp, qp.copy())
        assert [scalar.row(k) is None for k in range(4)] == [dead_ad, dead_bc, dead_bc, dead_ad]
        assert scalar.photon.shape[1] == 4 - 2 * (dead_ad + dead_bc)
        assert general.photon.shape[1] == 4
        for k in range(4):
            got, want = scalar.row(k), general.row(k)
            if got is None:
                assert not np.any(want)
            else:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (gamma, k)


@pytest.mark.parametrize("alpha", [0.0, 2.0, 5.0])
def test_scalar_channel_never_mixes_the_two_atomic_pairs(alpha):
    # The scalar channel builds (a, d) from c00, c11 and (b, c) from c01,
    # c10 alone, which is why a table carries only the pair its preparation
    # fills. Both halves are pinned: an empty pair's rows, |gg,0> included,
    # are exactly 0, and with both pairs filled, flipping the sign of one
    # pair's amplitudes leaves the other pair's rows unchanged bit for bit
    # and negates its own, so a change that couples the pairs fails here.
    field = coherent_weights(alpha)
    ts = np.array([0.0, 0.4, 1.3, 2.9])
    for gamma in (0.0, 0.3, 2.0, 1e300):
        q = averaged_q(ts, gamma)
        qp = q.astype(complex)[:, None]

        def table(amplitudes):
            return amplitude_table(sector_basis(ts, AtomicInit(*amplitudes), field, 1.3), q)

        # a table holds only the filled pair; the general form, which
        # builds all four rows, gives the other pair exact zeros
        for amplitudes, live, empty in [((0.2, 0.0, 0.0, math.sqrt(0.96)), slice(0, 4, 3),
                                         slice(1, 3)),
                                        ((0.0, 0.6, 0.8j, 0.0), slice(1, 3), slice(0, 4, 3))]:
            scalar = table(amplitudes)
            basis = sector_basis(ts, AtomicInit(*amplitudes), field, 1.3)
            general = _build_table(basis, qp, qp).photon
            assert scalar.live == live and np.any(scalar.photon)
            assert not np.any(general[:, empty]) and np.any(general[:, live])
        both = np.array([0.6, 0.48, 0.64j, 0.0])
        base = table(both).photon
        for own, other in [(slice(1, 3), slice(0, 4, 3)), (slice(0, 4, 3), slice(1, 3))]:
            signs = np.ones(4)
            signs[own] = -1.0
            photon = table(signs * both).photon
            assert np.array_equal(photon[:, other].view(np.uint64), base[:, other].view(np.uint64))
            assert np.array_equal(photon[:, own], -base[:, own])


@pytest.mark.parametrize("alpha", [2.0, 5.0])
def test_start_quadruples_equal_a_per_sector_loop(alpha):
    # sectors 0 (no |ee,-1>) through n_max + 1 (reads the padding), with
    # c01, c10 != 0 so every component carries weight; the uint64 views
    # make signed zeros count
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5j)
    field = coherent_weights(alpha)
    w = list(field.weights) + [0.0, 0.0]
    ns = np.array([0, 1, 5, field.n_max, field.n_max + 1])
    want = np.array([[w[n + 1] * init.c00, w[n] * init.c01, w[n] * init.c10,
                      w[n - 1] * init.c11 if n >= 1 else 0.0j] for n in ns])
    got = start_quadruples(ns, init, padded_weights(field))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_scatter_equals_the_slice_layout_and_gather_inverts_it():
    # c01, c10 != 0 so every component carries weight; the uint64 views
    # make signed zeros count
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5j)
    field = coherent_weights(2.0)
    n_sec = field.n_max + 2
    ns = np.arange(n_sec)
    w_ext = padded_weights(field)
    ts = np.linspace(0.0, 2.0, 5)
    # the quadruples of a deterministic table, which holds all four rows
    table = deterministic_table(sector_basis(ts, init, field, 0.7))
    quads = tuple(np.moveaxis(gather_sectors(table.photon, ns), -1, 0))
    ground = table.photon_a[:, 0]
    # a (T, N) batch against slice assignments
    want = np.zeros((ts.size, 4, n_sec + 1), dtype=complex)
    want[:, 0, 0] = ground
    want[:, 0, 1:] = quads[0]
    want[:, 1, :n_sec] = quads[1]
    want[:, 2, :n_sec] = quads[2]
    want[:, 3, : n_sec - 1] = quads[3][:, 1:]
    photon = scatter_sectors(quads, ground)
    assert np.array_equal(photon.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(table.photon.view(np.uint64), want.view(np.uint64))
    # a row given as None is left out, and the rows held are the four-row layout's
    for held in ([0, 3], [1, 2]):
        part = scatter_sectors([x if k in held else None for k, x in enumerate(quads)], ground)
        assert np.array_equal(part.view(np.uint64), photon[:, held].view(np.uint64))
    back = np.stack(quads, axis=-1)
    back[:, 0, 3] = 0.0  # |ee,-1> does not exist
    assert np.array_equal(gather_sectors(photon, ns).view(np.uint64), back.view(np.uint64))
    picked = [0, 1, n_sec - 1]
    assert np.array_equal(gather_sectors(photon, picked), back[:, picked])
    # one (N,) quadruple set against a per-sector loop
    start = start_quadruples(ns, init, w_ext)
    want = np.zeros((4, n_sec + 1), dtype=complex)
    want[0, 0] = w_ext[0] * init.c00
    for n in ns:
        want[0, n + 1] = start[n, 0]
        want[1, n] = start[n, 1]
        want[2, n] = start[n, 2]
        if n >= 1:
            want[3, n - 1] = start[n, 3]
    photon = scatter_sectors(start.T, w_ext[0] * init.c00)
    assert np.array_equal(photon.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(gather_sectors(photon, ns).view(np.uint64), start.view(np.uint64))


def test_frozen_phases_are_the_deterministic_tables_phases():
    # the inline form deterministic_table used, bit for bit, and the
    # bright-state eigenfrequency of each sector block
    init = AtomicInit(0.5, 0.5j, -0.5, 0.5j)
    field = coherent_weights(2.0)
    ts = np.linspace(0.0, 3.0, 7)
    ns = np.arange(field.n_max + 2)
    omega_n = np.sqrt(2.0 * (2.0 * ns + 1.0))
    qp = np.exp(1j * (ts[:, None] * omega_n[None, :]))
    got = frozen_phases(ts, ns)
    assert np.array_equal(got.view(np.uint64), qp.view(np.uint64))
    basis = sector_basis(ts, init, field, 0.9)
    want = _build_table(basis, qp, np.conj(qp)).photon
    table = deterministic_table(basis)
    assert np.array_equal(table.photon.view(np.uint64), want.view(np.uint64))
    bright = [np.linalg.eigvalsh(build_block(n, 0.0))[-1] for n in (0, 1, 5)]
    assert np.max(np.abs(frozen_phases(ts, [0, 1, 5]) - np.exp(1j * np.outer(ts, bright)))) <= 1e-12


def test_initial_state_is_reproduced():
    for init in (BELL_INIT,
                 AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96)),
                 AtomicInit(0.5, 0.5j, -0.5, 0.5j)):
        for gamma in (0.0, 0.5):
            field = coherent_weights(3.0)
            basis = sector_basis(0.0, init, field, 1.0)
            rho, pre = table_density(amplitude_table(basis, averaged_q(0.0, gamma)))
            vec = init.as_vector()
            want = np.outer(vec, vec.conj())
            assert np.max(np.abs(rho[0] - want)) <= 1e-9
            assert abs(pre[0] - 1.0) <= 1e-11


def test_zero_coupling_keeps_state_frozen():
    # gamma = 0 freezes the averaged field coupling; with the spin exchange
    # also off nothing moves at all
    init, field = small_setup()
    ts = np.linspace(0.0, 8.0, 9)
    rho, _ = table_density(amplitude_table(sector_basis(ts, init, field, 0.0), averaged_q(ts, 0.0)))
    dev = np.max(np.abs(rho - rho[0]))
    assert dev <= 1e-12


def test_averaged_gamma_zero_equals_decoupled_phase():
    # at gamma = 0 both phase factors are exactly 1, so the scalar channel
    # must match the two-phase path with both factors held at 1
    init, field = small_setup()
    ts = np.linspace(0.0, 5.0, 11)
    ones = np.ones((ts.size, 1), dtype=complex)
    basis = sector_basis(ts, init, field, 1.0)
    avg, _ = table_density(amplitude_table(basis, averaged_q(ts, 0.0)))
    two, _ = table_density(_build_table(basis, ones, ones))
    assert np.max(np.abs(avg - two)) <= 1e-12


def test_deterministic_evolution_preserves_norm():
    init = BELL_INIT
    field = coherent_weights(2.0)
    table = deterministic_table(sector_basis(np.linspace(0.0, 6.0, 13), init, field, 1.0))
    _, pre = table_density(table)
    total = float(np.sum(field.weights**2))
    assert np.max(np.abs(pre - total)) <= 1e-12


def test_averaging_shrinks_the_raw_trace_monotonically():
    init, field = small_setup()
    ts = np.linspace(0.0, 10.0, 41)
    _, pre = table_density(amplitude_table(sector_basis(ts, init, field, 1.0), averaged_q(ts, 0.5)))
    assert np.all(np.diff(pre) <= 1e-15)
    assert pre[-1] < pre[0]
    assert np.all(pre > 0.0)


def test_density_invariants_over_parameter_grid():
    init = BELL_INIT
    field = coherent_weights(5.0)
    ts = np.linspace(0.0, 10.0, 41)
    basis = sector_basis(ts, init, field, 1.0)
    for gamma in (0.0, 0.1, 0.5, 0.9, 1.0):
        rho, _ = table_density(amplitude_table(basis, averaged_q(ts, gamma)))
        for k in range(len(ts)):
            require_density_matrix(rho[k], context=f"t={ts[k]:.2f} gamma={gamma}")


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_amplitudes_are_linear_in_the_preparation(seed):
    # two orthonormal preparations and a unit-norm (ca, cb), so every
    # state involved is a valid AtomicInit
    rng = np.random.default_rng(seed)
    field = coherent_weights(1.5)
    ts = np.array([0.0, 0.9, 2.1])
    q = averaged_q(ts, 0.4)
    basis = random_unitary(rng, dim=4)
    ca, cb = random_pure_state(rng, dim=2)
    base_a = AtomicInit(*basis[:, 0])
    base_b = AtomicInit(*basis[:, 1])
    mixed = AtomicInit(*(ca * basis[:, 0] + cb * basis[:, 1]))
    ta, tb, tm = (amplitude_table(sector_basis(ts, init, field, 1.0), q)
                  for init in (base_a, base_b, mixed))
    combo = ca * four_rows(ta) + cb * four_rows(tb)
    assert np.max(np.abs(four_rows(tm) - combo)) <= 1e-12
