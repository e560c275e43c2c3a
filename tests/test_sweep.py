"""The shared (gamma, t) sweep: one phase-factor evaluation per group of
gamma rows, one sector basis per sweep, one amplitude table per gamma row,
the same numbers as per-row evaluation, the single-point density and the
Bell-projection reference, and a table that stays within its memory budget."""

import math
import tracemalloc

import numpy as np
import pytest

from chaocav import sweep
from chaocav.dynamics import (INV_SQRT2, AtomicInit, amplitude_table, averaged_q, sector_basis,
                              table_density)
from chaocav.entanglement import _doe_from_rhos, negativity
from chaocav.field import coherent_weights
from chaocav.linalg import InvariantViolation
from chaocav.teleport import WEIGHT_FLOOR, UnknownQubit, bell_project_teleport, kappa_sums
from conftest import BELL_INIT, four_rows

INIT = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
# c01, c10 != 0: the preparation through which omega reaches the outputs
MIXED_INIT = AtomicInit(0.6, 0.3 + 0.1j, -0.2, math.sqrt(1.0 - 0.36 - 0.1 - 0.04))
UNKNOWN = UnknownQubit(0.95, math.sqrt(1.0 - 0.95 ** 2))


def counting(monkeypatch, name, calls):
    original = getattr(sweep, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep, name, wrapper)


def test_each_grid_point_is_computed_once(monkeypatch):
    calls = {}
    for name in ("averaged_q", "amplitude_table", "table_density", "kappa_sums"):
        counting(monkeypatch, name, calls)
    ts = np.linspace(0.0, 3.0, 7)
    grid = sweep.sweep_grid(ts, [0.0, 0.3, 0.9], INIT, coherent_weights(2.0), UNKNOWN)
    assert calls == {"averaged_q": 1, "amplitude_table": 3, "table_density": 3,
                     "kappa_sums": 3}
    for arr in (grid.doe, grid.pre_norm_trace, grid.fidelity, grid.kappa1,
                grid.kappa2, grid.kappa4, grid.weight):
        assert arr.shape == (3, 7)


def test_entanglement_only_sweep_has_no_teleport_arrays():
    grid = sweep.sweep_grid([0.0, 1.0], [0.5], INIT, coherent_weights(2.0))
    assert grid.fidelity is None and grid.kappa2 is None and grid.weight is None
    assert grid.doe.shape == (1, 2)


def test_grid_matches_single_point_routes():
    field = coherent_weights(3.0)
    ts = np.array([0.4, 1.1, 2.5])
    gammas = np.array([0.1, 0.7])
    grid = sweep.sweep_grid(ts, gammas, INIT, field, UNKNOWN)
    for i, gamma in enumerate(gammas):
        for k, t in enumerate(ts):
            q = averaged_q(float(t), float(gamma))
            rho, pre = table_density(amplitude_table(sector_basis(float(t), INIT, field, 1.0), q))
            assert abs(grid.doe[i, k] - negativity(rho[0])) <= 1e-12
            assert abs(grid.pre_norm_trace[i, k] - pre[0]) <= 1e-12
            out = bell_project_teleport(rho[0], UNKNOWN)[0]
            assert abs(grid.fidelity[i, k] - out.fidelity) <= 1e-12
            outcome_weight = grid.weight[i, k] / grid.pre_norm_trace[i, k]
            assert abs(outcome_weight - out.outcome_weight) <= 1e-12


def per_row(times, gammas, init, field, unknown, omega_rabi):
    # Each gamma row on its own: one table, one eigensolve of its live-pair
    # blocks (the production route), its own fidelity.
    rows = []
    au, bu = unknown.alpha_u, unknown.beta_u
    basis = sector_basis(times, init, field, omega_rabi)
    for gamma in gammas:
        table = amplitude_table(basis, averaged_q(times, gamma))
        rhos, pre = table_density(table)
        k1, k2, k4 = kappa_sums(table, unknown)
        weight = k1 + k4
        numer = (abs(au) ** 2 * k1 + np.conj(au) * bu * k2
                 + au * np.conj(bu) * np.conj(k2) + abs(bu) ** 2 * k4).real
        fid = np.full(times.size, np.nan)
        np.divide(numer, weight, out=fid, where=weight > WEIGHT_FLOOR)
        live = rhos[:, table.live, table.live]
        rows.append((_doe_from_rhos(live), pre, fid, k1, k2, k4, weight))
    return [np.array(column) for column in zip(*rows)]


def grid_columns(grid):
    return [grid.doe, grid.pre_norm_trace, grid.fidelity, grid.kappa1, grid.kappa2,
            grid.kappa4, grid.weight]


@pytest.mark.parametrize("init", [INIT, MIXED_INIT], ids=["x_state", "c01_c10"])
def test_row_groups_equal_per_row_evaluation(monkeypatch, init):
    # 23 rows of 300 times span two groups of 13 and 10 rows, and each
    # group evaluates q for its own rows.
    ts = np.linspace(0.0, 3.0, 300)
    gammas = np.linspace(0.0, 1.0, 23)
    assert sweep.GROUP_POINTS // ts.size < gammas.size
    field = coherent_weights(2.0)
    q_shapes = []

    def group_q(t, gamma):
        q = averaged_q(t, gamma)
        q_shapes.append(q.shape)
        return q

    monkeypatch.setattr(sweep, "averaged_q", group_q)
    grid = sweep.sweep_grid(ts, gammas, init, field, UNKNOWN, omega_rabi=1.3)
    assert q_shapes == [(13, 300), (10, 300)]
    for got, want in zip(grid_columns(grid), per_row(ts, gammas, init, field, UNKNOWN, 1.3)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def four_row_density(table):
    # every atomic row contracted, whatever the table's live pair
    v = four_rows(table)
    rho = np.einsum("tim,tjm->tij", v, np.conj(v))
    pre = np.einsum("tii->t", rho).real
    return rho / pre[:, None, None], pre


def four_row_kappas(table, unknown):
    a, b, c, d = np.moveaxis(four_rows(table), 1, 0)
    top = unknown.alpha_u * a + unknown.beta_u * c
    bot = unknown.alpha_u * b + unknown.beta_u * d
    return (0.5 * np.sum(np.abs(top) ** 2, axis=1), 0.5 * np.sum(top * np.conj(bot), axis=1),
            0.5 * np.sum(np.abs(bot) ** 2, axis=1))


SQRT_HALF = math.sqrt(0.5)
LIVE_PAIR_CASES = [
    (INIT, 5.0, slice(0, 4, 3)),  # fig 1's X state
    (AtomicInit(SQRT_HALF, 0.0, 0.0, SQRT_HALF), 5.0, slice(0, 4, 3)),  # Bell
    (AtomicInit(0.0, SQRT_HALF, SQRT_HALF, 0.0), 0.0, slice(1, 3)),  # psi+ in the vacuum
    (AtomicInit(0.5, 0.5j, -0.5, 0.5j), 2.0, slice(0, 4)),
]
# alpha_u in each complex quadrant, on both axes, 0 and 1
ALPHA_US = [0.6 + 0.3j, -0.6 + 0.3j, -0.3 - 0.5j, 0.4 - 0.7j, 1j, -0.8, 0.0, 1.0]


@pytest.mark.parametrize("init, alpha, live", LIVE_PAIR_CASES,
                         ids=["x_state", "bell", "psi_plus_vacuum", "all_four"])
def test_live_pair_contraction_equals_all_four_rows_bit_for_bit(monkeypatch, init, alpha, live):
    # The uint64 views make signed zeros count, which np.array_equal cannot see.
    field = coherent_weights(alpha)
    ts = np.linspace(0.0, 3.0, 31)
    gammas = [0.0, 0.4, 1.0]
    table = amplitude_table(sector_basis(ts, init, field, 1.3), averaged_q(ts, 0.4))
    assert table.live == live
    for got, want in zip(table_density(table), four_row_density(table)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    unknowns = [UnknownQubit(au, math.sqrt(1.0 - abs(au) ** 2)) for au in ALPHA_US]
    fast = [sweep.sweep_grid(ts, gammas, init, field, u, omega_rabi=1.3) for u in unknowns]
    monkeypatch.setattr(sweep, "table_density", four_row_density)
    monkeypatch.setattr(sweep, "kappa_sums", four_row_kappas)
    for unknown, grid in zip(unknowns, fast):
        for got, want in zip(kappa_sums(table, unknown), four_row_kappas(table, unknown)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), unknown
        ref = sweep.sweep_grid(ts, gammas, init, field, unknown, omega_rabi=1.3)
        for got, want in zip(grid_columns(grid), grid_columns(ref)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), unknown


@pytest.mark.parametrize("init, alpha, live", LIVE_PAIR_CASES[:3],
                         ids=["x_state", "bell", "psi_plus_vacuum"])
def test_live_pair_block_agrees_with_the_four_row_eigensolve(init, alpha, live):
    # Rows of several gammas in one batch, as a sweep group holds them. q = 0
    # drains psi+ (the other preparations keep a q-free part), and the
    # drained points are left out, as the sweep leaves them out. The block
    # route rotates by hand and the 4x4 route calls LAPACK, so they agree
    # to a few ulp (at most 4.4e-16 on these cases), not bit for bit.
    ts = np.linspace(0.0, 3.0, 31)
    basis = sector_basis(ts, init, coherent_weights(alpha), 1.3)
    rhos, pres = [], []
    for gamma in (0.0, 0.4, 1.0):
        q = averaged_q(ts, gamma)
        q[[3, 17]] = 0.0
        rho, pre = table_density(amplitude_table(basis, q))
        rhos.append(rho)
        pres.append(pre)
    rhos, pres = np.concatenate(rhos), np.concatenate(pres)
    kept = pres > 0.0
    assert np.count_nonzero(~kept) == (6 if live == slice(1, 3) else 0)
    got = _doe_from_rhos(rhos[kept][:, live, live])
    want = _doe_from_rhos(rhos[kept])
    assert np.max(np.abs(got - want)) <= 2e-15


def test_live_pair_block_edge_cases():
    assert _doe_from_rhos(np.empty((0, 2, 2), dtype=complex)).shape == (0,)
    block = np.array([[[0.5, 0.4], [0.4 + 1e-6j, 0.5]]])
    with pytest.raises(InvariantViolation, match="not Hermitian within 1e-9"):
        _doe_from_rhos(block)


@pytest.mark.parametrize("init", [INIT, BELL_INIT], ids=["x_state", "bell"])
def test_x_sweep_sees_t_and_gamma_only_through_q(init):
    # q(c t, gamma / c^2) = q(t, gamma), and an X preparation carries only
    # (|gg>, |ee>), whose rows share the phase exp(-i omega_rabi t), so
    # neither the scale c nor omega_rabi reaches any column.
    ts = np.linspace(0.0, 3.0, 31)
    gammas = np.array([0.0, 0.3, 0.9])
    field = coherent_weights(3.0)
    base = sweep.sweep_grid(ts, gammas, init, field, UNKNOWN, omega_rabi=1.0)
    for c, omega_rabi in ((2.5, 1.0), (0.4, 1.0), (1.0, 0.0), (1.7, 3.3)):
        other = sweep.sweep_grid(c * ts, gammas / c ** 2, init, field, UNKNOWN, omega_rabi)
        for got, want in zip(grid_columns(other), grid_columns(base)):
            assert np.max(np.abs(got - want)) <= 1e-12, (c, omega_rabi)


@pytest.mark.parametrize("init", [INIT, MIXED_INIT], ids=["x_state", "c01_c10"])
def test_pre_norm_trace_is_quadratic_in_q(init):
    # The scalar channel's amplitudes are a q-free part plus q times another,
    # so at one t the raw trace is a quadratic in q: three gammas fix it.
    t = 1.7
    gammas = np.array([0.0, 0.2, 0.9, 0.5, 2.0])
    q = averaged_q(t, gammas)
    pre = sweep.sweep_grid([t], gammas, init, coherent_weights(3.0), omega_rabi=1.3)
    pre = pre.pre_norm_trace[:, 0]
    fit = np.polyfit(q[:3], pre[:3], 2)
    assert np.max(np.abs(np.polyval(fit, q[3:]) - pre[3:])) <= 1e-12


def q_zero_trace(init, field):
    """Raw trace at q = 0, from the weights: |gg, 0>, each sector's dark
    mix of |gg, n+1> and |ee, n-1>, and the antisymmetric one-excitation
    state never exchange excitation with the field."""
    w = np.concatenate([[0.0], field.weights, [0.0, 0.0]])  # w[n + 1] = W_n
    n = np.arange(field.n_max + 2)
    r1 = np.sqrt((n + 1) / (2 * n + 1))
    r2 = np.sqrt(n / (2 * n + 1))
    ground = field.weights[0] ** 2 * abs(init.c00) ** 2
    dark_pair = np.sum(np.abs(r2 * w[n + 2] * init.c00 - r1 * w[n] * init.c11) ** 2)
    dark_single = abs(init.c01 - init.c10) ** 2 / 2 * np.sum(w[n + 1] ** 2)
    return ground + dark_pair + dark_single


@pytest.mark.parametrize("init, alpha", [
    (BELL_INIT, 5.0),
    (INIT, 5.0),
    (AtomicInit(0.5, 0.5j, -0.5, 0.5), 3.0),
    (AtomicInit(0.0, -INV_SQRT2, INV_SQRT2, 0.0), 2.0),
], ids=["bell", "fig1a", "four_rows", "psi_minus"])
def test_q_zero_keeps_the_ground_and_dark_weight(init, alpha):
    # at t > 0 a gamma of 1e300 gives q = 0: the state keeps the weight
    # that never couples to the field, and only that weight
    field = coherent_weights(alpha)
    times = np.array([0.5, 1.0, 3.0])
    assert not np.any(averaged_q(times, 1e300))
    grid = sweep.sweep_grid(times, [1e300], init, field)
    want = q_zero_trace(init, field)
    assert want > 0.0
    assert np.max(np.abs(grid.pre_norm_trace / want - 1.0)) <= 1e-14
    assert np.all(np.isfinite(grid.doe))


def test_q_zero_drains_a_preparation_without_dark_weight():
    # the symmetric one-excitation state with no photons couples wholly
    init = AtomicInit(0.0, INV_SQRT2, INV_SQRT2, 0.0)
    field = coherent_weights(0.0)
    assert q_zero_trace(init, field) == 0.0
    grid = sweep.sweep_grid([0.5, 1.0, 3.0], [1e300], init, field)
    assert np.array_equal(grid.pre_norm_trace, np.zeros((1, 3)))
    assert np.all(np.isnan(grid.doe))


def test_teleport_columns_ignore_a_global_phase_of_the_unknown_qubit():
    # why the CLI takes only --alpha-u: (a, b) and (a e^{i phi}, b e^{i phi})
    # are one state, so a real beta_u reaches every unknown qubit
    ts = np.linspace(0.0, 3.0, 31)
    gammas = [0.0, 0.4, 0.9]
    field = coherent_weights(2.0)
    a, b = 0.6 + 0.3j, 0.2 - math.sqrt(1.0 - 0.45 - 0.04) * 1j
    phase = complex(math.cos(1.1), math.sin(1.1))
    plain = sweep.sweep_grid(ts, gammas, MIXED_INIT, field, UnknownQubit(a, b))
    turned = sweep.sweep_grid(ts, gammas, MIXED_INIT, field,
                              UnknownQubit(a * phase, b * phase))
    for name in ("fidelity", "kappa1", "kappa2", "kappa4", "weight"):
        assert np.max(np.abs(getattr(turned, name) - getattr(plain, name))) <= 1e-12, name


def test_rows_split_over_t_match_the_whole_row(monkeypatch):
    field = coherent_weights(2.0)
    ts = np.linspace(0.0, 3.0, 41)
    gammas = [0.0, 0.4, 0.9]
    whole = sweep.sweep_grid(ts, gammas, MIXED_INIT, field, UNKNOWN)
    calls = {}
    counting(monkeypatch, "amplitude_table", calls)
    # a table of 6 times: pieces of 6, the last of 5
    monkeypatch.setattr(sweep, "TABLE_BUDGET_BYTES", 6 * 64 * (field.n_max + 3))
    split = sweep.sweep_grid(ts, gammas, MIXED_INIT, field, UNKNOWN)
    assert calls["amplitude_table"] == 3 * 7
    assert np.array_equal(split.doe, whole.doe)
    assert np.array_equal(split.pre_norm_trace, whole.pre_norm_trace)
    for name in ("fidelity", "kappa1", "kappa2", "kappa4", "weight"):
        assert np.max(np.abs(getattr(split, name) - getattr(whole, name))) <= 1e-15, name


def test_sector_basis_is_built_once_per_sweep(monkeypatch):
    # The basis holds what no q touches, so a sweep builds it once, not
    # once per gamma row, and each piece of a split row takes a slice of
    # it that shares its sector vectors.
    field = coherent_weights(2.0)
    ts = np.linspace(0.0, 3.0, 41)
    gammas = [0.0, 0.4, 0.9]
    calls = {}
    for name in ("sector_basis", "amplitude_table"):
        counting(monkeypatch, name, calls)
    sweep.sweep_grid(ts, gammas, MIXED_INIT, field, UNKNOWN)
    assert calls == {"sector_basis": 1, "amplitude_table": 3}
    # pieces of 6 times, the last of 5
    monkeypatch.setattr(sweep, "TABLE_BUDGET_BYTES", 6 * 64 * (field.n_max + 3))
    calls.clear()
    sweep.sweep_grid(ts, gammas, MIXED_INIT, field, UNKNOWN)
    assert calls == {"sector_basis": 1, "amplitude_table": 3 * 7}
    basis = sector_basis(ts, MIXED_INIT, field, 1.3)
    piece = basis.piece(slice(36, 42))
    assert piece.r1 is basis.r1 and piece.an0 is basis.an0 and piece.live == basis.live
    whole, part = (amplitude_table(b, averaged_q(b.t, 0.4)) for b in (basis, piece))
    assert part.photon.shape[0] == 5
    assert np.array_equal(part.photon.view(np.uint64), whole.photon[36:].view(np.uint64))


def test_pieces_do_not_copy_the_sector_vectors(monkeypatch):
    # One time per piece at alpha 20: a copy of the (n_max + 2) sector
    # vectors per piece peaked at about 90 MB here, the shared ones at 5 MB.
    field = coherent_weights(20.0)
    monkeypatch.setattr(sweep, "TABLE_BUDGET_BYTES", 64 * (field.n_max + 3))
    tracemalloc.start()
    try:
        sweep.sweep_grid(np.linspace(0.0, 10.0, 2000), [0.5], INIT, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak


def test_sweep_memory_does_not_grow_with_the_time_grid():
    # One row of 4000 times at alpha 20 held a 270 MiB table before rows
    # were split; now the peak stays within a few table budgets.
    peaks = {}
    for alpha in (5.0, 20.0):
        field = coherent_weights(alpha)
        for steps in (500, 4000):
            tracemalloc.start()
            try:
                sweep.sweep_grid(np.linspace(0.0, 10.0, steps), [0.5], INIT, field)
                peaks[alpha, steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert max(peaks.values()) <= 4 * sweep.TABLE_BUDGET_BYTES, peaks
    assert peaks[20.0, 4000] <= 1.2 * peaks[20.0, 500], peaks


def test_fig3_sweep_working_memory():
    # fig 3's settings, where one group's 4x4 stage sets the peak. A
    # one-pair preparation holds each density there as its 2x2 live-pair
    # block (64 bytes a point, not 256), which keeps the sweep within 4 MiB
    # beyond its result arrays; 4x4 densities would not. q is evaluated per
    # group, so the working memory does not grow with the gamma rows (a
    # whole-grid q put 400 rows 0.67 MiB above 100).
    field = coherent_weights(5.0)
    ts = np.linspace(0.0, 3.0, 150)
    working = {}
    for rows in (100, 400):
        tracemalloc.start()
        try:
            grid = sweep.sweep_grid(ts, np.linspace(0.0, 1.0, rows), BELL_INIT, field, UNKNOWN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        working[rows] = peak - sum(column.nbytes for column in grid_columns(grid))
    assert working[100] <= 4 * 2 ** 20, working
    assert abs(working[400] - working[100]) <= 2 ** 18, working


@pytest.mark.parametrize("init", [INIT, MIXED_INIT], ids=["x_state", "c01_c10"])
def test_empty_axes_give_empty_arrays(init):
    field = coherent_weights(2.0)
    for ts, gammas, shape in (([], [0.0, 0.5], (2, 0)), ([0.0, 1.0], [], (0, 2))):
        for unknown in (None, UNKNOWN):
            grid = sweep.sweep_grid(ts, gammas, init, field, unknown)
            for column in grid_columns(grid):
                assert column is None or column.shape == shape


def test_two_dimensional_axes_are_rejected():
    field = coherent_weights(2.0)
    with pytest.raises(ValueError, match="times must be a scalar or a 1-D array"):
        sweep.sweep_grid([[0.0, 1.0]], [0.5], INIT, field)
    with pytest.raises(ValueError, match="gammas must be a scalar or a 1-D array"):
        sweep.sweep_grid([0.0, 1.0], [[0.1], [0.5]], INIT, field)


def counting_work(monkeypatch):
    calls = {}
    for name in ("sector_basis", "averaged_q", "amplitude_table"):
        counting(monkeypatch, name, calls)
    return calls


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_bad_times_are_rejected_before_any_work(monkeypatch, bad):
    # an infinite time once reached sector_basis and its numpy warning first
    calls = counting_work(monkeypatch)
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        sweep.sweep_grid([0.0, 1.0, bad], [0.5], INIT, coherent_weights(2.0))
    assert calls == {}


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_a_bad_gamma_in_a_later_group_is_rejected_before_any_work(monkeypatch, bad):
    # 31 rows of 300 times make three groups; the bad gamma sits in the last
    ts = np.linspace(0.0, 1.0, 300)
    gammas = np.append(np.linspace(0.0, 1.0, 30), bad)
    calls = counting_work(monkeypatch)
    with pytest.raises(ValueError, match="gammas must be finite and >= 0"):
        sweep.sweep_grid(ts, gammas, INIT, coherent_weights(2.0), UNKNOWN)
    assert calls == {}


@pytest.mark.parametrize("omega_rabi", [np.inf, -np.inf, np.nan])
def test_a_non_finite_omega_rabi_is_rejected(monkeypatch, omega_rabi):
    calls = counting_work(monkeypatch)
    with pytest.raises(ValueError, match="omega_rabi and omega_rabi"):
        sweep.sweep_grid([1.0, 2.0], [0.5], MIXED_INIT, coherent_weights(2.0),
                         omega_rabi=omega_rabi)
    assert calls == {}


def test_an_overflowing_omega_rabi_times_t_is_rejected(monkeypatch):
    # 10 * 1e308 overflows the phase exp(-i omega t): every column read NaN
    calls = counting_work(monkeypatch)
    with pytest.raises(ValueError, match="omega_rabi and omega_rabi"):
        sweep.sweep_grid([1e308], [0.5], MIXED_INIT, coherent_weights(2.0), omega_rabi=10.0)
    assert calls == {}
    # at omega_rabi = 0 the same time has no phase to overflow
    sweep.sweep_grid([1e308], [0.5], MIXED_INIT, coherent_weights(2.0), omega_rabi=0.0)
