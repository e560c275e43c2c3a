"""The shared (gamma, t) sweep: one phase-factor evaluation per sweep, one
amplitude table per gamma row, and the same numbers as the single-point
density and the Bell-projection reference."""

import math

import numpy as np

from chaocav import sweep
from chaocav.dynamics import AtomicInit, ModelParams, atomic_density
from chaocav.entanglement import negativity
from chaocav.field import coherent_weights
from chaocav.teleport import UnknownQubit, bell_project_teleport

INIT = AtomicInit(0.2, 0.0, 0.0, math.sqrt(0.96))
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
    assert grid.pt_eigenvalues.shape == (3, 7, 4)


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
        params = ModelParams(gamma=float(gamma))
        for k, t in enumerate(ts):
            state = atomic_density(float(t), INIT, field, params)
            assert abs(grid.doe[i, k] - negativity(state.rho)) <= 1e-12
            assert abs(grid.pre_norm_trace[i, k] - state.pre_norm_trace) <= 1e-12
            out = bell_project_teleport(state.rho, UNKNOWN)[0]
            assert abs(grid.fidelity[i, k] - out.fidelity) <= 1e-12
            outcome_weight = grid.weight[i, k] / grid.pre_norm_trace[i, k]
            assert abs(outcome_weight - out.outcome_weight) <= 1e-12
