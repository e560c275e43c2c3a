"""The benchmark's span contract: perfbench/spans.py wraps package functions
by name and reads their argument names and result fields, so a refactor can
break a traced run while every other test passes."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import chaocav.oracle as oracle
from chaocav import cli
from chaocav.field import coherent_weights

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    # The module defines dataclasses, which look their module up in sys.modules.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_calls_keep_the_span_counts(tmp_path, monkeypatch):
    tracer = load_spans(monkeypatch).Tracer()
    tracer.begin_call()
    tracer.install()
    try:
        # a counter that cannot read its argument or result raises out of main
        code = cli.main(["fidelity", "--fig", "2", "--out", str(tmp_path / "fig2.csv")])
        oracle.monte_carlo_q(np.array([0.1, 0.2]), 1.0, n_samples=100)
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts[0]
    assert counts["dynamics.amplitude_table.rows"] == 5 * 300
    assert counts["dynamics.averaged_q.points"] == 5 * 300
    assert counts["linalg.jacobi_eigh.matrices"] == 5 * 300
    assert counts["field.photon_columns"] == coherent_weights(5.0).n_max + 3
    assert counts["oracle.mc_samples"] > 0
    # uninstall restores every original
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(oracle.monte_carlo_q, "__wrapped__")


@pytest.mark.parametrize("fig, command, alpha, rows", [
    ("1a", "entanglement", 5.0, 3 * 500),
    ("1b", "entanglement", 6.0, 3 * 500),
    ("2", "fidelity", 5.0, 5 * 300),
    ("3", "contour", 5.0, 100 * 150),
])
def test_every_preset_keeps_the_table_counts(tmp_path, monkeypatch, fig, command, alpha, rows):
    # The table counters read photon_a, which keeps its (T, M) shape
    # whichever atomic rows a table holds.
    tracer = load_spans(monkeypatch).Tracer()
    tracer.begin_call()
    tracer.install()
    try:
        code = cli.main([command, "--fig", fig, "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts[0]
    columns = coherent_weights(alpha).n_max + 3
    assert counts["field.photon_columns"] == columns
    assert counts["dynamics.amplitude_table.rows"] == rows
    assert counts["dynamics.amplitude_table.bytes"] == rows * columns * 64
    # jacobi_eigh's mats holds one coherence per kept point
    assert counts["linalg.jacobi_eigh.matrices"] == rows
