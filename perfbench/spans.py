"""Spans around the calls into chaocav's layers, recorded from outside the package.

Each traced function is replaced, for the duration of one traced call, at
every chaocav module that holds it under its own name (the defining module
and each module that imported it with ``from .x import f``). Every call
site therefore goes through exactly one wrapper and is counted once.
Spans and counts stay in memory; write_spans dumps them when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows(bound, result):
    return int(result.photon_a.shape[0])


def _table_bytes(bound, result):
    # Computed, not measured: four complex128 photon arrays of T x M entries.
    t_rows, columns = result.photon_a.shape
    return int(t_rows * columns * 4 * 16)


def _points(bound, result):
    import numpy as np

    return int(np.size(bound.arguments["t"]))


def _photon_columns(bound, result):
    return int(result.n_max + 3)


def _matrices(bound, result):
    import numpy as np

    shape = np.shape(bound.arguments["mats"])
    return 1 if len(shape) == 2 else int(shape[0])


def _svg_bytes(bound, result):
    return len(result.encode("utf-8"))


def _rk4_steps(bound, result):
    # The integrator's own step rule: full steps of dt, then one partial step.
    t_final = float(bound.arguments["t_final"])
    dt = float(bound.arguments["dt"])
    n_full = int(t_final / dt)
    return n_full + (1 if t_final - n_full * dt > 1e-15 else 0)


def _mc_samples(bound, result):
    return int(result.n_samples)


@dataclass(frozen=True)
class Counter:
    """A count taken at a layer boundary from the call's arguments and result."""

    name: str
    unit: str
    measure: Callable
    combine: str = "sum"


#: Traced layers: (span name, defining module, function, counters). cli.main
#: is the root: the harness calls it through the module attribute.
LAYERS = (
    ("cli.main", "chaocav.cli", "main", ()),
    ("field.coherent_weights", "chaocav.field", "coherent_weights",
     (Counter("field.photon_columns", "count", _photon_columns, "max"),)),
    ("dynamics.averaged_q", "chaocav.dynamics", "averaged_q",
     (Counter("dynamics.averaged_q.points", "count", _points),)),
    ("dynamics.amplitude_table", "chaocav.dynamics", "amplitude_table",
     (Counter("dynamics.amplitude_table.rows", "count", _rows),
      Counter("dynamics.amplitude_table.bytes", "bytes", _table_bytes))),
    ("dynamics.table_density", "chaocav.dynamics", "table_density", ()),
    ("entanglement.entanglement_sweep", "chaocav.entanglement", "entanglement_sweep", ()),
    ("linalg.jacobi_eigh", "chaocav.linalg", "jacobi_eigh",
     (Counter("linalg.jacobi_eigh.matrices", "count", _matrices),)),
    ("teleport.fidelity_curve", "chaocav.teleport", "fidelity_curve", ()),
    ("teleport.kappa_sums", "chaocav.teleport", "kappa_sums", ()),
    ("svg.render_line_chart", "chaocav.svg", "render_line_chart",
     (Counter("svg.bytes", "bytes", _svg_bytes),)),
    ("svg.render_contour_chart", "chaocav.svg", "render_contour_chart",
     (Counter("svg.bytes", "bytes", _svg_bytes),)),
    ("oracle.run_verification", "chaocav.oracle", "run_verification", ()),
    ("oracle.rk4_evolve", "chaocav.oracle", "rk4_evolve",
     (Counter("oracle.rk4_steps", "count", _rk4_steps),)),
    ("oracle.integrate_schrodinger", "chaocav.oracle", "integrate_schrodinger", ()),
    ("oracle.monte_carlo_q", "chaocav.oracle", "monte_carlo_q",
     (Counter("oracle.mc_samples", "count", _mc_samples),)),
    ("oracle.joint_averaged_density", "chaocav.oracle", "joint_averaged_density", ()),
)

SPAN_NAMES = tuple(layer[0] for layer in LAYERS)

COUNTERS = {counter.name: counter for layer in LAYERS for counter in layer[3]}


class Tracer:
    """In-memory spans (name, start, end, parent index, call id) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self._call_id = -1
        self._installed = []

    def begin_call(self):
        """Start a new workload call; later spans and counts carry its id."""
        self._call_id += 1
        self.counts.append({name: 0 for name in COUNTERS})
        return self._call_id

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._call_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, value):
        counts = self.counts[self._call_id]
        if counter.combine == "max":
            counts[counter.name] = max(counts[counter.name], value)
        else:
            counts[counter.name] += value

    def _wrap(self, name, fn, counters):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for counter in counters:
                    self.count(counter, counter.measure(bound, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every traced function at each chaocav module that names it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "chaocav" or key.startswith("chaocav."))]
        for name, module_name, attr, counters in LAYERS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def call_profile(self, call_id):
        """Per span name: (invocations, busy seconds, self seconds) within one call.

        Self time is the span's duration minus the time its direct child
        spans cover; spans nest strictly because the program is single
        threaded.
        """
        child_time = {}
        profile = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        members = [(i, s) for i, s in enumerate(self.spans) if s[4] == call_id]
        for _, (name, start, end, parent, _) in members:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for i, (name, start, end, parent, _) in members:
            entry = profile[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - child_time.get(i, 0.0)
        return profile

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call_id}) + "\n")
