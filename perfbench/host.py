"""Host-speed calibration: a fixed piece of work timed between calls.

On a shared virtual machine the speed of the same code drifts by up to
1.5x over minutes, in stretches, as other tenants load the physical cores.
The kernel below mixes the kinds of work chaocav does (an interpreted loop,
float formatting and joining, many numpy calls on tiny arrays, elementwise
numpy on long vectors, small dense eigensolves, streaming over arrays
larger than a core's cache) and belongs to the benchmark, not to the
package, so no change of chaocav moves it. A call's time divided by the
kernel's time just before and after it cancels most of the drift, and
still moves with every change of the program.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20100802)
_VECTOR = _RNG.standard_normal(20000)
_MATRIX = _RNG.standard_normal((4, 4))
_MATRIX = _MATRIX + _MATRIX.T
_BLOCKS = _RNG.standard_normal((4, 6, 6)) + 0j
_STATE = _RNG.standard_normal((4, 6)) + 0j

#: Share of the last call's time spent on calibration after it.
SHARE = 0.1

#: Kernel seconds on the reference host: set-up time is reported as the
#: seconds it would take on a host where the kernel takes this long.
REFERENCE_S = 0.08


def kernel():
    """The fixed work: 0.06 to 0.12 s on a 2-vCPU x86-64 virtual machine,
    as the host's load varies."""
    total = 0
    for i in range(80000):
        total += i * i
    ",".join("%.12g" % x for x in _VECTOR[:4000])
    state = _STATE
    for _ in range(800):
        state = state - 1e-4j * np.einsum("sij,sj->si", _BLOCKS, state)
    for _ in range(125):
        np.exp(-_VECTOR * _VECTOR) * np.cos(_VECTOR)
    for _ in range(550):
        np.linalg.eigh(_MATRIX)
    # Two 6 MB arrays, fresh each time: larger than a core's L2 cache, so
    # they also track page-fault cost and contention for the shared L3.
    stream = np.full(750000, 1.0)
    other = np.empty_like(stream)
    for _ in range(6):
        np.multiply(stream, 1.0000001, out=other)
        np.add(other, 1.0, out=stream)
    return total


def calibrate(last_call_s, samples):
    """Time the kernel at least once and for SHARE of last_call_s; append
    each kernel's wall seconds to samples."""
    spent = 0.0
    while True:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
        if spent >= SHARE * last_call_s:
            return
