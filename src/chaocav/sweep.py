"""One pass over a (gamma, t) grid of the scalar channel.

Every sweep command goes through sweep_grid. The phase factor q is
evaluated for the whole grid in one call; then each gamma row builds its
amplitude table once, and that table feeds the density, the
partial-transpose eigensolve and, when an unknown qubit is given, the
teleportation sums. Memory holds one gamma row at a time: a table of
T x 4 x (n_max + 3) complex values and the (T, n_max + 2) arrays that
build it. The field coupling is the unit of time; the scalar channel
sees the coupling phase only through averaged_q(t, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import amplitude_table, averaged_q, table_density
from .entanglement import _doe_from_rhos
from .teleport import WEIGHT_FLOOR, kappa_sums


@dataclass(frozen=True)
class SweepGrid:
    """Scalar-channel results; arrays are (G, T) over gammas x times.

    The teleportation arrays (fidelity, kappa1, kappa2, kappa4, weight)
    are None when no unknown qubit was given. Fidelity is nan where the phi_plus branch weight kappa1 + kappa4
    falls below WEIGHT_FLOOR.
    """

    t: np.ndarray
    gammas: np.ndarray
    doe: np.ndarray
    pre_norm_trace: np.ndarray
    fidelity: np.ndarray | None
    kappa1: np.ndarray | None
    kappa2: np.ndarray | None
    kappa4: np.ndarray | None
    weight: np.ndarray | None


def sweep_grid(times, gammas, init, field, unknown=None, omega_rabi=1.0):
    """Degree of entanglement, and optionally teleportation, on a (gamma, t) grid."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    shape = (gammas.size, times.size)
    q = averaged_q(np.broadcast_to(times, shape), gammas[:, None])
    doe = np.empty(shape)
    pre = np.empty(shape)
    fid = kappa1 = kappa2 = kappa4 = weight = None
    if unknown is not None:
        au, bu = unknown.alpha_u, unknown.beta_u
        fid = np.full(shape, np.nan)
        kappa1 = np.empty(shape)
        kappa2 = np.empty(shape, dtype=complex)
        kappa4 = np.empty(shape)
        weight = np.empty(shape)
    for i in range(gammas.size):
        table = amplitude_table(times, q[i], init, field, omega_rabi)
        rhos, pre[i] = table_density(table)
        doe[i] = _doe_from_rhos(rhos)
        if unknown is None:
            continue
        k1, k2, k4 = kappa_sums(table, unknown)
        weight[i] = (k1 + k4).real
        numer = (abs(au) ** 2 * k1 + np.conj(au) * bu * k2
                 + au * np.conj(bu) * np.conj(k2) + abs(bu) ** 2 * k4).real
        np.divide(numer, weight[i], out=fid[i], where=weight[i] > WEIGHT_FLOOR)
        kappa1[i], kappa2[i], kappa4[i] = k1.real, k2, k4.real
    return SweepGrid(t=times, gammas=gammas, doe=doe, pre_norm_trace=pre,
                     fidelity=fid, kappa1=kappa1, kappa2=kappa2, kappa4=kappa4,
                     weight=weight)
