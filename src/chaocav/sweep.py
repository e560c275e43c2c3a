"""One pass over a (gamma, t) grid of the scalar channel.

Every sweep command goes through sweep_grid, over groups of
max(1, GROUP_POINTS // T) gamma rows. Each group evaluates the phase
factor q for its own rows in one call (averaged_q works element by
element, so this gives the bits of a whole-grid call) and runs in two
stages. In the Fock-wide stage each gamma row builds its amplitude table
once, and that table feeds the row's densities and, when an unknown
qubit is given, its teleportation sums. The part of a table that does
not depend on q, its sector basis, is built once per sweep, before the
first row, and each piece of the time grid takes its slice of it.
The scalar channel never mixes the atomic pair (|gg>, |ee>) with
(|ge>, |eg>), so a pair the preparation leaves empty is exactly zero at
every point: the table does not hold it, and the densities and sums
contract only the live pair, with the same bits as contracting all four
rows, but for the sign of a kappa2 whose every term is zero (see
teleport.kappa_sums; an X preparation, as in every preset, carries only
(|gg>, |ee>)).
A row whose four-row table would exceed TABLE_BUDGET_BYTES is built in
pieces over t, so the stage holds at most that much table, plus the
(piece, n_max + 2) sector arrays that build it, whatever the number of
times or the field. A split row keeps the bits of doe and
pre_norm_trace; kappa2 and the fidelity may move in the last bit, not
because of the length as such but because a piece's operands in
kappa_sums can fall on the other side of numpy's 256 KiB temporary
elision, which swaps the operands of a complex product (see
teleport.kappa_sums). In the 4x4 stage the group's densities go through
one partial-transpose eigensolve, and the branch weight and fidelity are
formed over the whole group; a drained point (trace 0) stays out of the
eigensolve and reads doe = nan. For a one-pair preparation the group
holds only each density's live-pair block, rho[:, live, live], whose
partial transpose needs one rotation of the block's coherence per point
(linalg.jacobi_eigh); other preparations take LAPACK's 4x4 solve (see
entanglement._doe_from_rhos). The field coupling is the
unit of time; the scalar channel sees the coupling phase only through
averaged_q(t, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import amplitude_table, averaged_q, sector_basis, table_density
from .entanglement import _doe_from_rhos
from .linalg import InvariantViolation
from .teleport import WEIGHT_FLOOR, kappa_sums

#: Grid points per group of gamma rows in the 4x4 stage (at least one row).
GROUP_POINTS = 4096

#: Largest amplitude table built at once; a longer row is built in pieces over t.
TABLE_BUDGET_BYTES = 8 * 2 ** 20

#: Rounding by which a fidelity may leave [0, 1]. Values below 0 are clamped
#: to 0; those above 1 stay, as the fig 2 chart was drawn from them.
FIDELITY_TOL = 1e-12


@dataclass(frozen=True)
class SweepGrid:
    """Scalar-channel results; arrays are (G, T) over gammas x times.

    The teleportation arrays (fidelity, kappa1, kappa2, kappa4, weight)
    are None when no unknown qubit was given. Fidelity is nan where the
    phi_plus branch weight kappa1 + kappa4 falls below WEIGHT_FLOOR, and
    otherwise lies in [0, 1 + FIDELITY_TOL]. doe is nan at a drained point,
    where pre_norm_trace is 0. q = 0 keeps the weight the field never couples
    (|gg, 0> and the dark states), so it drains only a preparation with none,
    such as the symmetric one-excitation state with no photons.
    """

    doe: np.ndarray
    pre_norm_trace: np.ndarray
    fidelity: np.ndarray | None
    kappa1: np.ndarray | None
    kappa2: np.ndarray | None
    kappa4: np.ndarray | None
    weight: np.ndarray | None


def sweep_grid(times, gammas, init, field, unknown=None, omega_rabi=1.0):
    """Degree of entanglement, and optionally teleportation, on a (gamma, t) grid.

    Raises ValueError, before any work, unless times and gammas are finite
    and >= 0 and omega_rabi and omega_rabi * max(times) are finite.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    for name, arr in (("times", times), ("gammas", gammas)):
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr) & (arr >= 0.0)):
            raise ValueError(f"{name} must be finite and >= 0, got {arr}")
    # The product on Python floats, so that an overflow raises no numpy warning.
    omega_rabi = float(omega_rabi)
    if not np.all(np.isfinite([omega_rabi, omega_rabi * float(times.max(initial=0.0))])):
        raise ValueError(f"omega_rabi and omega_rabi * max(times) must be finite, "
                         f"got omega_rabi = {omega_rabi}")
    shape = (gammas.size, times.size)
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
    # A table holds at most 4 x (n_max + 3) complex values per time.
    piece = max(1, TABLE_BUDGET_BYTES // (64 * (field.n_max + 3)))
    pieces = [slice(k, k + piece) for k in range(0, times.size, piece)]
    basis = sector_basis(times, init, field, omega_rabi)
    bases = [basis.piece(cols) for cols in pieces]
    live = basis.live
    dim = len(range(4)[live])
    group = max(1, GROUP_POINTS // max(1, times.size))
    for g0 in range(0, gammas.size, group):
        rows = slice(g0, min(g0 + group, gammas.size))
        q = averaged_q(np.broadcast_to(times, (rows.stop - g0, times.size)), gammas[rows, None])
        rhos = np.empty((rows.stop - g0, times.size, dim, dim), dtype=complex)
        for i in range(g0, rows.stop):
            for cols, piece_basis in zip(pieces, bases):
                table = amplitude_table(piece_basis, q[i - g0, cols])
                rho, pre[i, cols] = table_density(table)
                rhos[i - g0, cols] = rho[:, live, live]
                if unknown is not None:
                    kappa1[i, cols], kappa2[i, cols], kappa4[i, cols] = kappa_sums(table, unknown)
        # A drained point (trace 0) has no state: it stays out of the
        # eigensolve and reads doe = nan.
        kept = pre[rows] > 0.0
        doe[rows] = np.nan
        doe[rows][kept] = _doe_from_rhos(rhos[kept])
        if unknown is None:
            continue
        k1, k2, k4 = kappa1[rows], kappa2[rows], kappa4[rows]
        weight[rows] = k1 + k4
        numer = (abs(au) ** 2 * k1 + np.conj(au) * bu * k2
                 + au * np.conj(bu) * np.conj(k2) + abs(bu) ** 2 * k4).real
        np.divide(numer, weight[rows], out=fid[rows], where=weight[rows] > WEIGHT_FLOOR)
    if fid is not None:
        if np.any((fid < -FIDELITY_TOL) | (fid > 1.0 + FIDELITY_TOL)):
            raise InvariantViolation(f"fidelity left [0, 1]: range [{np.nanmin(fid)}, "
                                     f"{np.nanmax(fid)}]")
        np.maximum(fid, 0.0, out=fid)
    return SweepGrid(doe=doe, pre_norm_trace=pre, fidelity=fid, kappa1=kappa1,
                     kappa2=kappa2, kappa4=kappa4, weight=weight)
