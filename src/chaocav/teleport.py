"""Teleportation of an unknown qubit through the averaged two-atom channel.

The closed form is kappa_sums: the phi_plus branch of Bob's state from the
photon-grouped amplitude sums, which sweep.sweep_grid turns into the
fidelity and branch weight it reports. bell_projection is the independent
reference: explicit Bell projection of a (K, 4, 4) stack of channel
density matrices, each with its own unknown qubit, all four branches in
one pass; bell_project_teleport is its one-state wrapper. The verify row
teleport_projection_consistency holds the first to the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import INV_SQRT2, NORM_TOL
from .linalg import tensor

WEIGHT_FLOOR = 1e-15

_ID2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Bell vectors over (|gg>, |ge>, |eg>, |ee>) and the unitary Bob applies.
BELL_OUTCOMES = (
    ("phi_plus", np.array([1.0, 0.0, 0.0, 1.0]) * INV_SQRT2, _ID2),
    ("phi_minus", np.array([-1.0, 0.0, 0.0, 1.0]) * INV_SQRT2, _Z),
    ("psi_plus", np.array([0.0, 1.0, 1.0, 0.0]) * INV_SQRT2, _X),
    ("psi_minus", np.array([0.0, -1.0, 1.0, 0.0]) * INV_SQRT2, _X @ _Z),
)

#: The (4, 8, 8) stack of each Bell outcome's projector on atoms 1 and 2,
#: identity on Bob's atom 3, in BELL_OUTCOMES order.
_BELL_PROJECTORS = np.stack([tensor(np.outer(vec, np.conj(vec)), _ID2)
                             for _, vec, _ in BELL_OUTCOMES])

#: Bob's (4, 2, 2) corrections C and their adjoints C^H, in BELL_OUTCOMES order.
_CORRECTIONS = np.stack([correction for _, _, correction in BELL_OUTCOMES])
_CORRECTIONS_H = np.conj(np.swapaxes(_CORRECTIONS, -1, -2))


@dataclass(frozen=True)
class UnknownQubit:
    """State to teleport, alpha_u |g> + beta_u |e>, unit norm to 1e-12."""

    alpha_u: complex
    beta_u: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha_u", complex(self.alpha_u))
        object.__setattr__(self, "beta_u", complex(self.beta_u))
        norm = abs(self.alpha_u) ** 2 + abs(self.beta_u) ** 2
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"unknown qubit has norm {norm:.15g}, expected 1 within {NORM_TOL}")

    def as_vector(self):
        return np.array([self.alpha_u, self.beta_u], dtype=complex)


@dataclass(frozen=True)
class TeleportOutcome:
    """One Bell-measurement branch: Bob's corrected state and its fidelity."""

    bell_label: str
    bob_state: np.ndarray
    outcome_weight: float
    fidelity: float


def kappa_sums(table, unknown):
    """Amplitude sums (kappa1, kappa2, kappa4) entering Bob's unnormalized state.

    Shapes follow the table, one value per time. The sums run over the
    photon-grouped amplitudes, which is exactly the phi_plus Bell
    projection. Bob's state is [[kappa1, kappa2], [conj(kappa2), kappa4]].
    A row outside the table's live pair is all zero and is left out of
    the sums: for the pair (a, d), top = au * a and bot = bu * d; for
    (b, c), top = bu * c and bot = au * b. Adding its product, a signed
    zero, could change only the sign of a zero part of top or bot: the
    squared moduli do not see it, and kappa2 could show it only where
    every term of its sum is zero.

    The expression top * np.conj(bot) fixes kappa2's bits through its
    (T, M) operand sizes. numpy's complex multiply is not bitwise
    commutative, and numpy elides the temporary np.conj(bot) of 256 KiB
    or more by computing conj(bot) * top in its place: rows of 300 times
    on 71 photon columns (fig 2) take that order, rows of 150 (fig 3) the
    written one. A change that splits the sums must write the order out.
    """
    au = unknown.alpha_u
    bu = unknown.beta_u
    a, b, c, d = map(table.row, range(4))
    if b is None:
        top, bot = au * a, bu * d
    elif a is None:
        top, bot = bu * c, au * b
    else:
        top = au * a + bu * c
        bot = au * b + bu * d
    k1 = 0.5 * np.sum(np.abs(top) ** 2, axis=1)
    k2 = 0.5 * np.sum(top * np.conj(bot), axis=1)
    k4 = 0.5 * np.sum(np.abs(bot) ** 2, axis=1)
    return k1, k2, k4


def bell_projection(channels, chis):
    """All four Bell branches by explicit projection on a stack of channels.

    channels is a (K, 4, 4) stack of normalized two-atom states and chis
    the (K, 2) unknown qubit vectors (alpha_u, beta_u) teleported through
    them. Returns (weights, bobs, fidelities) of shapes (K, 4), (K, 4, 2, 2)
    and (K, 4), the branches in BELL_OUTCOMES order. A branch whose weight
    is at most WEIGHT_FLOOR gets weight 0, the maximally mixed Bob state
    and fidelity nan. Each state's values are bit for bit those of the
    same steps on that state alone: one product with the stacked (4, 8, 8)
    projectors selects all four branches, one einsum traces atoms 1 and 2
    out of each, Bob's correction is C (bob_raw / weight) C^H and his
    fidelity (conj(chi) @ bob) @ chi, all as per-slice products.
    """
    chis = np.asarray(chis, dtype=complex)
    rho_in = chis[:, :, None] * np.conj(chis)[:, None, :]
    selected = _BELL_PROJECTORS @ tensor(rho_in, channels)[:, None] @ _BELL_PROJECTORS
    # Trace out atoms 1 and 2 of every branch, keeping Bob's atom 3.
    bob_raws = np.einsum("nkabiabj->nkij", selected.reshape(selected.shape[:2] + (2,) * 6))
    weights = np.trace(selected, axis1=-2, axis2=-1).real
    floored = weights <= WEIGHT_FLOOR
    scale = np.where(floored, 1.0, weights)[..., None, None]
    bobs = _CORRECTIONS @ (bob_raws / scale) @ _CORRECTIONS_H
    fidelities = ((np.conj(chis)[:, None, None, :] @ bobs) @ chis[:, None, :, None])[..., 0, 0].real
    bobs[floored] = _ID2 / 2.0
    return (np.where(floored, 0.0, weights), bobs,
            np.where(floored, np.nan, fidelities))


def bell_project_teleport(channel_rho, unknown):
    """All four Bell branches of one channel matrix, as TeleportOutcome rows.

    channel_rho is any normalized 4x4 two-atom state. Returns the four
    branches in the fixed order phi_plus, phi_minus, psi_plus, psi_minus,
    from bell_projection on a one-state stack; a branch with vanishing
    weight gets the maximally mixed Bob state and fidelity nan.
    """
    weights, bobs, fidelities = bell_projection(np.asarray(channel_rho)[None],
                                                unknown.as_vector()[None])
    return [TeleportOutcome(bell_label=label, bob_state=bob, outcome_weight=float(weight),
                            fidelity=float(fidelity))
            for (label, _, _), weight, bob, fidelity
            in zip(BELL_OUTCOMES, weights[0], bobs[0], fidelities[0])]
