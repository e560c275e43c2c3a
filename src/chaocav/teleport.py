"""Teleportation of an unknown qubit through the averaged two-atom channel.

The closed form is kappa_sums: the phi_plus branch of Bob's state from the
photon-grouped amplitude sums, which sweep.sweep_grid turns into the
fidelity and branch weight it reports. bell_project_teleport is the
independent reference: explicit Bell projection on any channel density
matrix. The verify row teleport_projection_consistency holds the first to
the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace, tensor

WEIGHT_FLOOR = 1e-15

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_ID2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Bell vectors over (|gg>, |ge>, |eg>, |ee>) and the unitary Bob applies.
BELL_OUTCOMES = (
    ("phi_plus", np.array([1.0, 0.0, 0.0, 1.0]) * _INV_SQRT2, _ID2),
    ("phi_minus", np.array([-1.0, 0.0, 0.0, 1.0]) * _INV_SQRT2, _Z),
    ("psi_plus", np.array([0.0, 1.0, 1.0, 0.0]) * _INV_SQRT2, _X),
    ("psi_minus", np.array([0.0, -1.0, 1.0, 0.0]) * _INV_SQRT2, _X @ _Z),
)


@dataclass(frozen=True)
class UnknownQubit:
    """State to teleport, alpha_u |g> + beta_u |e>, unit norm to 1e-12."""

    alpha_u: complex
    beta_u: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha_u", complex(self.alpha_u))
        object.__setattr__(self, "beta_u", complex(self.beta_u))
        norm = abs(self.alpha_u) ** 2 + abs(self.beta_u) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"unknown qubit has norm {norm:.15g}, expected 1 within 1e-12")

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
    """Amplitude sums (kappa1..kappa4) entering Bob's unnormalized state.

    Shapes follow the table, one value per time. The sums run over the
    photon-grouped amplitudes, which is exactly the phi_plus Bell
    projection; kappa3 is the conjugate of kappa2.
    """
    au = unknown.alpha_u
    bu = unknown.beta_u
    top = au * table.photon_a + bu * table.photon_c
    bot = au * table.photon_b + bu * table.photon_d
    k1 = 0.5 * np.sum(np.abs(top) ** 2, axis=1)
    k2 = 0.5 * np.sum(top * np.conj(bot), axis=1)
    k3 = np.conj(k2)
    k4 = 0.5 * np.sum(np.abs(bot) ** 2, axis=1)
    return k1, k2, k3, k4


def bell_project_teleport(channel_rho, unknown):
    """All four Bell branches by explicit projection on a channel matrix.

    channel_rho is any normalized 4x4 two-atom state. Returns the four
    TeleportOutcome branches in the fixed order phi_plus, phi_minus,
    psi_plus, psi_minus; a branch with vanishing weight gets the
    maximally mixed Bob state and fidelity nan.
    """
    channel_rho = np.asarray(channel_rho, dtype=complex)
    chi = unknown.as_vector()
    rho_in = np.outer(chi, np.conj(chi))
    rho3 = tensor(rho_in, channel_rho)
    outcomes = []
    for label, bell_vec, correction in BELL_OUTCOMES:
        proj4 = np.outer(bell_vec, np.conj(bell_vec))
        proj8 = tensor(proj4, _ID2)
        selected = proj8 @ rho3 @ proj8
        weight = float(np.trace(selected).real)
        if weight <= WEIGHT_FLOOR:
            outcomes.append(TeleportOutcome(bell_label=label, bob_state=_ID2 / 2.0,
                                            outcome_weight=0.0, fidelity=float("nan")))
            continue
        bob_raw = partial_trace(selected, keep=3) / weight
        bob = correction @ bob_raw @ np.conj(correction.T)
        fidelity = float(np.real(np.conj(chi) @ bob @ chi))
        outcomes.append(TeleportOutcome(bell_label=label, bob_state=bob,
                                        outcome_weight=weight, fidelity=fidelity))
    return outcomes
