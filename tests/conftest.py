import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from chaocav.dynamics import INV_SQRT2, AtomicInit

settings.register_profile("suite", max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


#: The Bell preparation (|gg> + |ee>) / sqrt(2).
BELL_INIT = AtomicInit(INV_SQRT2, 0.0, 0.0, INV_SQRT2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_pure_state(rng, dim=4):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(rng, dim=4, rank=3):
    rho = np.zeros((dim, dim), dtype=complex)
    probs = rng.dirichlet(np.ones(rank))
    for p in probs:
        psi = random_pure_state(rng, dim)
        rho += p * np.outer(psi, psi.conj())
    return rho


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def four_rows(table):
    """The (T, 4, M) photon array of a table, rows outside its live pair as zeros."""
    zeros = np.zeros_like(table.photon[:, 0])
    rows = [table.row(k) for k in range(4)]
    return np.stack([zeros if row is None else row for row in rows], axis=1)
