"""Truncated coherent-state weight vectors for the cavity mode."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np


@dataclass(frozen=True)
class CoherentField:
    """Coherent cavity state |alpha> truncated at Fock level n_max.

    alpha is the coherent amplitude, so the mean photon number is
    alpha**2. weights[n] is the real Fock amplitude W_n with
    sum(W_n**2) = 1 up to the truncation tolerance.
    """

    alpha: float
    n_max: int
    weights: np.ndarray = dc_field(repr=False)


def coherent_weights(alpha, eps_trunc=1e-12):
    """Build the coherent weight vector W_n = alpha^n / sqrt(n!) * exp(-alpha^2 / 2).

    Evaluated in log space so large alpha neither overflows nor underflows.
    n_max is the smallest cutoff whose photon-number tail probability is
    below eps_trunc; a ValueError says when no cutoff below the hard cap is.
    """
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not (0.0 < eps_trunc < 1.0):
        raise ValueError(f"eps_trunc must lie in (0, 1), got {eps_trunc}")
    if alpha == 0.0:
        return CoherentField(alpha=0.0, n_max=0, weights=np.array([1.0]))
    mean = alpha * alpha
    if not math.isfinite(mean):
        raise ValueError(f"alpha * alpha must be finite, got alpha = {alpha}")
    # Poisson tails beyond mean + 20 sqrt(mean) + 60 are far below any sane eps_trunc.
    hard_cap = int(mean + 20.0 * math.sqrt(mean) + 60.0)
    # numpy cannot size a float64 array whose byte count overflows its index type.
    if (hard_cap + 1) * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"alpha = {alpha:g} is too large: it needs {hard_cap + 1:.3g} "
                         "photon levels, more than an array can hold")
    # fromiter sizes its array before the first value, so a field too large
    # for memory fails at once instead of after a growing list.
    lgammas = np.fromiter((math.lgamma(n + 1) for n in range(hard_cap + 1)), float,
                          count=hard_cap + 1)
    log_w = np.arange(hard_cap + 1) * math.log(alpha) - 0.5 * lgammas - 0.5 * mean
    # dropped[n] is the mass past level n, summed smallest term first: 1
    # minus the kept mass would carry the kept terms' rounding, about 1e-11
    # at alpha 100.
    dropped = np.cumsum(np.exp(2.0 * log_w[:0:-1]))[::-1]
    fits = np.flatnonzero(dropped < eps_trunc)
    if fits.size == 0:
        raise ValueError(f"eps_trunc = {eps_trunc:g} is below the tail mass of every cutoff "
                         f"under {hard_cap} photon levels at alpha = {alpha:g}")
    n_max = int(fits[0])
    weights = np.exp(log_w[: n_max + 1])
    return CoherentField(alpha=alpha, n_max=n_max, weights=weights)
