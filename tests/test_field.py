"""Coherent weight vectors: normalization, truncation choice, moments."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaocav.field import coherent_weights


def direct_weight(alpha, n):
    # textbook formula, safe for small n only
    return math.exp(-alpha * alpha / 2.0) * alpha**n / math.sqrt(math.factorial(n))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 6.0, 10.0])
def test_weights_are_normalized(alpha):
    field = coherent_weights(alpha)
    tail = 1.0 - float(np.sum(field.weights**2))
    assert 0.0 <= tail < 1.5e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
def test_weights_match_direct_formula(alpha):
    field = coherent_weights(alpha)
    for n in range(min(field.n_max, 12) + 1):
        want = direct_weight(alpha, n)
        assert abs(field.weights[n] - want) <= 1e-13 * max(1.0, want)


def test_most_likely_occupation_at_alpha_five():
    field = coherent_weights(5.0)
    probs = field.weights**2
    peak = int(np.argmax(probs))
    # the Poisson mass at n = 24 and n = 25 ties for mean 25
    assert peak in (24, 25)
    assert abs(probs[25] / probs[24] - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0])
def test_mean_photon_number_matches_alpha_squared(alpha):
    field = coherent_weights(alpha)
    mean = float(np.sum(np.arange(field.n_max + 1) * field.weights**2))
    assert abs(mean - alpha * alpha) <= 1e-6 * alpha * alpha


def test_vacuum_field():
    field = coherent_weights(0.0)
    assert field.n_max == 0
    assert np.array_equal(field.weights, np.array([1.0]))
    assert float(np.sum(np.arange(field.n_max + 1) * field.weights**2)) == 0.0


def test_large_alpha_stays_finite():
    field = coherent_weights(30.0)
    assert np.all(np.isfinite(field.weights))
    assert abs(np.sum(field.weights**2) - 1.0) <= 1.5e-12
    assert field.n_max > 900
    assert field.weights[0] > 0.0  # naive exp(-450) evaluation would underflow to zero


def poisson_tail(alpha, n):
    # P(N > n) for N ~ Poisson(alpha**2), each term from lgamma, summed exactly
    mean = alpha * alpha
    top = int(mean + 40.0 * math.sqrt(mean) + 100.0)
    return math.fsum(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                     for k in range(n + 1, top))


def test_truncation_is_minimal():
    # 1 - sum(weights**2) carries the weights' rounding, about 1e-11 at
    # alpha 100, so a cutoff chosen from it drops too much or runs to the cap
    for alpha, n_max in [(5.0, 68), (6.0, 86), (80.0, 6971), (100.0, 10711), (300.0, 92118)]:
        field = coherent_weights(alpha)
        assert field.n_max == n_max, alpha
        assert poisson_tail(alpha, n_max) < 1e-12 <= poisson_tail(alpha, n_max - 1), alpha


def test_looser_tolerance_shortens_vector():
    tight = coherent_weights(5.0, eps_trunc=1e-12)
    loose = coherent_weights(5.0, eps_trunc=1e-4)
    assert loose.n_max < tight.n_max


def test_invalid_arguments():
    with pytest.raises(ValueError):
        coherent_weights(-1.0)
    with pytest.raises(ValueError):
        coherent_weights(2.0, eps_trunc=0.0)
    with pytest.raises(ValueError):
        coherent_weights(2.0, eps_trunc=1.5)
    with pytest.raises(ValueError, match="alpha"):
        coherent_weights(1e200)  # finite, but alpha * alpha overflows
    with pytest.raises(ValueError, match="eps_trunc = 1e-100 is below the tail mass"):
        coherent_weights(5.0, eps_trunc=1e-100)  # no cutoff under the hard cap drops so little


@given(st.floats(min_value=0.01, max_value=8.0, allow_nan=False))
def test_normalization_holds_over_amplitude_range(alpha):
    field = coherent_weights(alpha)
    total = float(np.sum(field.weights**2))
    assert 0.0 <= 1.0 - total < 1.5e-12
    assert np.all(field.weights > 0.0)
    assert np.all(np.isfinite(field.weights))


def test_photon_level_table_takes_no_list():
    # a Python list of lgamma values costs four float64 arrays per level and
    # grows one object at a time; the table is built as one array instead
    alpha = 300.0
    levels = int(alpha * alpha + 20.0 * alpha + 60.0) + 1
    tracemalloc.start()
    try:
        coherent_weights(alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * levels
