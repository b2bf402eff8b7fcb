"""Adaptive Simpson integration against closed-form antiderivatives."""

import math

import numpy as np
import pytest

from platooncoord.quadrature import adaptive_simpson, adaptive_simpson_batch


def test_polynomial_exact():
    # Simpson is exact for cubics regardless of tolerance.
    val = adaptive_simpson(lambda x: x**3 - 2.0 * x, 0.0, 2.0, 1e-6)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_exponential_tolerance():
    val = adaptive_simpson(lambda x: np.exp(-x), 0.0, 10.0, 1e-12)
    assert val == pytest.approx(1.0 - math.exp(-10.0), abs=1e-11)


def test_oscillatory():
    val = adaptive_simpson(np.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_reversed_interval_sign():
    fwd = adaptive_simpson(np.cos, 0.0, 1.0, 1e-12)
    rev = adaptive_simpson(np.cos, 1.0, 0.0, 1e-12)
    assert rev == pytest.approx(-fwd, abs=1e-12)


def test_empty_interval():
    assert adaptive_simpson(np.exp, 3.0, 3.0, 1e-12) == 0.0


def test_batch_matches_singles():
    intervals = [(0.0, 1.0), (1.0, 5.0), (-2.0, 2.0), (4.0, 3.0)]
    batch = adaptive_simpson_batch(lambda x: np.exp(-0.3 * x) * x, intervals, 1e-12)
    for (a, b), got in zip(intervals, batch):
        single = adaptive_simpson(lambda x: np.exp(-0.3 * x) * x, a, b, 1e-12)
        assert got == pytest.approx(single, abs=1e-10)


def test_batch_tiny_slivers():
    h = 1e-6
    vals = adaptive_simpson_batch(
        np.exp, [(1.0, 1.0 + h), (1.0 - h, 1.0)], 1e-14, initial_splits=2
    )
    exact_hi = math.exp(1.0 + h) - math.e
    exact_lo = math.e - math.exp(1.0 - h)
    assert vals[0] == pytest.approx(exact_hi, rel=1e-10)
    assert vals[1] == pytest.approx(exact_lo, rel=1e-10)


def test_sharp_feature_refinement():
    # A narrow Gaussian forces local subdivision well past the uniform splits.
    f = lambda x: np.exp(-((x - 0.7) ** 2) / (2.0 * 1e-4))
    val = adaptive_simpson(f, 0.0, 1.0, 1e-12)
    exact = math.sqrt(2.0 * math.pi * 1e-4)
    assert val == pytest.approx(exact, rel=1e-8)


def _recording(f):
    """f, plus a copy of every array it is called on."""
    calls = []

    def recorded(x):
        calls.append(np.array(x))
        return f(x)

    return recorded, calls


def test_one_integrand_call_per_level():
    # A cubic converges at the first refinement level: level 0 plus one.
    f, calls = _recording(lambda x: x**3 - 2.0 * x)
    adaptive_simpson(f, 0.0, 2.0, 1e-6, initial_splits=4)
    assert len(calls) == 2
    # A jump never meets the tolerance, so every level up to max_levels runs.
    f, calls = _recording(lambda x: np.where(x < 0.3, 0.0, 1.0))
    adaptive_simpson(f, 0.0, 1.0, 1e-300, initial_splits=4, max_levels=5)
    assert len(calls) == 1 + 5


def test_level_zero_evaluates_each_edge_once():
    # Two live intervals (one reversed) and an empty one: each live interval
    # has splits + 1 edges and splits midpoints.
    splits = 8
    f, calls = _recording(np.exp)
    adaptive_simpson_batch(f, [(0.0, 1.0), (2.0, 2.0), (3.0, 1.5)], 1e-10,
                           initial_splits=splits)
    level0 = calls[0]
    assert level0.size == 2 * (2 * splits + 1)
    assert np.unique(level0).size == level0.size
