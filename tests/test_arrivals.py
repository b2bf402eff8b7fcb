"""Arrival models, serialization, and the rate estimate in its batch and
streaming forms."""

from collections import deque

import numpy as np
import pytest

from platooncoord import (
    Constant,
    DiscreteRandom,
    Exponential,
    RateEstimator,
    make_rng,
    rate_estimates,
)
from platooncoord.arrivals import atoms_of, model_from_json, model_to_json


def test_discrete_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.5)))
    with pytest.raises(ValueError, match="positive"):
        DiscreteRandom(atoms=((-1.0, 1.0),))


def test_atoms_dispatch():
    assert atoms_of(Constant(10.0)) == ((10.0, 1.0),)
    assert atoms_of(DiscreteRandom(atoms=((5.0, 1.0),))) == ((5.0, 1.0),)
    assert atoms_of(Exponential(0.02)) is None


@pytest.mark.parametrize(
    "model",
    [
        Exponential(0.02),
        Constant(10.0),
        DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6))),
    ],
)
def test_json_round_trip(model):
    assert model_from_json(model_to_json(model)) == model


def test_json_unknown_type():
    with pytest.raises(ValueError, match="unknown arrival model"):
        model_from_json({"type": "weibull"})


def test_estimator_constant_full_window():
    est = RateEstimator(beta=0.9, m_steps=50)
    for _ in range(120):
        est.observe(50.0)
    # Geometric-series closed form, evaluated independently.
    oracle = 1.0 / (50.0 * (1.0 - 0.9**50))
    assert oracle == pytest.approx(0.020103, abs=1e-6)
    assert est.estimate() == pytest.approx(oracle, rel=1e-12)


def test_estimator_single_observation():
    est = RateEstimator(beta=0.9, m_steps=50)
    est.observe(10.0)
    assert est.estimate() == pytest.approx(1.0, rel=1e-12)


def test_estimator_window_truncation():
    # Observations older than m_steps must not influence the estimate.
    est_a = RateEstimator(beta=0.9, m_steps=50)
    est_b = RateEstimator(beta=0.9, m_steps=50)
    for _ in range(200):
        est_a.observe(3.0)
    for h in [3.0] * 50:
        est_b.observe(h)
    assert est_a.estimate() == pytest.approx(est_b.estimate(), rel=1e-12)


def test_estimator_rejects_bad_input():
    est = RateEstimator()
    with pytest.raises(ValueError):
        est.observe(0.0)
    with pytest.raises(ValueError):
        est.estimate()
    with pytest.raises(ValueError):
        RateEstimator(beta=1.0)
    for flag in (True, False):
        with pytest.raises(ValueError, match="m_steps must be an integer"):
            RateEstimator(m_steps=flag)
    # The window is filled only through observe, which checks each headway.
    with pytest.raises(TypeError):
        RateEstimator(_window=deque([-1.0]))


def test_estimator_long_run_average():
    # The discounted window's mean equals (1 - beta^M)/rate, so the harmonic
    # long-run average of the estimate matches rate/(1 - beta^M).
    rate, beta, m = 0.05, 0.9, 50
    est = RateEstimator(beta=beta, m_steps=m)
    rng = make_rng(11)
    gaps = rng.exponential(1.0 / rate, size=10**5)
    recip = []
    for i, x in enumerate(gaps):
        est.observe(float(x))
        if i >= m:
            recip.append(1.0 / est.estimate())
    corrected = rate / (1.0 - beta**m)
    assert 1.0 / np.mean(recip) == pytest.approx(corrected, rel=0.05)


@pytest.mark.parametrize("beta, m", [(0.9, 50), (0.5, 7), (0.99, 500)])
def test_estimator_streams_the_batch_estimate(beta, m):
    # After every observation the streaming estimate is the batch estimate of
    # the headways so far, exactly, during the warm-up and after it.
    gaps = make_rng(5).exponential(20.0, size=2 * m + 20).tolist()
    est = RateEstimator(beta=beta, m_steps=m)
    for k, x in enumerate(gaps):
        est.observe(x)
        assert est.estimate() == rate_estimates(gaps[: k + 1], beta, m)[-1]


def test_rate_estimates_of_an_empty_day():
    rates = rate_estimates([], 0.9, 50)
    assert rates.shape == (0,) and rates.dtype == np.float64


@pytest.mark.parametrize(
    "beta, m, message",
    [
        (1.0, 50, r"beta must lie in \(0, 1\)"),
        (0.9, True, "m_steps must be an integer"),
    ],
)
def test_rate_estimates_checks_beta_and_m_steps_as_the_estimator(beta, m, message):
    with pytest.raises(ValueError, match=message):
        rate_estimates([3.0], beta, m)


def test_rng_reproducibility():
    a = make_rng(42).exponential(size=5)
    b = make_rng(42).exponential(size=5)
    assert np.array_equal(a, b)
