"""Renewal inter-arrival models and the discounted arrival-rate estimate.

The models are validated parameter records. The solvers in ``dp`` and the
day generator in ``simulate`` own each family's maths.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

# All sampling uses numpy's PCG64 generator; the identifier is recorded in
# run outputs so results are reproducible bit-for-bit.
RNG_ALGORITHM = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    """Exponential inter-arrival times (Poisson arrivals) with rate [veh/s]."""

    rate: float

    def __post_init__(self):
        _check_positive("rate", self.rate)


@dataclass(frozen=True)
class DiscreteRandom:
    """Discrete headway mixture: point masses p_i at headways h_i."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(h), float(prob)) for h, prob in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("at least one atom required")
        for h, prob in atoms:
            _check_positive("headway", h)
            _check_positive("probability", prob)
        total = sum(prob for _, prob in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")


@dataclass(frozen=True)
class Constant:
    """Deterministic headway."""

    headway: float

    def __post_init__(self):
        _check_positive("headway", self.headway)


ArrivalModel = Exponential | DiscreteRandom | Constant


def atoms_of(model: ArrivalModel) -> tuple[tuple[float, float], ...] | None:
    """Point masses of a discrete-type model, or None for continuous ones."""
    if isinstance(model, DiscreteRandom):
        return model.atoms
    if isinstance(model, Constant):
        return ((model.headway, 1.0),)
    return None


def model_from_json(obj: dict) -> ArrivalModel:
    """Parse {"type": "exponential", "lambda": ...} style dicts."""
    kind = obj.get("type")
    if kind == "exponential":
        return Exponential(rate=float(obj["lambda"]))
    if kind == "discrete":
        return DiscreteRandom(atoms=tuple((h, prob) for h, prob in obj["atoms"]))
    if kind == "constant":
        return Constant(headway=float(obj["headway"]))
    raise ValueError(f"unknown arrival model type: {kind!r}")


def model_to_json(model: ArrivalModel) -> dict:
    if isinstance(model, Exponential):
        return {"type": "exponential", "lambda": model.rate}
    if isinstance(model, DiscreteRandom):
        return {"type": "discrete", "atoms": [[h, prob] for h, prob in model.atoms]}
    return {"type": "constant", "headway": model.headway}


def check_window(beta: float, m_steps: int) -> None:
    """Reject beta outside (0, 1) and an m_steps that is not an integer >= 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    if isinstance(m_steps, bool) or not isinstance(m_steps, numbers.Integral):
        raise ValueError(f"m_steps must be an integer, got {m_steps!r}")
    if m_steps < 1:
        raise ValueError(f"m_steps must be >= 1, got {m_steps!r}")


def rate_estimates(gaps, beta: float, m_steps: int) -> np.ndarray:
    """Each vehicle's arrival-rate estimate [veh/s] from headways in arrival
    order, 1 / ((1 - beta) * sum of beta^j x_{k-j} over j < m_steps), by one
    convolution. Until the window fills, only the headways so far count."""
    check_window(beta, m_steps)
    gaps = np.asarray(gaps, dtype=float)
    bad = gaps[~(gaps > 0.0)]
    if bad.size:
        raise ValueError(f"headway must be positive, got {bad[0].item()!r}")
    if not gaps.size:
        return np.empty(0)
    weights = beta ** np.arange(min(m_steps, len(gaps)))
    return 1.0 / ((1.0 - beta) * np.convolve(gaps, weights)[: len(gaps)])


@dataclass
class RateEstimator:
    """Streaming form of ``rate_estimates``: ``observe`` each headway in
    arrival order; ``estimate`` is the latest one's rate."""

    beta: float = 0.9
    m_steps: int = 50
    _window: deque = field(init=False, repr=False)  # the last m_steps headways, oldest first

    def __post_init__(self):
        check_window(self.beta, self.m_steps)
        self._window = deque(maxlen=self.m_steps)

    def observe(self, headway: float) -> None:
        if not headway > 0.0:
            raise ValueError(f"headway must be positive, got {headway!r}")
        self._window.append(headway)

    def estimate(self) -> float:
        """Estimated arrival rate [veh/s]."""
        if not self._window:
            raise ValueError("no headways observed yet")
        return rate_estimates(self._window, self.beta, self.m_steps).item(-1)
