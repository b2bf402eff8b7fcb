"""Renewal inter-arrival models and the discounted arrival-rate estimator.

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


@dataclass
class RateEstimator:
    """Discounted rolling estimate of the arrival rate from recent headways.

    The estimate is the reciprocal of the discounted sum of the last
    ``m_steps`` inter-arrival times with discount ``beta``. Fewer than
    ``m_steps`` observations use only the terms available (warm-up).
    """

    beta: float = 0.9
    m_steps: int = 50
    _window: deque = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not isinstance(self.m_steps, numbers.Integral):
            raise ValueError(f"m_steps must be an integer, got {self.m_steps!r}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps!r}")
        self._window = deque(maxlen=self.m_steps)

    def observe(self, headway: float) -> None:
        if not headway > 0.0:
            raise ValueError(f"headway must be positive, got {headway!r}")
        self._window.appendleft(headway)

    def estimate(self) -> float:
        """Estimated arrival rate [veh/s]."""
        if not self._window:
            raise ValueError("no headways observed yet")
        acc = 0.0
        weight = 1.0
        for headway in self._window:
            acc += weight * headway
            weight *= self.beta
        return 1.0 / ((1.0 - self.beta) * acc)
