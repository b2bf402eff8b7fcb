"""Travel-cost model for junction platooning.

All computation is done in SI-derived units: seconds, meters, m/s, liters,
currency. Ingestion converts the usual reporting units (currency/hour,
L/100km, km) on the way in.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# Nominal case-study parameters, in ingestion units.
NOMINAL_CONFIG = {
    "w1_per_hour": 25.8,
    "w2_per_liter": 0.868,
    "alpha": 3.51e-7,
    "eta": 0.1,
    "phi_l_per_100km": 32.2,
    "v_mps": 23.0,
    "d1_km": 1.0,
    "d2_km": 30.0,
    "gamma": 0.9,
}

# Evaluations of the merge reward must stay clear of the speed singularity.
SINGULARITY_GUARD = 1e-9


class CostDomainError(ValueError):
    """Raised when a reward is evaluated at or beyond the traversal-time cap."""


@dataclass(frozen=True)
class CostParams:
    """Physical and economic constants, all in SI-derived units.

    w1: value of time [currency/s]
    w2: fuel price [currency/L]
    alpha: fuel-vs-speed coefficient [L*s^2/m^3]
    eta: platoon fuel-saving fraction, in (0, 1)
    phi: fuel efficiency [L/m]
    v: nominal cruise speed [m/s]
    d1: coordinating-zone length [m]
    d2: cruising-zone length [m]
    gamma: discount factor, in (0, 1)
    """

    w1: float
    w2: float
    alpha: float
    eta: float
    phi: float
    v: float
    d1: float
    d2: float
    gamma: float

    def __post_init__(self):
        for name in ("w1", "w2", "alpha", "eta", "phi", "v", "d1", "d2", "gamma"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta!r}")

    @property
    def t0(self) -> float:
        """Nominal coordinating-zone traversal time [s]."""
        return self.d1 / self.v

    @classmethod
    def from_config(cls, config: dict | None = None) -> "CostParams":
        """Build params from a flat config dict; missing keys use nominal values.

        Expected keys: w1_per_hour, w2_per_liter, alpha, eta, phi_l_per_100km,
        v_mps, d1_km, d2_km, gamma; each value a finite real number.
        """
        cfg = dict(NOMINAL_CONFIG)
        if config:
            unknown = set(config) - set(NOMINAL_CONFIG)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            for key, value in config.items():
                # An int beyond the float range would overflow the unit conversions.
                if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                        or not abs(value) <= sys.float_info.max):
                    raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
            cfg.update(config)
        return cls(
            w1=cfg["w1_per_hour"] / 3600.0,
            w2=cfg["w2_per_liter"],
            alpha=cfg["alpha"],
            eta=cfg["eta"],
            phi=cfg["phi_l_per_100km"] / 1e5,
            v=cfg["v_mps"],
            d1=cfg["d1_km"] * 1000.0,
            d2=cfg["d2_km"] * 1000.0,
            gamma=cfg["gamma"],
        )


def nominal_params() -> CostParams:
    """The Table-2 case-study parameter set."""
    return CostParams.from_config(None)


@dataclass(frozen=True)
class CostConstants:
    """Analytically derived constants of the reward model.

    t0: nominal traversal time [s]
    c_n: maximizer of the merge reward [s], may be negative
    g0: platooning bonus, merge reward at s=0 minus cruise reward [currency]
    theta_n: upper root of G(theta) = G(c_n) - g0, in (c_n, t0) [s]
    theta_n_prime: lower root of the same equation, below c_n [s]
    """

    t0: float
    c_n: float
    g0: float
    theta_n: float
    theta_n_prime: float


def _check_domain(s: float, p: CostParams) -> None:
    if s > p.t0 - SINGULARITY_GUARD:
        raise CostDomainError(
            f"time reduction {s!r} too close to the traversal-time cap {p.t0!r}"
        )


def _merge_terms(s, p: CostParams):
    """Merge reward G(s) and its derivative G'(s), for a scalar or an array
    of time reductions. No domain check: callers keep s below t0."""
    speed = p.d1 / (p.d1 / p.v - s)
    g = p.w1 * s + p.w2 * (
        p.alpha * p.d1 * p.v**2 - p.alpha * p.d1 * speed**2 + p.eta * p.phi * p.d2
    )
    return g, p.w1 - 2.0 * p.w2 * p.alpha * speed**3


def reward_merge(s: float, p: CostParams) -> float:
    """Single-stage reward for merging with time reduction s [currency]."""
    _check_domain(s, p)
    return _merge_terms(s, p)[0]


def platoon_bonus(p: CostParams) -> float:
    """Monetary value of the cruising-zone fuel saving earned by merging."""
    return p.w2 * p.eta * p.phi * p.d2


def reward_cruise(a: float, p: CostParams) -> float:
    """Single-stage reward for cruising (non-merging) with time reduction a."""
    return reward_merge(a, p) - platoon_bonus(p)


def reward(s: float, a: float, p: CostParams) -> float:
    """Single-stage reward at predicted headway s under action a.

    Merging (a == s, feasible only for s < t0) earns the platoon bonus;
    any a < s cruises. For s >= t0 merging is impossible and a must stay
    below the traversal-time cap.
    """
    if s < p.t0:
        if a > s:
            raise CostDomainError(f"action {a!r} exceeds predicted headway {s!r}")
        if a == s:
            return reward_merge(s, p)
        return reward_cruise(a, p)
    _check_domain(a, p)
    return reward_cruise(a, p)


def reward_merge_derivative(s: float, p: CostParams) -> float:
    """Derivative of the merge reward with respect to s [currency/s]."""
    _check_domain(s, p)
    return _merge_terms(s, p)[1]


def reward_merge_second_derivative(s: float, p: CostParams) -> float:
    """Second derivative of the merge reward with respect to s [currency/s^2]."""
    _check_domain(s, p)
    speed = p.d1 / (p.d1 / p.v - s)
    return -6.0 * p.w2 * p.alpha * speed**4 / p.d1


def compute_constants(p: CostParams) -> CostConstants:
    """Derive c_n, g0 and the roots theta_n, theta_n_prime of
    G(theta) = G(c_n) - g0, all in closed form.

    With u = t0 - s, u^2 (G(s) - level) is the cubic
    -w1 u^3 + b u^2 - w2 alpha d1^3: negative at u = 0 and as u -> inf,
    and g0 u^2 > 0 at u = t0 - c_n. Its two positive roots straddle
    t0 - c_n; the nearer gives theta_n, the farther theta_n_prime.
    """
    t0 = p.t0
    c_n = p.d1 * (1.0 / p.v - (2.0 * p.w2 * p.alpha / p.w1) ** (1.0 / 3.0))
    g0 = platoon_bonus(p)
    level = reward_merge(c_n, p) - g0
    b = p.w1 * t0 + p.w2 * (p.alpha * p.d1 * p.v**2 + p.eta * p.phi * p.d2) - level
    roots = np.roots([-p.w1, b, 0.0, -p.w2 * p.alpha * p.d1**3])
    u_near, u_far = np.sort(roots.real)[1:]  # the third root is negative
    theta_n, theta_n_prime = float(t0 - u_near), float(t0 - u_far)
    return CostConstants(
        t0=t0, c_n=c_n, g0=g0, theta_n=theta_n, theta_n_prime=theta_n_prime
    )
