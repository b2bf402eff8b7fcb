"""Closed-form policy solution under exponential inter-arrivals.

The threshold pair (theta, c) solves a 2x2 nonlinear system obtained from
the value function's boundary conditions; the plateau value is eliminated
analytically via Z = G(theta) / (1 - gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import (
    CostConstants,
    CostParams,
    CostDomainError,
    SINGULARITY_GUARD,
    _merge_terms,
    platoon_bonus,
    reward_merge,
    reward_merge_derivative,
    reward_merge_second_derivative,
)
from .dp import SolverError
from .quadrature import adaptive_simpson, adaptive_simpson_batch

RESIDUAL_TOL = 1e-8
MAX_ITERATIONS = 200
MAX_HALVINGS = 30
INITIAL_SPLITS = 256


@dataclass(frozen=True)
class PoissonSolution:
    theta: float
    c: float
    z: float
    rate: float
    residual_norm: float
    iterations: int = 0


def _integrand(p: CostParams, rate: float):
    k = rate * (1.0 - p.gamma)

    def f(t: np.ndarray) -> np.ndarray:
        g, gprime = _merge_terms(t, p)
        return np.exp(-k * t) * (gprime - rate * g)

    return f


def _plateau(theta: float, p: CostParams) -> float:
    return reward_merge(theta, p) / (1.0 - p.gamma)


def _tol(z: float) -> float:
    return 1e-12 * (1.0 + abs(z))


def _integral(f, c: float, theta: float, z: float) -> float:
    """The boundary integral I(c, theta) of the integrand f."""
    return adaptive_simpson(f, c, theta, _tol(z), initial_splits=INITIAL_SPLITS)


def _value(s: float, c: float, integral: float, k: float, z: float, g0: float) -> float:
    """V(s) = e^{ks} (I(c, s) + (z + g0) e^{-kc}), given integral = I(c, s)."""
    return math.exp(k * s) * (integral + (z + g0) * math.exp(-k * c))


def _conditions(
    theta: float, c: float, integral: float, rate: float, p: CostParams
) -> tuple[np.ndarray, np.ndarray]:
    """Residual pair and its analytic Jacobian at (theta, c), given
    integral = I(c, theta).

    r1 = z - V(theta) is the plateau-continuity condition at theta and
    r2 = G'(c) - rate G(c) + k (z + g0) the stationarity of V at its peak c.
    Since dI/dtheta = f(theta) and dI/dc = -f(c), with
    e^{kt} f(t) = G'(t) - rate G(t), the derivatives are exact.
    """
    k = rate * (1.0 - p.gamma)
    g0 = platoon_bonus(p)
    z = _plateau(theta, p)
    dz = reward_merge_derivative(theta, p) / (1.0 - p.gamma)
    dg_c = reward_merge_derivative(c, p)
    v_theta = _value(theta, c, integral, k, z, g0)
    r2 = dg_c - rate * reward_merge(c, p) + k * (z + g0)
    shift = math.exp(k * (theta - c))
    # e^{k theta} f(theta) = (1 - gamma)(z' - rate z), and
    # e^{k theta} (f(c) + k (z + g0) e^{-kc}) = e^{k (theta - c)} r2.
    r1_theta = dz - k * v_theta - (1.0 - p.gamma) * (dz - rate * z) - shift * dz
    r2_c = reward_merge_second_derivative(c, p) - rate * dg_c
    residual = np.array([z - v_theta, r2])
    jac = np.array([[r1_theta, shift * r2], [k * dz, r2_c]])
    return residual, jac


def residuals(
    theta: float,
    c: float,
    rate: float,
    p: CostParams,
    consts: CostConstants,
) -> tuple[float, float]:
    """Residual pair of the boundary-condition system at (theta, c).

    The first residual is the plateau-continuity condition at theta, the
    second the stationarity of the value function at its peak c.
    """
    integral = _integral(_integrand(p, rate), c, theta, _plateau(theta, p))
    r1, r2 = _conditions(theta, c, integral, rate, p)[0]
    return float(r1), float(r2)


def solve(
    rate: float,
    p: CostParams,
    consts: CostConstants,
    init: tuple[float, float] | None = None,
) -> PoissonSolution:
    """Damped-Newton root-find for (theta, c) with the analytic Jacobian.
    ``init`` warm-starts the iteration (e.g. from the previous vehicle's
    solution); the default start sits just inside the proven bounds."""
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    if init is None:
        x = np.array([consts.theta_n - 0.1, consts.c_n - 0.1])
    else:
        x = np.array([init[0], init[1]], dtype=float)

    theta_cap = consts.t0 - 1e-6
    theta_floor = consts.theta_n_prime - 50.0
    f = _integrand(p, rate)

    def norm_scale(theta: float) -> float:
        return max(1.0, abs(_plateau(min(theta, theta_cap), p)))

    integral = _integral(f, x[1], x[0], _plateau(x[0], p))
    fx, jac = _conditions(x[0], x[1], integral, rate, p)
    for iteration in range(MAX_ITERATIONS):
        fnorm = float(np.max(np.abs(fx)))
        if fnorm <= RESIDUAL_TOL * norm_scale(x[0]):
            sol = PoissonSolution(
                theta=float(x[0]),
                c=float(x[1]),
                z=_plateau(float(x[0]), p),
                rate=rate,
                residual_norm=fnorm / norm_scale(x[0]),
                iterations=iteration,
            )
            _check_bounds(sol, consts)
            return sol

        try:
            direction = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at iterate {x.tolist()}") from exc

        scale = 1.0
        for _ in range(MAX_HALVINGS):
            trial = x + scale * direction
            # No endpoint may reach t0, where the swept edges' integrand is singular.
            if trial[0] >= theta_cap or trial[0] <= theta_floor or trial[1] >= theta_cap:
                scale *= 0.5
                continue
            # Move both endpoints by integrating only over the swept edges.
            deltas = adaptive_simpson_batch(
                f,
                [(x[0], trial[0]), (x[1], trial[1])],
                _tol(_plateau(trial[0], p)),
                initial_splits=32,
            )
            integral_trial = integral + float(deltas[0]) - float(deltas[1])
            f_trial, jac_trial = _conditions(trial[0], trial[1], integral_trial, rate, p)
            if float(np.max(np.abs(f_trial))) < fnorm:
                x, fx, jac, integral = trial, f_trial, jac_trial, integral_trial
                break
            scale *= 0.5
        else:
            raise SolverError(
                f"line search stalled at iterate {x.tolist()} "
                f"(residual {fnorm:.3g}, rate {rate:.6g})"
            )

    raise SolverError(
        f"no convergence in {MAX_ITERATIONS} iterations; last iterate "
        f"{x.tolist()} with residual {float(np.max(np.abs(fx))):.3g}"
    )


def _check_bounds(sol: PoissonSolution, consts: CostConstants, slack: float = 1e-6):
    if not (consts.theta_n_prime - slack <= sol.c <= consts.c_n + slack):
        raise SolverError(
            f"c={sol.c:.6f} violates [{consts.theta_n_prime:.6f}, {consts.c_n:.6f}]"
        )
    if not (consts.c_n - slack <= sol.theta <= consts.theta_n + slack):
        raise SolverError(
            f"theta={sol.theta:.6f} violates [{consts.c_n:.6f}, {consts.theta_n:.6f}]"
        )


def closed_form_value(
    s: float, sol: PoissonSolution, p: CostParams, consts: CostConstants
) -> float:
    """The analytic value function of the solved policy; constant Z above
    theta."""
    if s > consts.t0 - SINGULARITY_GUARD:
        raise CostDomainError(f"state {s!r} at or beyond the traversal time")
    if s >= sol.theta:
        return sol.z
    k = sol.rate * (1.0 - p.gamma)
    integral = _integral(_integrand(p, sol.rate), sol.c, s, sol.z)
    return _value(s, sol.c, integral, k, sol.z, platoon_bonus(p))
