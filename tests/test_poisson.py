"""Closed-form solver: residual definitions, Newton behavior, value function."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from platooncoord import (
    REDUCED_GRID,
    closed_form_value,
    platoon_bonus,
    residuals,
    reward_merge,
    reward_merge_derivative,
    solve_poisson,
    solve_ra,
)
from platooncoord import CostParams, Exponential, compute_constants, poisson
from platooncoord.cost import CostDomainError


@pytest.fixture(scope="module")
def sol(p, consts):
    return solve_poisson(0.02, p, consts)


def test_residuals_vanish_at_solution(p, consts, sol):
    r1, r2 = residuals(sol.theta, sol.c, 0.02, p, consts)
    bound = 1e-8 * max(1.0, abs(sol.z))
    assert abs(r1) <= bound
    assert abs(r2) <= bound


def test_residual_degenerate_equal_thresholds(p, consts):
    # theta == c leaves an empty integral; r1 collapses to -g0.
    r1, _ = residuals(5.0, 5.0, 0.02, p, consts)
    assert r1 == pytest.approx(-platoon_bonus(p), rel=1e-9)


def test_residuals_small_at_ra_solution(p, consts):
    ra = solve_ra(REDUCED_GRID, Exponential(0.02), p, consts)
    r1, r2 = residuals(ra.policy.theta, ra.policy.c, 0.02, p, consts)
    # Grid resolution limits how well the discrete solution satisfies the
    # continuous system; a one-step threshold error moves r1 by roughly
    # |dZ/dtheta| * step.
    assert abs(r1) <= 0.5
    assert abs(r2) <= 0.01


def test_analytic_jacobian_matches_central_differences():
    rng = np.random.default_rng(2)
    h = 1e-4
    for _ in range(20):
        rate = float(np.exp(rng.uniform(np.log(0.005), np.log(0.2))))
        p = CostParams.from_config({"gamma": float(rng.uniform(0.1, 0.99))})
        consts = compute_constants(p)
        theta = float(rng.uniform(consts.c_n, consts.theta_n))
        c = float(rng.uniform(consts.theta_n_prime, consts.c_n))
        integral = poisson._integral(
            poisson._integrand(p, rate), c, theta, poisson._plateau(theta, p)
        )
        _, jac = poisson._conditions(theta, c, integral, rate, p)

        def r(t, cc):
            return np.array(residuals(t, cc, rate, p, consts))

        central = np.column_stack(
            [
                (r(theta + h, c) - r(theta - h, c)) / (2.0 * h),
                (r(theta, c + h) - r(theta, c - h)) / (2.0 * h),
            ]
        )
        np.testing.assert_allclose(central, jac, rtol=1e-5)


def test_random_parameters_agree_with_ra():
    # Rates stay well below ~10 veh/s, where the boundary quadrature runs
    # out of memory.
    rng = np.random.default_rng(3)
    step = REDUCED_GRID.step
    for _ in range(30):
        rate = float(np.exp(rng.uniform(np.log(0.003), np.log(0.2))))
        p = CostParams.from_config({"gamma": float(rng.uniform(0.3, 0.95))})
        consts = compute_constants(p)
        sol = solve_poisson(rate, p, consts)
        assert consts.c_n - 1e-6 <= sol.theta <= consts.theta_n + 1e-6
        assert consts.theta_n_prime - 1e-6 <= sol.c <= consts.c_n + 1e-6
        r1, r2 = residuals(sol.theta, sol.c, rate, p, consts)
        assert max(abs(r1), abs(r2)) <= 1e-8 * max(1.0, abs(sol.z))
        ra = solve_ra(REDUCED_GRID, Exponential(rate), p, consts)
        assert abs(ra.policy.theta - sol.theta) <= 2 * step + 1e-9
        assert abs(ra.policy.c - sol.c) <= 3 * step + 1e-9


def test_residuals_reject_theta_beyond_t0(p, consts):
    with pytest.raises(CostDomainError):
        residuals(consts.t0, -1.0, 0.02, p, consts)


def test_solution_invariants(p, consts, sol):
    assert consts.theta_n_prime - 1e-6 <= sol.c <= consts.c_n + 1e-6
    assert consts.c_n - 1e-6 <= sol.theta <= consts.theta_n + 1e-6
    # Z elimination holds exactly by construction.
    assert sol.z == pytest.approx(
        reward_merge(sol.theta, p) / (1.0 - p.gamma), rel=1e-14
    )
    assert sol.residual_norm <= 1e-8


def test_solution_rejects_bad_rate(p, consts):
    with pytest.raises(ValueError):
        solve_poisson(0.0, p, consts)
    with pytest.raises(ValueError):
        solve_poisson(-0.1, p, consts)


def test_vanishing_continuation_limit(p, consts):
    sol = solve_poisson(1e-6, p, consts)
    assert sol.theta == pytest.approx(consts.theta_n, abs=0.05)
    assert sol.c == pytest.approx(consts.c_n, abs=0.05)


def test_warm_start_converges_faster(p, consts, sol):
    rate = 0.02 * 1.05
    cold = solve_poisson(rate, p, consts)
    warm = solve_poisson(rate, p, consts, init=(sol.theta, sol.c))
    assert warm.iterations < cold.iterations
    assert warm.theta == pytest.approx(cold.theta, abs=1e-6)
    assert warm.c == pytest.approx(cold.c, abs=1e-6)


def test_solution_continuity_in_rate(p, consts, sol):
    gaps = []
    for delta in (1e-3, 1e-4, 1e-5):
        other = solve_poisson(0.02 * (1.0 + delta), p, consts)
        gaps.append(abs(other.theta - sol.theta))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_boundary_identities(p, consts, sol):
    v_theta = closed_form_value(sol.theta, sol, p, consts)
    v_c = closed_form_value(sol.c, sol, p, consts)
    assert v_theta == pytest.approx(sol.z, rel=1e-6)
    assert v_c == pytest.approx(sol.z + platoon_bonus(p), rel=1e-6)


def test_value_plateau_above_theta(p, consts, sol):
    for s in (sol.theta + 1.0, 35.0, 43.0):
        assert closed_form_value(s, sol, p, consts) == sol.z


def test_value_domain_guard(p, consts, sol):
    with pytest.raises(CostDomainError):
        closed_form_value(consts.t0 + 1.0, sol, p, consts)


def test_ode_residual(p, consts, sol):
    # Central differences of the closed form against the generator identity.
    rate = sol.rate
    h = 1e-4
    s_values = np.linspace(sol.c + 0.1, sol.theta - 0.1, 100)
    bound = 1e-3 * (1.0 + abs(sol.z))
    for s in s_values:
        v_prime = (
            closed_form_value(s + h, sol, p, consts)
            - closed_form_value(s - h, sol, p, consts)
        ) / (2.0 * h)
        rhs = (
            reward_merge_derivative(s, p)
            - rate * reward_merge(s, p)
            + rate * (1.0 - p.gamma) * closed_form_value(s, sol, p, consts)
        )
        assert abs(v_prime - rhs) <= bound


def test_value_peaks_at_c(p, consts, sol):
    s = np.linspace(sol.c - 2.0, sol.c + 2.0, 4001)
    vals = [closed_form_value(float(x), sol, p, consts) for x in s]
    assert s[int(np.argmax(vals))] == pytest.approx(sol.c, abs=1e-3)


def test_value_non_increasing_on_c_n_to_theta(p, consts, sol):
    s = np.linspace(consts.c_n, sol.theta, 500)
    vals = np.array([closed_form_value(float(x), sol, p, consts) for x in s])
    assert (np.diff(vals) <= 1e-9).all()


def test_warm_line_search_keeps_c_below_t0():
    # From this warm start at d2 = 40 km, an unbounded Newton step puts the
    # trial c past t0, and the swept-edge integral then refines across the
    # speed singularity until memory runs out. Run it under an address-space
    # cap so that a regression fails instead of exhausting the machine.
    script = textwrap.dedent(
        """
        import json, resource
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        from platooncoord import CostParams, compute_constants, poisson
        p = CostParams.from_config({"d2_km": 40.0})
        consts = compute_constants(p)
        rate = 0.00407137244649412
        warm = poisson.solve(rate, p, consts, init=(25.958999568091897, -49.14524386759989))
        cold = poisson.solve(rate, p, consts)
        print(json.dumps([warm.theta, warm.c, cold.theta, cold.c]))
        """
    )
    src = str(Path(poisson.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    theta, c, cold_theta, cold_c = json.loads(proc.stdout)
    assert theta == pytest.approx(cold_theta, abs=1e-5)
    assert c == pytest.approx(cold_c, abs=1e-5)
