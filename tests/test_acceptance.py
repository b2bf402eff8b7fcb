"""Acceptance suite: one test and one printed PASS/FAIL line per criterion."""

import statistics
import time

import numpy as np
import pytest

from platooncoord import (
    Baseline,
    Constant,
    DiscreteRandom,
    Exponential,
    DEFAULT_EPSILON,
    DEFAULT_GRID,
    FlowSchedule,
    PolicyA,
    REDUCED_GRID,
    RealTimeStrategy,
    closed_form_value,
    compute_constants,
    make_rng,
    nominal_params,
    platoon_bonus,
    rate_estimates,
    reward_merge,
    reward_merge_derivative,
    simulate,
    solve_bvi,
    solve_poisson,
    solve_ra,
)
from platooncoord.cost import CostParams
from platooncoord.dp import bvi_sweep, greedy_actions, _quadrature, _reward_nodes
from platooncoord.simulate import calibrate_policy_a

MODELS = [
    Exponential(0.01),
    Exponential(0.02),
    Exponential(0.05),
    DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6))),
    Constant(10.0),
]


def _report(n, ok, detail):
    # Under output capture, tests/conftest.py repeats these lines in the
    # terminal summary; with -s they show as they are printed.
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def _run(n, detail_fn, body):
    ok = False
    detail = ""
    try:
        detail = body()
        ok = True
    finally:
        _report(n, ok, detail or detail_fn)


@pytest.fixture(scope="module")
def p():
    return nominal_params()


@pytest.fixture(scope="module")
def consts(p):
    return compute_constants(p)


@pytest.fixture(scope="module")
def bvi_runs(p, consts):
    return {m: solve_bvi(REDUCED_GRID, m, p, consts, DEFAULT_EPSILON) for m in MODELS}


def test_criterion_1_constants(p):
    def body():
        start = time.perf_counter()
        c = compute_constants(p)
        elapsed = time.perf_counter() - start
        assert c.c_n == pytest.approx(-0.49, abs=0.01)
        assert c.theta_n == pytest.approx(27.5, abs=0.3)
        assert elapsed < 1.0
        return f"c_n={c.c_n:.4f}, theta_n={c.theta_n:.3f}, {elapsed*1e3:.1f} ms"

    _run(1, "constants", body)


def test_criterion_2_cross_solver_agreement(p, consts):
    def body():
        model = Exponential(0.02)
        start = time.perf_counter()
        reduced = [
            solve_bvi(REDUCED_GRID, model, p, consts, DEFAULT_EPSILON).policy,
            solve_ra(REDUCED_GRID, model, p, consts).policy,
        ]
        sol = solve_poisson(0.02, p, consts)
        reduced_elapsed = time.perf_counter() - start
        assert reduced_elapsed < 600.0
        # The paper-scale comparison is feasible here: the full grid solves in
        # well under a minute, so assert the tight 0.5 s pairwise agreement on
        # it directly.
        full = [
            solve_bvi(DEFAULT_GRID, model, p, consts, DEFAULT_EPSILON).policy,
            solve_ra(DEFAULT_GRID, model, p, consts).policy,
        ]
        pairs = [(pol.theta, pol.c) for pol in full] + [(sol.theta, sol.c)]
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                assert abs(pairs[i][0] - pairs[j][0]) <= 0.5 + 1e-9
                assert abs(pairs[i][1] - pairs[j][1]) <= 0.5 + 1e-9
        thetas = ", ".join(f"{t:.3f}" for t, _ in pairs)
        return f"full-grid thetas [{thetas}], reduced run {reduced_elapsed:.2f} s"

    _run(2, "cross-solver", body)


def test_criterion_3_timing_ordering(p, consts):
    def body():
        def med(fn, n=5):
            samples = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            return statistics.median(samples)

        exp = Exponential(0.02)
        t_poisson = med(lambda: solve_poisson(0.02, p, consts))
        t_ra = med(lambda: solve_ra(REDUCED_GRID, exp, p, consts))
        t_bvi = med(lambda: solve_bvi(REDUCED_GRID, exp, p, consts, DEFAULT_EPSILON))
        assert t_poisson < t_ra < t_bvi
        detail = (
            f"exp: poisson {t_poisson*1e3:.2f} < ra {t_ra*1e3:.2f} "
            f"< bvi {t_bvi*1e3:.2f} ms, ra/poisson x{t_ra / t_poisson:.2f}, "
            f"bvi/ra x{t_bvi / t_ra:.2f}"
        )
        for name, model in (
            ("discrete", DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6)))),
            ("constant", Constant(10.0)),
        ):
            t_ra_m = med(lambda: solve_ra(REDUCED_GRID, model, p, consts))
            t_bvi_m = med(
                lambda: solve_bvi(REDUCED_GRID, model, p, consts, DEFAULT_EPSILON)
            )
            assert t_ra_m < t_bvi_m
            detail += (
                f"; {name}: ra {t_ra_m*1e3:.2f} < bvi {t_bvi_m*1e3:.2f} ms, "
                f"bvi/ra x{t_bvi_m / t_ra_m:.2f}"
            )
        return detail

    _run(3, "timing", body)


def test_criterion_4_threshold_structure(p, consts, bvi_runs):
    def body():
        step = REDUCED_GRID.step
        for model, res in bvi_runs.items():
            merged, actions = greedy_actions(res.value_function, model, p, consts)
            assert np.sum(merged[:-1] != merged[1:]) == 1
            assert len(set(np.round(actions[~merged], 9))) == 1
            assert consts.c_n - step <= res.policy.theta <= consts.theta_n + step
            assert consts.theta_n_prime - step <= res.policy.c <= consts.c_n + step
        return f"{len(bvi_runs)} models, single switch each"

    _run(4, "structure", body)


def test_criterion_5_value_invariants(p, consts, bvi_runs):
    def body():
        eps = DEFAULT_EPSILON
        g0 = platoon_bonus(p)
        nodes = REDUCED_GRID.nodes()
        rng = np.random.default_rng(0)
        for model, res in bvi_runs.items():
            v = res.value_function.values
            # Monotone non-increasing on [c_n, n].
            sel = nodes >= consts.c_n
            assert (np.diff(v[sel]) <= 2 * eps).all()
            # Plateau beyond the extracted threshold: no node above theta-hat
            # exceeds its value by more than 2 eps, and the region beyond the
            # one-stage threshold is flat at the plateau value Z.
            v_theta = res.value_function(res.policy.theta)
            plateau = v[nodes >= res.policy.theta]
            assert np.max(plateau - v_theta) <= 2 * eps
            flat = v[nodes >= consts.theta_n]
            assert np.max(np.abs(flat - res.z)) <= 2 * eps
            # Peak identity against the plateau value.
            assert abs(np.max(v) - (res.z + g0)) <= 5 * eps
            # Pairwise lower bound on 1e4 random ordered node pairs.
            i = rng.integers(0, len(nodes), size=10**4)
            j = rng.integers(0, len(nodes), size=10**4)
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            assert (v[hi] - v[lo] >= -g0 - 2 * eps).all()
            # Bellman residual under one more sweep.
            quad = _quadrature(REDUCED_GRID, model)
            g_nodes, h_nodes = _reward_nodes(nodes, p)
            top = int(np.searchsorted(nodes, consts.theta_n + 1e-9) - 1)
            new = bvi_sweep(
                v, quad.expect, g_nodes, h_nodes, nodes, p.gamma, consts, top,
                REDUCED_GRID.step,
            )
            assert float(np.max(np.abs(new - v))) <= eps
        return f"{len(bvi_runs)} value functions"

    _run(5, "value invariants", body)


def test_criterion_6_poisson_closed_form(p, consts):
    def body():
        sol = solve_poisson(0.02, p, consts)
        assert sol.z == reward_merge(sol.theta, p) / (1.0 - p.gamma)
        v_theta = closed_form_value(sol.theta, sol, p, consts)
        v_c = closed_form_value(sol.c, sol, p, consts)
        assert abs(v_theta - sol.z) <= 1e-6 * abs(sol.z)
        assert abs(v_c - (sol.z + platoon_bonus(p))) <= 1e-6 * abs(sol.z + platoon_bonus(p))
        h = 1e-4
        bound = 1e-3 * (1.0 + abs(sol.z))
        worst = 0.0
        for s in np.linspace(sol.c + 0.1, sol.theta - 0.1, 100):
            v_prime = (
                closed_form_value(s + h, sol, p, consts)
                - closed_form_value(s - h, sol, p, consts)
            ) / (2 * h)
            rhs = (
                reward_merge_derivative(s, p)
                - sol.rate * reward_merge(s, p)
                + sol.rate * (1.0 - p.gamma) * closed_form_value(s, sol, p, consts)
            )
            worst = max(worst, abs(v_prime - rhs))
        assert worst <= bound
        return f"ODE residual {worst:.2e} <= {bound:.2e}"

    _run(6, "closed form", body)


def test_criterion_7_degenerate_gamma(consts):
    def body():
        p0 = CostParams.from_config({"gamma": 1e-6})
        step = REDUCED_GRID.step
        model = Exponential(0.02)
        policies = [
            solve_bvi(REDUCED_GRID, model, p0, consts, DEFAULT_EPSILON).policy,
            solve_ra(REDUCED_GRID, model, p0, consts).policy,
        ]
        sol = solve_poisson(0.02, p0, consts)
        pairs = [(pol.theta, pol.c) for pol in policies] + [(sol.theta, sol.c)]
        for theta, c in pairs:
            assert abs(theta - consts.theta_n) <= step + 1e-9
            assert abs(c - consts.c_n) <= step + 1e-9
        return f"thetas {[round(t, 3) for t, _ in pairs]}"

    _run(7, "gamma limit", body)


def test_criterion_8_simulation_ordering(p, consts):
    def body():
        start = time.perf_counter()
        schedule = FlowSchedule.bundled().with_average_flow(173.0)
        seeds = list(range(10))
        tau = calibrate_policy_a(schedule, p, consts, seed=0)
        means = {}
        vehicles = {}
        for policy in (Baseline(), PolicyA(tau=tau), RealTimeStrategy()):
            acs = []
            total = 0
            for seed in seeds:
                result = simulate(schedule, policy, p, consts, seed)
                acs.append(result.avg_cost)
                total += result.n_vehicles
            means[policy.name] = float(np.mean(acs))
            vehicles[policy.name] = total
        elapsed = time.perf_counter() - start
        assert all(n >= 2 * 10**4 for n in vehicles.values())
        assert means["rts"] <= means["policy_a"] <= means["baseline"]
        saving = means["baseline"] - means["rts"]
        assert 0.45 <= saving <= 1.35
        assert elapsed < 900.0
        return (
            f"AC rts {means['rts']:.3f} <= a {means['policy_a']:.3f} <= "
            f"baseline {means['baseline']:.3f}, saving {saving:.3f}, "
            f"{elapsed:.0f} s"
        )

    _run(8, "simulation ordering", body)


def test_criterion_9_sensitivity_trends():
    def body():
        schedule = FlowSchedule.bundled().with_average_flow(45.0)
        seeds = [0, 1, 2, 3, 4]
        gamma_means = []
        for gamma in (0.5, 0.6, 0.7, 0.8, 0.9):
            p = CostParams.from_config({"gamma": gamma})
            c = compute_constants(p)
            acs = [
                simulate(schedule, RealTimeStrategy(), p, c, s).avg_cost
                for s in seeds
            ]
            gamma_means.append(float(np.mean(acs)))
        assert (np.diff(gamma_means) <= 1e-12).all()
        d2_means = []
        for d2 in (20.0, 30.0, 40.0, 50.0, 60.0, 70.0):
            p = CostParams.from_config({"gamma": 0.6, "d2_km": d2})
            c = compute_constants(p)
            acs = [
                simulate(schedule, RealTimeStrategy(), p, c, s).avg_cost_per_km
                for s in seeds
            ]
            d2_means.append(float(np.mean(acs)))
        assert (np.diff(d2_means) <= 1e-12).all()
        return (
            f"gamma AC {gamma_means[0]:.3f}->{gamma_means[-1]:.3f}, "
            f"d2 AC/km {d2_means[0]:.4f}->{d2_means[-1]:.4f}"
        )

    _run(9, "sensitivity", body)


def test_criterion_10_estimator():
    def body():
        beta, m = 0.9, 50
        exact = 1.0 / (50.0 * (1.0 - beta**m))
        assert rate_estimates(np.full(3 * m, 50.0), beta, m)[-1] == pytest.approx(exact, rel=1e-12)
        # Statistical part: 3M arrivals are burn-in; the post-burn-in time
        # average of the rolling estimate must track the true rate within 10%.
        rate = 0.05
        passes = 0
        for seed in range(10):
            gaps = make_rng(seed).exponential(1.0 / rate, size=3 * m + 2000)
            trail = rate_estimates(gaps, beta, m)[3 * m :]
            if abs(float(np.mean(trail)) / rate - 1.0) <= 0.1:
                passes += 1
        assert passes >= 9
        return f"analytic exact, statistical {passes}/10"

    _run(10, "estimator", body)
