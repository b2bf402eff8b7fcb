"""Reward model: unit ingestion, derived constants, shape properties."""

import math

import numpy as np
import pytest

from platooncoord import (
    CostParams,
    compute_constants,
    nominal_params,
    platoon_bonus,
    reward,
    reward_cruise,
    reward_merge,
    reward_merge_derivative,
)
from platooncoord import dp, poisson
from platooncoord.cost import (
    NOMINAL_CONFIG,
    SINGULARITY_GUARD,
    CostDomainError,
    reward_merge_second_derivative,
)
from platooncoord.dp import DEFAULT_GRID


def test_nominal_ingestion_units(p):
    assert p.w1 == pytest.approx(25.8 / 3600.0)
    assert p.phi == pytest.approx(32.2 / 1e5)
    assert p.d1 == 1000.0
    assert p.d2 == 30000.0
    assert p.t0 == pytest.approx(1000.0 / 23.0)


def test_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        CostParams.from_config({"w3": 1.0})


def test_from_config_overrides():
    p = CostParams.from_config({"gamma": 0.5, "d2_km": 70.0})
    assert p.gamma == 0.5
    assert p.d2 == 70000.0


@pytest.mark.parametrize("field,value", [("gamma", 1.5), ("eta", 0.0), ("v", -1.0)])
def test_invalid_params_rejected(field, value):
    cfg = {
        "gamma": NOMINAL_CONFIG["gamma"],
        "eta": NOMINAL_CONFIG["eta"],
        "v_mps": NOMINAL_CONFIG["v_mps"],
    }
    key = {"gamma": "gamma", "eta": "eta", "v": "v_mps"}[field]
    cfg[key] = value
    with pytest.raises(ValueError):
        CostParams.from_config(cfg)


def test_merge_reward_at_zero(p):
    # Oracle: at s=0 the speed terms cancel, leaving the cruise fuel saving.
    oracle = 0.868 * 0.1 * (32.2 / 1e5) * 30000.0
    assert oracle == pytest.approx(0.8385, abs=5e-5)
    assert reward_merge(0.0, p) == pytest.approx(oracle, rel=1e-12)
    assert platoon_bonus(p) == pytest.approx(oracle, rel=1e-12)


def test_merge_reward_stationary_at_c_n(p, consts):
    h = 1e-4
    slope = (reward_merge(consts.c_n + h, p) - reward_merge(consts.c_n - h, p)) / (2 * h)
    assert abs(slope) < 1e-6


def test_shift_identity(p):
    rng = np.random.default_rng(3)
    for s in rng.uniform(-80.0, p.t0 - 1.0, size=50):
        assert reward_merge(s, p) - reward_cruise(s, p) == pytest.approx(
            platoon_bonus(p), rel=1e-12
        )


def test_cruise_reward_zero_action(p):
    assert reward_cruise(0.0, p) == pytest.approx(0.0, abs=1e-15)


def test_cruise_reward_at_c_n_is_peak_level(p, consts):
    z_n = reward_merge(consts.c_n, p) - platoon_bonus(p)
    assert reward_cruise(consts.c_n, p) == pytest.approx(z_n, rel=1e-12)


def test_merge_reward_diverges_near_t0(p):
    values = [reward_merge(p.t0 - d, p) for d in (1.0, 0.1, 0.01, 0.001)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < -1e3


def test_reward_dispatch(p, consts):
    assert reward(5.0, 5.0, p) == pytest.approx(reward_merge(5.0, p))
    assert reward(5.0, 0.0, p) == pytest.approx(0.0, abs=1e-15)
    # Beyond t0 merging is impossible; any feasible action cruises.
    assert reward(100.0, consts.c_n, p) == pytest.approx(reward_cruise(consts.c_n, p))


def test_reward_action_above_state_rejected(p):
    with pytest.raises(CostDomainError):
        reward(5.0, 6.0, p)


def test_reward_at_singularity_rejected(p):
    with pytest.raises(CostDomainError):
        reward_merge(p.t0, p)


def test_derivative_zero_at_c_n(p, consts):
    assert abs(reward_merge_derivative(consts.c_n, p)) < 1e-9


def test_derivative_matches_finite_difference(p):
    h = 1e-4
    for s in (-50.0, -10.0, 0.0, 10.0, 25.0, 40.0):
        fd = (reward_merge(s + h, p) - reward_merge(s - h, p)) / (2 * h)
        assert reward_merge_derivative(s, p) == pytest.approx(fd, abs=1e-4)
        fd2 = (
            reward_merge_derivative(s + h, p) - reward_merge_derivative(s - h, p)
        ) / (2 * h)
        assert reward_merge_second_derivative(s, p) == pytest.approx(fd2, rel=1e-6)


def test_derivative_sign_around_c_n(p, consts):
    assert reward_merge_derivative(consts.c_n - 1.0, p) > 0.0
    assert reward_merge_derivative(consts.c_n + 1.0, p) < 0.0


def test_concavity(p):
    rng = np.random.default_rng(7)
    for _ in range(200):
        s1, s2 = sorted(rng.uniform(-80.0, p.t0 - 0.5, size=2))
        lam = rng.uniform()
        mid = lam * s1 + (1 - lam) * s2
        assert reward_merge(mid, p) >= lam * reward_merge(s1, p) + (
            1 - lam
        ) * reward_merge(s2, p) - 1e-9


def test_constants_nominal_values(p, consts):
    # Closed-form maximizer oracle.
    c_n_oracle = p.d1 * (1.0 / p.v - (2.0 * p.w2 * p.alpha / p.w1) ** (1.0 / 3.0))
    assert consts.c_n == pytest.approx(c_n_oracle, rel=1e-12)
    assert consts.c_n == pytest.approx(-0.49, abs=0.01)
    assert consts.theta_n == pytest.approx(27.5, abs=0.3)
    assert consts.t0 == pytest.approx(43.478, abs=1e-3)
    assert consts.g0 == pytest.approx(0.8385, abs=5e-5)


def test_constants_ordering(consts):
    assert consts.theta_n_prime < consts.c_n < consts.theta_n < consts.t0


def _random_configs(count: int, seed: int) -> list[dict]:
    """Log-uniform draws of every cost parameter over wide ranges."""
    ranges = {
        "w1_per_hour": (1.0, 200.0),
        "w2_per_liter": (0.1, 5.0),
        "alpha": (1e-8, 1e-5),
        "eta": (0.01, 0.5),
        "phi_l_per_100km": (5.0, 60.0),
        "v_mps": (10.0, 40.0),
        "d1_km": (0.2, 5.0),
        "d2_km": (1.0, 200.0),
    }
    rng = np.random.default_rng(seed)
    return [
        {key: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
         for key, (lo, hi) in ranges.items()}
        for _ in range(count)
    ]


ROOT_CASES = {
    "nominal": {},
    # Far below any realistic value of time: c_n and theta_n' lie far out.
    "tiny_w1": {"w1_per_hour": 1e-6},
    # A vanishing platoon bonus: the two roots nearly meet at c_n.
    "tiny_d2": {"d2_km": 1e-9},
    **{f"draw{i:03d}": cfg for i, cfg in enumerate(_random_configs(200, seed=11))},
}


@pytest.mark.parametrize("config", ROOT_CASES.values(), ids=ROOT_CASES.keys())
def test_theta_roots_share_level(config):
    p = CostParams.from_config(config)
    consts = compute_constants(p)
    assert consts.theta_n_prime < consts.c_n < consts.theta_n < consts.t0
    level = reward_merge(consts.c_n, p) - consts.g0
    tol = 1e-9 * max(1.0, abs(level))
    assert abs(reward_merge(consts.theta_n, p) - level) <= tol
    assert abs(reward_merge(consts.theta_n_prime, p) - level) <= tol


def test_array_and_scalar_rewards_agree(p):
    nodes = DEFAULT_GRID.nodes()
    g_nodes, _ = dp._reward_nodes(nodes, p)
    feasible = nodes <= p.t0 - SINGULARITY_GUARD
    assert np.isnan(g_nodes[~feasible]).all()
    assert g_nodes[feasible].tolist() == [reward_merge(x, p) for x in nodes[feasible]]

    rate = 0.02
    k = rate * (1.0 - p.gamma)
    t = np.linspace(-150.0, p.t0 - 1e-3, 2001)
    scalar = [
        math.exp(-k * x) * (reward_merge_derivative(x, p) - rate * reward_merge(x, p))
        for x in t.tolist()
    ]
    # numpy's vectorised exp and power may round the last bit differently
    # from the scalar libm calls.
    np.testing.assert_allclose(poisson._integrand(p, rate)(t), scalar, rtol=1e-13)


def test_constants_runtime():
    import time

    start = time.perf_counter()
    compute_constants(nominal_params())
    assert time.perf_counter() - start < 1.0
