"""Junction simulation: arrivals, state recursion, policies, accounting."""

import dataclasses
import math

import numpy as np
import pytest

from platooncoord import Baseline, FlowSchedule, PolicyA, PolicyB, RealTimeStrategy, simulate
from platooncoord.dp import ThresholdPolicy
from platooncoord.simulate import (
    MAX_SPEED,
    SAFETY_REACTION_TIME,
    account_costs,
    apply_policy,
    calibrate_policy_a,
    fuel_rate,
    generate_arrivals,
    merge_speed,
    step_state,
    threshold_decision,
    write_vehicle_csv,
)


def flat_schedule(total_vph: float) -> FlowSchedule:
    rows = tuple((h, total_vph / 2.0, total_vph / 2.0) for h in range(24))
    return FlowSchedule(rows=rows)


def test_bundled_schedule_loads():
    schedule = FlowSchedule.bundled()
    assert len(schedule.rows) == 24
    assert schedule.average_flow() > 0.0


def test_schedule_validation():
    rows = tuple((h, 10.0, 10.0) for h in range(23))
    with pytest.raises(ValueError, match="24 hourly rows"):
        FlowSchedule(rows=rows)
    with pytest.raises(ValueError, match="scale"):
        flat_schedule(100.0).with_scale(0.0)


def test_schedule_rows_must_list_hours_in_order():
    rows = tuple((h, float(h), 0.0) for h in range(24))
    with pytest.raises(ValueError, match="hours 0..23"):
        FlowSchedule(rows=rows[::-1])
    with pytest.raises(ValueError, match="hours 0..23"):
        FlowSchedule(rows=((1, 0.0, 0.0),) + rows[1:])


def test_zero_flow_schedule_cannot_be_rescaled():
    with pytest.raises(ValueError, match="no flow"):
        flat_schedule(0.0).with_average_flow(10.0)


def test_schedule_rate_switches_at_hour_boundary():
    rows = [(h, 0.0, 0.0) for h in range(24)]
    rows[1] = (1, 1800.0, 1800.0)
    schedule = FlowSchedule(rows=tuple(rows))
    assert schedule.rate_at(3599.999) == 0.0
    assert schedule.rate_at(3600.0) == pytest.approx(1.0)
    assert schedule.rate_at(7200.0) == 0.0


def test_schedule_average_flow_scaling():
    schedule = flat_schedule(200.0).with_average_flow(173.0)
    assert schedule.average_flow() == pytest.approx(173.0)


def test_arrival_gap_mean():
    schedule = flat_schedule(360.0)
    _, x = generate_arrivals(schedule, seed=0, duration=1.05e6)
    x = x[1:]  # first gap measured from t=0
    assert len(x) > 10**5
    assert float(np.mean(x[: 10**5])) == pytest.approx(10.0, abs=0.2)


def test_no_arrivals_in_zero_flow_hour():
    rows = [(h, 100.0, 100.0) for h in range(24)]
    rows[5] = (5, 0.0, 0.0)
    schedule = FlowSchedule(rows=tuple(rows))
    t, _ = generate_arrivals(schedule, seed=3)
    in_hour_5 = (t >= 5 * 3600.0) & (t < 6 * 3600.0)
    assert not in_hour_5.any()


def test_step_state_examples():
    assert step_state(5.0, 5.0, 12.0) == pytest.approx(17.0)
    assert step_state(30.0, -0.5, 12.0) == pytest.approx(11.5)
    with pytest.raises(ValueError):
        step_state(5.0, 6.0, 12.0)


def test_step_state_chained_identity():
    # With U=0 the recursion reduces to S_{k+1} = T_{k+1} - T_k.
    t = np.array([4.0, 9.5, 17.0, 30.0])
    s = t[0]
    for prev, nxt in zip(t[:-1], t[1:]):
        s = step_state(s, 0.0, nxt - prev)
        assert s == pytest.approx(nxt - prev)


def test_merge_speed(p):
    assert merge_speed(0.0, p) == pytest.approx(p.v)
    assert merge_speed(-10.0, p) < p.v
    with pytest.raises(ValueError):
        merge_speed(p.t0, p)


def test_threshold_decision_cruise_branch(p):
    pol = ThresholdPolicy(theta=20.0, c=-0.5)
    u, merged = threshold_decision(pol, 25.0, p)
    assert (u, merged) == (-0.5, False)


def test_threshold_decision_merge_branch(p):
    pol = ThresholdPolicy(theta=20.0, c=-0.5)
    u, merged = threshold_decision(pol, 10.0, p)
    assert merged and u == pytest.approx(10.0 - SAFETY_REACTION_TIME)


def test_threshold_decision_speed_cap_fallback(p):
    # Merging requires v_k > 40 m/s once S - t_safety > d1/v - d1/40.
    cutoff = p.d1 / p.v - p.d1 / MAX_SPEED
    s = cutoff + SAFETY_REACTION_TIME + 0.3
    pol = ThresholdPolicy(theta=s + 1.0, c=-0.5)
    u, merged = threshold_decision(pol, s, p)
    assert (u, merged) == (-0.5, False)


def test_fuel_rate_example(p):
    rec = account_costs(1, 0.0, 10.0, 10.0, 0.0, False, p)
    # f(23) = 3.51e-7 * 23^3 + 4.07e-4 * 23, over t0 = 43.478 s.
    assert fuel_rate(23.0) == pytest.approx(0.0136317, abs=1e-7)
    assert rec.coord_fuel == pytest.approx(0.59268, abs=1e-4)
    assert rec.speed == pytest.approx(p.v)


def test_merged_cruise_fuel_discount(p):
    merged = account_costs(1, 0.0, 10.0, 10.0, -2.0, True, p)
    cruising = account_costs(1, 0.0, 10.0, 10.0, -2.0, False, p)
    assert merged.cruise_fuel == pytest.approx((1.0 - p.eta) * cruising.cruise_fuel)
    assert merged.coord_fuel == cruising.coord_fuel


def test_account_costs_rejects_speeding(p):
    with pytest.raises(ValueError, match="cap"):
        account_costs(1, 0.0, 30.0, 30.0, 20.0, True, p)


def test_baseline_policy(p):
    assert apply_policy(Baseline(), 1.0, 1.0, p)[:2] == (0.0, True)
    assert apply_policy(Baseline(), 2.4, 2.4, p)[:2] == (0.0, False)
    assert apply_policy(Baseline(), -0.5, 1.0, p)[:2] == (0.0, False)


def test_policy_a(p):
    u, merged, _, _ = apply_policy(PolicyA(tau=18.5), 5.0, 5.0, p)
    assert merged and u == 5.0
    u, merged, _, _ = apply_policy(PolicyA(tau=18.5), 5.0, 20.0, p)
    assert (u, merged) == (0.0, False)


def test_simulate_deterministic(p, consts):
    schedule = flat_schedule(300.0)
    a = simulate(schedule, Baseline(), p, consts, seed=5, duration=7200.0)
    b = simulate(schedule, Baseline(), p, consts, seed=5, duration=7200.0)
    assert a.to_json() == b.to_json()
    assert [dataclasses.astuple(r) for r in a.records] == [
        dataclasses.astuple(r) for r in b.records
    ]
    assert a.rng_algorithm == "pcg64"


def test_simulate_empty(p, consts):
    rows = tuple((h, 0.0, 0.0) for h in range(24))
    result = simulate(FlowSchedule(rows=rows), Baseline(), p, consts, seed=0)
    assert result.n_vehicles == 0
    assert result.avg_cost is None
    assert result.to_json()["avg_cost"] is None


@pytest.fixture(scope="module")
def policy_b_run(p, consts):
    pol = PolicyB(policy=ThresholdPolicy(theta=24.7, c=-36.0))
    return simulate(flat_schedule(200.0), pol, p, consts, seed=2, duration=43200.0)


def test_cost_decomposition(p, policy_b_run):
    r = policy_b_run
    assert r.total_cost == pytest.approx(
        p.w2 * r.total_fuel + p.w1 * r.total_time, rel=1e-9
    )


def test_speed_cap_invariant(policy_b_run):
    assert all(r.speed <= MAX_SPEED + 1e-9 for r in policy_b_run.records)


def test_merge_arrival_gap_is_safety_buffer(p, policy_b_run):
    # Junction arrival is T_k + t0 - U_k; merging trails the predecessor by
    # exactly the safety reaction time.
    records = policy_b_run.records
    checked = 0
    for prev, cur in zip(records[:-1], records[1:]):
        if cur.merged:
            gap = (cur.t + p.t0 - cur.u) - (prev.t + p.t0 - prev.u)
            assert gap == pytest.approx(SAFETY_REACTION_TIME, abs=1e-9)
            checked += 1
    assert checked > 10


def test_platoon_histogram_accounts_all_vehicles(policy_b_run):
    total = sum(size * count for size, count in policy_b_run.platoon_histogram.items())
    assert total == policy_b_run.n_vehicles


def test_policy_b_beats_baseline(p, consts, policy_b_run):
    base = simulate(flat_schedule(200.0), Baseline(), p, consts, seed=2, duration=43200.0)
    assert policy_b_run.avg_cost < base.avg_cost


def test_rts_runs_and_records_thresholds(p, consts):
    schedule = flat_schedule(150.0)
    result = simulate(schedule, RealTimeStrategy(), p, consts, seed=1, duration=3600.0)
    assert result.n_vehicles > 50
    thetas = [r.theta for r in result.records]
    assert all(t is not None for t in thetas)
    assert all(consts.c_n - 1e-6 <= t <= consts.theta_n + 1e-6 for t in thetas)
    again = simulate(schedule, RealTimeStrategy(), p, consts, seed=1, duration=3600.0)
    assert result.to_json() == again.to_json()


def test_rts_lazy_resolve_close_to_eager(p, consts):
    schedule = flat_schedule(150.0)
    eager = simulate(schedule, RealTimeStrategy(), p, consts, seed=4, duration=3600.0)
    lazy = simulate(
        schedule,
        RealTimeStrategy(resolve_rel_change=0.01),
        p,
        consts,
        seed=4,
        duration=3600.0,
    )
    assert lazy.avg_cost == pytest.approx(eager.avg_cost, rel=1e-3)


def test_calibrate_policy_a(p, consts):
    schedule = flat_schedule(200.0)
    taus = np.arange(0.0, 30.0 + 1e-9, 2.0)
    tau = calibrate_policy_a(schedule, p, consts, seed=0, duration=21600.0, taus=taus)
    costs = [
        simulate(schedule, PolicyA(tau=float(t)), p, consts, seed=0, duration=21600.0).avg_cost
        for t in taus
    ]
    assert len(set(costs)) > 1
    assert tau == taus[int(np.argmin(costs))]


def test_write_vehicle_csv(tmp_path, policy_b_run):
    path = tmp_path / "vehicles.csv"
    write_vehicle_csv(path, policy_b_run)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,T,X,S,U,merged,v_k,fuel_L,time_s,cost"
    assert len(lines) - 1 == policy_b_run.n_vehicles
