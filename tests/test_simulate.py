"""Junction simulation: arrivals, state recursion, policies, accounting."""

import csv
import dataclasses
import importlib
import math
from collections import Counter

import numpy as np
import pytest

from platooncoord import (
    Baseline,
    FlowSchedule,
    PolicyA,
    PolicyB,
    RealTimeStrategy,
    compute_constants,
    poisson,
    rate_estimates,
    simulate,
)
from platooncoord.arrivals import RateEstimator, make_rng
from platooncoord.dp import SolverError, ThresholdPolicy
from platooncoord.simulate import (
    MAX_SPEED,
    SAFETY_REACTION_TIME,
    account_costs,
    apply_policy,
    calibrate_policy_a,
    fuel_rate,
    generate_arrivals,
    step_state,
    write_vehicle_csv,
)

# ``platooncoord.simulate`` is the function of that name, not the module.
sim = importlib.import_module("platooncoord.simulate")


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


@pytest.mark.parametrize(
    "flows", [(math.inf, 10.0), (10.0, math.nan), (1e308, 1e308), (-1.0, 10.0)],
    ids=["inf", "nan", "overflowing-sum", "negative"],
)
def test_schedule_rejects_non_finite_or_negative_flows(flows):
    rows = [(h, 10.0, 10.0) for h in range(24)]
    rows[5] = (5, *flows)
    with pytest.raises(ValueError, match="hour 5: flows must be finite and non-negative"):
        FlowSchedule(rows=tuple(rows))


def test_zero_flow_schedule_cannot_be_rescaled():
    with pytest.raises(ValueError, match="no flow"):
        flat_schedule(0.0).with_average_flow(10.0)


def test_schedule_csv_columns_may_come_in_any_order(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_text("flow2_vph,hour,flow1_vph\n" + "".join(f"20,{h},10\n" for h in range(24)))
    assert FlowSchedule.from_csv(path).rows == tuple((h, 10.0, 20.0) for h in range(24))


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


@pytest.mark.parametrize("flow", [5000.0, 4326.05, 0.0, -10.0, 5e-324, math.nan, math.inf,
                                  -math.inf])
def test_out_of_range_average_flow_names_the_flows(flow):
    # The bundled schedule's own average, 4326.04 veh/h, is the largest it allows.
    schedule = FlowSchedule.bundled()
    largest = schedule.average_flow()
    assert schedule.with_average_flow(largest).scale == 1.0
    with pytest.raises(ValueError) as err:
        schedule.with_average_flow(flow)
    assert str(err.value) == (
        f"average flow must lie in (0, {largest!r}] veh/h for this schedule, got {flow!r}"
    )
    assert "4326.04" in str(err.value)


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


def scalar_hour(rng, start, end, rate):
    """One exponential gap at a time from ``start`` until a time reaches ``end``."""
    times = []
    t = start + rng.exponential(1.0 / rate)
    while t < end:
        times.append(t)
        t += rng.exponential(1.0 / rate)
    return times


def scalar_arrivals(schedule, seed, duration=86400.0):
    """The one-draw-at-a-time arrival generator, kept as an oracle."""
    rng = make_rng(seed)
    times = []
    for hour in range(int(math.ceil(duration / 3600.0))):
        start = 3600.0 * hour
        rate = schedule.rate_at(start)
        if rate > 0.0:
            times += scalar_hour(rng, start, min(start + 3600.0, duration), rate)
    t_arr = np.array(times)
    return t_arr, np.diff(t_arr, prepend=0.0)


def gappy_schedule():
    rows = [(h, 40.0 * h, 25.0 * (24 - h)) for h in range(24)]
    for h in (0, 5, 6, 23):
        rows[h] = (h, 0.0, 0.0)
    return FlowSchedule(rows=tuple(rows))


@pytest.mark.parametrize(
    "schedule, duration",
    [
        (flat_schedule(10.0), 86400.0),
        (flat_schedule(173.0), 86400.0),
        (FlowSchedule.bundled().with_average_flow(1500.0), 86400.0),
        (gappy_schedule(), 86400.0),
        (gappy_schedule(), 5000.0),  # partial last hour
        (flat_schedule(173.0), 1800.0),
        (flat_schedule(173.0), 0.0),
    ],
    ids=["10vph", "173vph", "bundled-1500vph", "zero-flow-hours", "partial-last-hour",
         "half-hour", "empty"],
)
def test_generate_arrivals_matches_scalar_draws(schedule, duration):
    for seed in range(4):
        t, x = generate_arrivals(schedule, seed, duration)
        t_ref, x_ref = scalar_arrivals(schedule, seed, duration)
        assert np.array_equal(t, t_ref) and np.array_equal(x, x_ref)
        assert t.dtype == x.dtype == np.float64


def test_bundled_days_lie_far_inside_the_run_size_bounds():
    day = FlowSchedule.bundled()
    expected = sum(day.rate_at(3600.0 * h) * 3600.0 for h in range(24))
    assert 1e5 < expected < sim.MAX_EXPECTED_ARRIVALS / 50
    assert 24 * 100 < sim.MAX_RUN_HOURS


def test_generate_arrivals_accepts_a_run_of_max_hours():
    flow = sim.MAX_EXPECTED_ARRIVALS / sim.MAX_RUN_HOURS / 1000.0
    t, _ = generate_arrivals(flat_schedule(flow), 0, 3600.0 * sim.MAX_RUN_HOURS)
    assert 0 < len(t) < sim.MAX_EXPECTED_ARRIVALS


@pytest.mark.parametrize("batch", [1, 2, 7, 200])
def test_hour_arrivals_leaves_the_stream_where_scalar_draws_do(batch):
    # Small batches take the path that draws more than one batch per hour.
    rng, ref = make_rng(11), make_rng(11)
    for start, end, rate in ((0.0, 3600.0, 0.05), (3600.0, 3700.0, 0.3), (7200.0, 7200.5, 1.0)):
        times = sim._hour_arrivals(rng, start, end, rate, batch)
        assert times.tolist() == scalar_hour(ref, start, end, rate)
        assert rng.bit_generator.state == ref.bit_generator.state


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


def test_threshold_decision_cruise_branch(p):
    u, merged = sim._threshold_rule(20.0, -0.5, p)(25.0, 25.0)
    assert (u, merged) == (-0.5, False)


def test_threshold_decision_merge_branch(p):
    u, merged = sim._threshold_rule(20.0, -0.5, p)(10.0, 10.0)
    assert merged and u == pytest.approx(10.0 - SAFETY_REACTION_TIME)


def test_threshold_decision_speed_cap_fallback(p):
    # Merging requires v_k > 40 m/s once S - t_safety > d1/v - d1/40.
    cutoff = p.d1 / p.v - p.d1 / MAX_SPEED
    s = cutoff + SAFETY_REACTION_TIME + 0.3
    u, merged = sim._threshold_rule(s + 1.0, -0.5, p)(s, s)
    assert (u, merged) == (-0.5, False)


def test_fuel_rate_example(p):
    rec = account_costs(1, 0.0, 10.0, 10.0, 0.0, False, p)
    # f(23) = 3.51e-7 * 23^3 + 4.07e-4 * 23, over t0 = 43.478 s.
    assert fuel_rate(23.0, p) == pytest.approx(0.0136317, abs=1e-7)
    assert rec.coord_fuel == pytest.approx(0.59268, abs=1e-4)
    assert rec.speed == pytest.approx(p.v)


@pytest.mark.parametrize(
    "policy",
    [Baseline(), PolicyA(tau=18.5), PolicyB(ThresholdPolicy(theta=24.7, c=-36.0))],
    ids=["baseline", "policy-a", "policy-b"],
)
def test_doubling_alpha_adds_its_cubic_fuel_term(p, policy):
    # The decisions do not read alpha, so each vehicle keeps its speed and
    # burns exactly one more coord_time * alpha * speed^3 in the zone.
    twice = dataclasses.replace(p, alpha=2.0 * p.alpha)
    schedule = flat_schedule(173.0)
    base = simulate(schedule, policy, p, compute_constants(p), seed=2, duration=7200.0)
    more = simulate(schedule, policy, twice, compute_constants(twice), seed=2,
                    duration=7200.0)
    assert len(base.records) == len(more.records) > 0
    for a, b in zip(base.records, more.records):
        assert (a.u, a.merged, a.speed) == (b.u, b.merged, b.speed)
        coord_time = p.d1 / a.speed
        extra = coord_time * p.alpha * a.speed**3
        assert b.coord_fuel - a.coord_fuel == pytest.approx(extra, rel=1e-12)
    assert more.avg_fuel > base.avg_fuel


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


def check_calibration(p, consts, flow, taus):
    """The calibrated tau is the argmin of ``simulate``'s average costs, and
    the calibration's own averages equal them bit for bit."""
    schedule = flat_schedule(flow)
    duration = 21600.0
    tau = calibrate_policy_a(schedule, p, consts, seed=0, duration=duration, taus=taus)
    costs = [
        simulate(schedule, PolicyA(tau=float(t)), p, consts, seed=0, duration=duration).avg_cost
        for t in taus
    ]
    assert tau == taus[int(np.argmin(costs))]
    _, x_arr = generate_arrivals(schedule, 0, duration)
    assert sim._policy_a_average_costs(x_arr, taus, p) == costs
    return costs


def test_calibrate_policy_a(p, consts):
    costs = check_calibration(p, consts, 200.0, np.arange(0.0, 30.0 + 1e-9, 2.0))
    assert len(set(costs)) > 1


@pytest.mark.parametrize(
    "flow, taus",
    [
        (200.0, np.array([25.0, 3.0, 17.5, 0.0, 30.0, 3.0, 18.47, 18.5])),
        (200.0, np.array([7.0])),
        (1500.0, np.arange(0.0, 30.0 + 1e-9, 2.5)),  # the longest re-decided stretches
    ],
    ids=["unsorted-repeated", "single", "1500vph"],
)
def test_calibrate_policy_a_other_grids(p, consts, flow, taus):
    check_calibration(p, consts, flow, taus)


@pytest.mark.parametrize("duration", [0.0, 3600.0, 86400.0], ids=["empty", "hour", "day"])
@pytest.mark.parametrize("flow", [60.0, 173.0, 1500.0])
def test_calibration_averages_match_a_day_per_tau(p, consts, flow, duration):
    # tau = 1e6 lies above every gap and 30 above most gaps of the faster days,
    # so the first step flips nearly every vehicle of the no-merge day it
    # starts from; the next steps go back down.
    schedule = FlowSchedule.bundled().with_average_flow(flow)
    _, x_arr = generate_arrivals(schedule, 0, duration)
    for taus in ([1e6, 0.0, 7.5], [30.0, 0.0]):
        want = [simulate(schedule, PolicyA(tau=tau), p, consts, 0, duration).avg_cost
                for tau in taus]
        assert sim._policy_a_average_costs(x_arr, taus, p) == want
    if duration == 0.0:
        assert want == [None, None]
        assert calibrate_policy_a(schedule, p, consts, seed=0, duration=duration,
                                  taus=np.array([7.5, 0.0])) == 7.5


def test_calibrate_policy_a_rejects_bad_taus(p, consts):
    schedule = flat_schedule(200.0)
    with pytest.raises(ValueError, match="at least one"):
        calibrate_policy_a(schedule, p, consts, seed=0, duration=3600.0, taus=np.array([]))
    with pytest.raises(ValueError, match="tau must be >= 0"):
        calibrate_policy_a(schedule, p, consts, seed=0, duration=3600.0,
                           taus=np.array([5.0, -1.0]))


def test_write_vehicle_csv(tmp_path, policy_b_run):
    path = tmp_path / "vehicles.csv"
    write_vehicle_csv(path, policy_b_run)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,T,X,S,U,merged,v_k,fuel_L,time_s,cost"
    assert len(lines) - 1 == policy_b_run.n_vehicles


def reference_rts(spec, x_arr, p, consts):
    """The day's real-time-strategy (theta, c) per vehicle, written out as a
    walk over the sorted rates. Vehicle 0 solves cold. Then, walking up and
    then down from its rank, each vehicle solves warm from the secant
    through the walk's last two solutions (the last alone on the first
    step), clamped to the proven bounds, and retries cold once; when both
    fail it keeps the walk's last good pair, or (theta_n, c_n) before the
    first success. The rates are the ``rate_estimates`` that
    ``test_rts_rates_match_the_estimator`` checks."""
    rates = rate_estimates(x_arr, spec.beta, spec.m_steps).tolist()
    pairs = [(consts.theta_n, consts.c_n)] * len(rates)

    def attempt(rate, init):
        try:
            return poisson.solve(rate, p, consts, init=init)
        except SolverError:
            return None

    anchor = attempt(rates[0], None)
    if anchor is not None:
        pairs[0] = (anchor.theta, anchor.c)
    order = sorted(range(len(rates)), key=rates.__getitem__)  # a stable sort
    rank = order.index(0)
    for walk in (order[rank + 1 :], reversed(order[:rank])):
        prev, last = None, anchor
        for k in walk:
            rate = rates[k]
            solution = None
            if last is not None:
                theta, c = last.theta, last.c
                if prev is not None and prev.rate != last.rate:
                    t = (rate - last.rate) / (last.rate - prev.rate)
                    theta = min(max(theta + t * (theta - prev.theta), consts.c_n),
                                consts.theta_n)
                    c = min(max(c + t * (c - prev.c), consts.theta_n_prime), consts.c_n)
                solution = attempt(rate, (theta, c))
            if solution is None:
                solution = attempt(rate, None)
            if solution is not None:
                prev, last = last, solution
            if last is not None:
                pairs[k] = (last.theta, last.c)
    return pairs


def reference_day(schedule, policy, p, consts, seed, duration):
    """The per-vehicle loop: one decision (``apply_policy``, or
    ``oracle_decision`` with the vehicle's ``reference_rts`` pair under the
    real-time strategy) and one scalar
    ``account_costs`` call per vehicle, with a running platoon count."""
    t_arr, x_arr = generate_arrivals(schedule, seed, duration)
    if isinstance(policy, RealTimeStrategy):
        pairs = iter(reference_rts(policy, x_arr, p, consts))

        def decide(s, x):
            theta, c = next(pairs)
            pair = PolicyB(policy=ThresholdPolicy(theta=theta, c=c))
            return (*oracle_decision(pair, s, x, p), theta, c)
    else:
        def decide(s, x):
            return apply_policy(policy, s, x, p)
    records, histogram = [], {}
    platoon_size, prev_u, prev_s = 0, 0.0, math.inf
    for k, (t, x) in enumerate(zip(t_arr.tolist(), x_arr.tolist()), start=1):
        s = step_state(prev_s, prev_u, x) if k > 1 else x
        u, merged, theta_k, c_k = decide(s, x)
        record = account_costs(k, t, x, s, u, merged, p)
        record.theta, record.c = theta_k, c_k
        records.append(record)
        if merged and platoon_size > 0:
            platoon_size += 1
        else:
            if platoon_size > 0:
                histogram[platoon_size] = histogram.get(platoon_size, 0) + 1
            platoon_size = 1
        prev_u, prev_s = u, s
    if platoon_size > 0:
        histogram[platoon_size] = histogram.get(platoon_size, 0) + 1
    return records, histogram


EQUIVALENCE_CASES = [
    (Baseline(), 86400.0),
    (PolicyA(tau=0.0), 86400.0),
    (PolicyA(tau=7.5), 86400.0),
    (PolicyA(tau=18.5), 86400.0),
    (PolicyA(tau=30.0), 86400.0),
    (PolicyB(policy=ThresholdPolicy(theta=24.7, c=-36.0)), 86400.0),
    (RealTimeStrategy(), 3600.0),
]


@pytest.mark.parametrize(
    "policy, duration", EQUIVALENCE_CASES, ids=lambda case: getattr(case, "name", None)
)
def test_day_accounting_matches_per_vehicle_loop(p, consts, policy, duration):
    schedule = flat_schedule(173.0)
    result = simulate(schedule, policy, p, consts, seed=3, duration=duration)
    records, histogram = reference_day(schedule, policy, p, consts, 3, duration)
    assert len(result.records) == len(records) > 50
    exact = ("k", "t", "x", "s", "u", "merged", "speed", "theta", "c")
    for got, want in zip(result.records, records):
        assert [getattr(got, f) for f in exact] == [getattr(want, f) for f in exact]
        # numpy's vectorised speed**3 may differ from libm pow in the last bit.
        for f in ("coord_fuel", "cruise_fuel", "travel_time", "cost"):
            assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-14, abs=0.0)
    assert result.platoon_histogram == histogram
    total_cost = sum(r.cost for r in records)
    assert result.avg_cost == pytest.approx(total_cost / len(records), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "policy",
    [
        Baseline(),
        PolicyA(tau=18.5),
        PolicyB(policy=ThresholdPolicy(theta=24.7, c=-36.0)),
        RealTimeStrategy(),
    ],
    ids=lambda policy: policy.name,
)
def test_results_hold_plain_floats(p, consts, policy):
    result = simulate(flat_schedule(150.0), policy, p, consts, seed=1, duration=1800.0)
    assert result.n_vehicles > 10
    for value in (result.total_cost, result.total_fuel, result.total_time, result.avg_cost,
                  result.avg_cost_per_km, result.avg_fuel, result.avg_time):
        assert type(value) is float
    floats = ("t", "x", "s", "u", "speed", "coord_fuel", "cruise_fuel", "travel_time", "cost")
    for r in result.records:
        assert all(type(getattr(r, f)) is float for f in floats)
        assert type(r.merged) is bool
        if not isinstance(policy, (Baseline, PolicyA)):
            assert type(r.theta) is float and type(r.c) is float
    assert all(type(k) is int and type(v) is int for k, v in result.platoon_histogram.items())


def scripted_solve(monkeypatch, fails):
    """Route ``poisson.solve`` through a log of (rate, init) calls; call
    number n (from 1) raises ``SolverError`` when ``fails(n)``."""
    real = poisson.solve
    calls = []

    def solve(rate, p, consts, init=None):
        calls.append((rate, init))
        if fails(len(calls)):
            raise SolverError("scripted failure")
        return real(rate, p, consts, init=init)

    monkeypatch.setattr(poisson, "solve", solve)
    return calls


def rts_day(p, consts):
    return simulate(flat_schedule(150.0), RealTimeStrategy(), p, consts, seed=1, duration=1200.0)


def rts_day_vehicle(rate):
    """The vehicle of ``rts_day`` whose rate this is."""
    _, x_arr = generate_arrivals(flat_schedule(150.0), 1, 1200.0)
    spec = RealTimeStrategy()
    return rate_estimates(x_arr, spec.beta, spec.m_steps).tolist().index(rate)


def secant(rate, a, b):
    """(theta, c) at ``rate`` on the line through solutions a and b, each a
    (rate, theta, c)."""
    t = (rate - b[0]) / (b[0] - a[0])
    return b[1] + t * (b[1] - a[1]), b[2] + t * (b[2] - a[2])


# rts_day's vehicle 0 has the day's highest rate, so call 1 solves it cold and
# calls 2, 3, ... solve the other vehicles along the walk down the sorted rates.


def test_rts_retries_cold_after_failed_warm_solve(p, consts, monkeypatch):
    # Call 10 is the ninth walk step's warm solve; call 11 its cold retry.
    calls = scripted_solve(monkeypatch, lambda n: n == 10)
    result = rts_day(p, consts)
    assert len(calls) == result.n_vehicles + 1
    rate, init = calls[9]
    assert init is not None and calls[10] == (rate, None)
    monkeypatch.undo()
    cold = poisson.solve(rate, p, consts)
    retried = result.records[rts_day_vehicle(rate)]
    assert (retried.theta, retried.c) == (cold.theta, cold.c)
    # The retried pair is the walk's latest: the next solve starts from the
    # secant through the step before and it.
    before = result.records[rts_day_vehicle(calls[8][0])]
    next_rate, next_init = calls[11]
    want = secant(next_rate, (calls[8][0], before.theta, before.c),
                  (rate, cold.theta, cold.c))
    assert next_init == pytest.approx(want, rel=1e-12)


def test_rts_keeps_last_good_pair_when_both_solves_fail(p, consts, monkeypatch):
    calls = scripted_solve(monkeypatch, lambda n: n in (10, 11))
    result = rts_day(p, consts)
    assert len(calls) == result.n_vehicles + 1
    walk = [result.records[rts_day_vehicle(rate)] for rate, _ in calls]
    last_good = (walk[8].theta, walk[8].c)
    assert (walk[9].theta, walk[9].c) == last_good
    # The last two good pairs stay the next solve's predictor.
    next_rate, next_init = calls[11]
    want = secant(next_rate, (calls[7][0], walk[7].theta, walk[7].c),
                  (calls[8][0], *last_good))
    assert next_init == pytest.approx(want, rel=1e-12)
    assert (walk[11].theta, walk[11].c) != last_good


def test_secant_start_stays_inside_the_proven_bounds(consts):
    def solution(rate, theta, c):
        return poisson.PoissonSolution(theta=theta, c=c, z=0.0, rate=rate, residual_norm=0.0)

    a, b = solution(0.1, 20.0, -30.0), solution(0.11, 19.0, -31.0)
    assert sim._secant_start([a, b], 0.12, consts) == pytest.approx((18.0, -32.0), rel=1e-12)
    assert sim._secant_start([a, b], 10.0, consts) == (consts.c_n, consts.theta_n_prime)
    assert sim._secant_start([a, b], -10.0, consts) == (consts.theta_n, consts.c_n)
    # One solution, or two at one rate, give the last pair as it is.
    assert sim._secant_start([b], 10.0, consts) == (19.0, -31.0)
    assert sim._secant_start([solution(0.11, 20.0, -30.0), b], 10.0, consts) == (19.0, -31.0)


def test_rts_day_starts_with_a_cold_solve_at_vehicle_0s_rate(p, consts, monkeypatch):
    calls = scripted_solve(monkeypatch, lambda n: False)
    rts_day(p, consts)
    _, x_arr = generate_arrivals(flat_schedule(150.0), 1, 1200.0)
    estimator = RateEstimator()
    estimator.observe(x_arr.item(0))
    assert calls[0] == (estimator.estimate(), None)


def test_rts_uses_one_stage_pair_before_first_success(p, consts, monkeypatch):
    calls = scripted_solve(monkeypatch, lambda n: n == 1)
    result = rts_day(p, consts)
    assert len(calls) == result.n_vehicles
    first = result.records[0]
    assert (first.theta, first.c) == (consts.theta_n, consts.c_n)
    # No solution yet, so the second vehicle solves cold again.
    assert calls[1][1] is None
    assert result.records[1].theta != consts.theta_n


def test_rts_does_not_swallow_other_errors(p, consts, monkeypatch):
    def solve(rate, p, consts, init=None):
        raise MemoryError("scripted")

    monkeypatch.setattr(poisson, "solve", solve)
    with pytest.raises(MemoryError):
        rts_day(p, consts)


def rising_schedule():
    """A quiet first hour (20 veh/h), then 300 veh/h: vehicle 0's rate lies
    inside the day's range, so the walk runs both up and down from it."""
    return FlowSchedule(rows=tuple(
        (h, *((10.0, 10.0) if h == 0 else (150.0, 150.0))) for h in range(24)))


def estimator_rates(x_arr, spec):
    """Each vehicle's rate estimate written out as a scalar loop: the
    reciprocal of (1 - beta) times its last m_steps headways, newest first,
    weighted 1, beta, beta^2, ..."""
    gaps = x_arr.tolist()
    rates = []
    for k in range(len(gaps)):
        acc, weight = 0.0, 1.0
        for x in reversed(gaps[max(0, k + 1 - spec.m_steps) : k + 1]):
            acc += weight * x
            weight *= spec.beta
        rates.append(1.0 / ((1.0 - spec.beta) * acc))
    return rates


@pytest.mark.parametrize(
    "spec",
    [RealTimeStrategy(), RealTimeStrategy(beta=0.5, m_steps=7),
     RealTimeStrategy(beta=0.99, m_steps=500)],
    ids=["default", "short-window", "window-longer-than-day"],
)
def test_rts_rates_match_the_estimator(spec):
    _, x_arr = generate_arrivals(flat_schedule(173.0), 3, 3600.0)
    assert 50 < len(x_arr) < 500
    want = estimator_rates(x_arr, spec)
    got = rate_estimates(x_arr, spec.beta, spec.m_steps)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert got.item(0) == want[0]


@pytest.mark.parametrize("seed", [34, 53, 126])
def test_rts_first_rate_is_the_estimators_bit_for_bit(seed):
    # These days' first rates (15-34 veh/s) are the ones whose cold solve
    # exhausts a 1 GB address-space cap; the day must fail on that same call.
    _, x_arr = generate_arrivals(FlowSchedule.bundled().with_average_flow(173.0), seed)
    spec = RealTimeStrategy()
    want = estimator_rates(x_arr[:1], spec)[0]
    rate = rate_estimates(x_arr, spec.beta, spec.m_steps).item(0)
    assert rate == want > 10.0


def test_rts_rates_reject_a_non_positive_headway():
    with pytest.raises(ValueError, match="headway must be positive, got 0.0"):
        rate_estimates(np.array([3.0, 0.0, 2.0]), 0.9, 50)
    with pytest.raises(ValueError, match="headway must be positive, got nan"):
        rate_estimates(np.array([3.0, math.nan]), 0.9, 50)


def test_rts_empty_day(p, consts):
    result = simulate(flat_schedule(173.0), RealTimeStrategy(), p, consts, seed=0, duration=0.0)
    assert result.n_vehicles == len(result.records) == 0


@pytest.mark.parametrize("spec", [RealTimeStrategy()], ids=["eager"])
def test_rts_walks_up_and_down_as_the_reference(p, consts, spec):
    schedule = rising_schedule()
    _, x_arr = generate_arrivals(schedule, 1, 5400.0)
    rates = rate_estimates(x_arr, spec.beta, spec.m_steps)
    above = int(np.sum(rates > rates[0]))
    assert 10 < above < len(rates) - 10
    result = simulate(schedule, spec, p, consts, seed=1, duration=5400.0)
    assert [(r.theta, r.c) for r in result.records] == reference_rts(spec, x_arr, p, consts)


def test_rts_thresholds_match_a_tight_tolerance_reference(p, consts, monkeypatch):
    schedule = flat_schedule(173.0)
    result = simulate(schedule, RealTimeStrategy(), p, consts, seed=0, duration=1800.0)
    _, x_arr = generate_arrivals(schedule, 0, 1800.0)
    monkeypatch.setattr(poisson, "RESIDUAL_TOL", 1e-12)
    s, u = math.inf, 0.0
    for r, x, rate in zip(result.records, x_arr.tolist(),
                          estimator_rates(x_arr, RealTimeStrategy())):
        tight = poisson.solve(rate, p, consts)
        assert abs(r.theta - tight.theta) <= 1e-6
        assert abs(r.c - tight.c) <= 2e-4
        s = step_state(s, u, x)
        pair = PolicyB(policy=ThresholdPolicy(theta=tight.theta, c=tight.c))
        u, merged = oracle_decision(pair, s, x, p)
        assert r.merged == merged


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda v: PolicyA(tau=v), "tau must be finite"),
        (lambda v: PolicyB(policy=ThresholdPolicy(theta=v, c=-36.0)), "theta must be finite"),
        (lambda v: PolicyB(policy=ThresholdPolicy(theta=24.7, c=v)), "c must be finite"),
        (lambda v: RealTimeStrategy(beta=v), r"beta must lie in \(0, 1\)"),
    ],
    ids=["policy_a-tau", "policy_b-theta", "policy_b-c", "rts-beta"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_policy_specs_reject_non_finite_parameters(make, message, value):
    with pytest.raises(ValueError, match=message):
        make(value)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"beta": 0.0}, r"beta must lie in \(0, 1\)"),
        ({"beta": 1.0}, r"beta must lie in \(0, 1\)"),
        ({"m_steps": 0}, "m_steps must be >= 1"),
        ({"m_steps": 2.5}, "m_steps must be an integer"),
        ({"m_steps": True}, "m_steps must be an integer"),
        ({"m_steps": False}, "m_steps must be an integer"),
    ],
    ids=["beta-0", "beta-1", "m_steps-0", "m_steps-2.5", "m_steps-True", "m_steps-False"],
)
def test_real_time_strategy_rejects_out_of_range_parameters(kwargs, message):
    # Checked when the spec is made, not when a day starts.
    with pytest.raises(ValueError, match=message):
        RealTimeStrategy(**kwargs)


@pytest.mark.parametrize("duration", [-5.0, -1e-9, math.nan, math.inf, -math.inf])
def test_bad_duration_is_rejected(p, consts, duration):
    schedule = flat_schedule(173.0)
    with pytest.raises(ValueError, match="duration"):
        generate_arrivals(schedule, 0, duration)
    with pytest.raises(ValueError, match="duration"):
        simulate(schedule, Baseline(), p, consts, seed=0, duration=duration)
    with pytest.raises(ValueError, match="duration"):
        calibrate_policy_a(schedule, p, consts, seed=0, duration=duration)


def test_zero_duration_is_an_empty_day(p, consts):
    schedule = flat_schedule(173.0)
    result = simulate(schedule, PolicyA(tau=18.5), p, consts, seed=0, duration=0.0)
    assert result.n_vehicles == len(result.records) == 0
    assert list(result.records) == [] and result.records[:] == []
    assert (result.total_cost, result.total_fuel, result.total_time) == (0.0, 0.0, 0.0)
    assert (result.avg_cost, result.avg_cost_per_km, result.avg_fuel, result.avg_time) == (
        None, None, None, None)
    assert result.platoon_histogram == {}
    assert calibrate_policy_a(schedule, p, consts, seed=0, duration=0.0) == 0.0


ALL_POLICIES = [
    (Baseline(), 86400.0),
    (PolicyA(tau=18.5), 86400.0),
    (PolicyB(policy=ThresholdPolicy(theta=24.7, c=-36.0)), 86400.0),
    (RealTimeStrategy(), 1800.0),
]


def eager_records(schedule, policy, p, consts, seed, duration):
    """Every record built at once from the day's columns."""
    day = sim._run_day(*generate_arrivals(schedule, seed, duration), policy, p, consts)
    columns = (day.t, day.x, day.s, day.u, day.merged, day.speed, day.coord_fuel,
               day.cruise_fuel, day.travel_time, day.cost)
    return [
        sim.VehicleRecord(k, *row)
        for k, row in enumerate(zip(*(a.tolist() for a in columns), day.theta, day.c), start=1)
    ]


@pytest.fixture
def count_records(monkeypatch):
    """Route record construction through a counting subclass."""
    built = []

    class Counted(sim.VehicleRecord):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(sim, "VehicleRecord", Counted)
    return built


@pytest.mark.parametrize(
    "policy, duration", ALL_POLICIES, ids=lambda case: getattr(case, "name", None)
)
def test_records_are_built_only_when_read(p, consts, count_records, policy, duration):
    schedule = flat_schedule(173.0)
    result = simulate(schedule, policy, p, consts, seed=3, duration=duration)
    result.to_json()
    assert count_records == []
    records = result.records
    n = len(records)
    assert n == result.n_vehicles > 50
    assert count_records == []
    read = [dataclasses.astuple(r) for r in records]
    assert count_records == list(range(1, n + 1))
    eager = eager_records(schedule, policy, p, consts, 3, duration)
    assert read == [dataclasses.astuple(r) for r in eager]
    # Records compare as the list they hold, so equal results stay equal.
    again = simulate(schedule, policy, p, consts, seed=3, duration=duration)
    assert records == eager and again == result
    # Reading again builds new records with the same values.
    assert [dataclasses.astuple(r) for r in result.records] == read
    for i in (0, 1, n // 2, n - 1, -1, -n):
        assert dataclasses.astuple(records[i]) == read[i]
    assert [dataclasses.astuple(r) for r in records[5:40:3]] == read[5:40:3]
    assert [dataclasses.astuple(r) for r in records[::-1]] == read[::-1]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            records[i]


@pytest.mark.parametrize(
    "policy, duration", ALL_POLICIES, ids=lambda case: getattr(case, "name", None)
)
def test_totals_are_sums_of_the_records(p, consts, policy, duration):
    result = simulate(flat_schedule(173.0), policy, p, consts, seed=3, duration=duration)
    records = list(result.records)
    n = len(records)
    assert n == result.n_vehicles > 50

    def column(name):
        return np.array([getattr(r, name) for r in records])

    total_cost = float(column("cost").sum())
    total_fuel = float((column("coord_fuel") + column("cruise_fuel")).sum())
    total_time = float(column("travel_time").sum())
    span_km = (p.d1 + p.d2) / 1000.0
    sizes = []  # the first vehicle and every vehicle that does not merge lead a platoon
    for r in records:
        if r.k == 1 or not r.merged:
            sizes.append(1)
        else:
            sizes[-1] += 1
    assert len(set(sizes)) > 1
    got = (result.total_cost, result.total_fuel, result.total_time, result.avg_cost,
           result.avg_cost_per_km, result.avg_fuel, result.avg_time, result.platoon_histogram)
    want = (total_cost, total_fuel, total_time, total_cost / n, total_cost / (n * span_km),
            total_fuel / n, total_time / n, dict(Counter(sizes)))
    assert got == want


def per_record_csv(path, result):
    """The writer that formats one ``VehicleRecord`` at a time, kept as an oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "T", "X", "S", "U", "merged", "v_k", "fuel_L", "time_s", "cost"])
        for r in result.records:
            writer.writerow([
                r.k, f"{r.t:.6f}", f"{r.x:.6f}", f"{r.s:.6f}", f"{r.u:.6f}", int(r.merged),
                f"{r.speed:.6f}", f"{r.coord_fuel + r.cruise_fuel:.8f}",
                f"{r.travel_time:.6f}", f"{r.cost:.8f}",
            ])


@pytest.mark.parametrize(
    "policy, duration", ALL_POLICIES, ids=lambda case: getattr(case, "name", None)
)
def test_vehicle_csv_matches_per_record_writer(tmp_path, p, consts, policy, duration):
    result = simulate(flat_schedule(173.0), policy, p, consts, seed=3, duration=duration)
    write_vehicle_csv(tmp_path / "columns.csv", result)
    per_record_csv(tmp_path / "records.csv", result)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()


def merge_speed(u, p):
    """Spatial-average coordinating-zone speed d1 / (t0 - u) for time
    reduction u, as the decision oracle below computes it."""
    denom = p.d1 / p.v - u
    if denom <= 0.0:
        raise ValueError(f"time reduction {u!r} implies non-positive traversal time")
    return p.d1 / denom


def oracle_decision(policy, s, x, p):
    """One vehicle's (U, merged) written out per policy through ``merge_speed``,
    as the day loop decided before its rules were bound once per day."""
    if isinstance(policy, Baseline):
        return 0.0, 0.0 <= s <= SAFETY_REACTION_TIME
    if isinstance(policy, PolicyA):
        if x < policy.tau and 0.0 <= s < p.t0 and merge_speed(s, p) <= MAX_SPEED:
            return s, True
        return 0.0, False
    pol = policy.policy
    if s <= pol.theta:
        u = s - SAFETY_REACTION_TIME
        if merge_speed(u, p) <= MAX_SPEED:
            return u, True
    return pol.c, False


def outcome(decide, *args):
    """A decision's answer, or its error's type and message."""
    try:
        return decide(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def edge_states(p):
    """Headways at every boundary the fixed rules test, with their neighbours."""
    cap_s = p.t0 - p.d1 / MAX_SPEED  # Policy A merges up to this headway
    points = [0.0, SAFETY_REACTION_TIME, cap_s, cap_s + SAFETY_REACTION_TIME, p.t0,
              p.t0 + SAFETY_REACTION_TIME, 20.0, 24.7, 30.0]
    states = [-0.5, 1.0, 10.0, 60.0]
    for point in points:
        states += [np.nextafter(point, -math.inf), point, np.nextafter(point, math.inf)]
    return [float(s) for s in states]


FIXED_POLICIES = [
    Baseline(),
    PolicyA(tau=18.5),
    PolicyA(tau=0.0),
    PolicyB(policy=ThresholdPolicy(theta=24.7, c=-36.0)),
    PolicyB(policy=ThresholdPolicy(theta=100.0, c=-36.0)),  # merges past t0 raise
    PolicyB(policy=ThresholdPolicy(theta=-5.0, c=50.0)),
    PolicyB(policy=ThresholdPolicy(theta=20.0, c=-0.5)),  # merges up to theta under the cap
]


def fixed_policy_id(policy):
    if isinstance(policy, PolicyA):
        return f"policy_a-{policy.tau}"
    if isinstance(policy, PolicyB):
        return f"policy_b-{policy.policy.theta}-{policy.policy.c}"
    return policy.name


@pytest.mark.parametrize("policy", FIXED_POLICIES, ids=fixed_policy_id)
def test_fixed_rules_match_the_per_vehicle_decision(p, policy):
    rule, *bound = sim._decision_rule(policy, p)
    thresholds = (
        (policy.policy.theta, policy.policy.c) if isinstance(policy, PolicyB) else (None, None)
    )
    assert tuple(bound) == thresholds
    for s in edge_states(p):
        for x in (s, 1.0, 18.5, 40.0):
            want = outcome(oracle_decision, policy, s, x, p)
            assert outcome(rule, s, x) == want
            got = outcome(apply_policy, policy, s, x, p)
            assert got == (want if want[0] is ValueError else (*want, *thresholds))


def test_fixed_rule_boundaries(p):
    below_t0 = float(np.nextafter(p.t0, 0.0))
    # Policy A just below t0 needs a speed far above the cap: it cruises.
    assert apply_policy(PolicyA(tau=18.5), below_t0, 1.0, p) == (0.0, False, None, None)
    assert apply_policy(PolicyA(tau=18.5), p.t0, 1.0, p) == (0.0, False, None, None)
    # Baseline merges at exactly the safety reaction time, not beyond it.
    assert apply_policy(Baseline(), SAFETY_REACTION_TIME, 9.0, p)[:2] == (0.0, True)
    above = float(np.nextafter(SAFETY_REACTION_TIME, math.inf))
    assert apply_policy(Baseline(), above, 9.0, p)[:2] == (0.0, False)
    # Policy B falls back to cruising once merging would exceed the speed cap.
    cap_s = p.t0 - p.d1 / MAX_SPEED + SAFETY_REACTION_TIME
    rule = sim._threshold_rule(30.0, -36.0, p)
    assert rule(cap_s - 1e-6, 9.0)[1] is True
    assert rule(cap_s + 1e-6, 9.0) == (-36.0, False)
    with pytest.raises(ValueError, match="non-positive traversal time"):
        sim._threshold_rule(100.0, -36.0, p)(46.0, 9.0)


def test_apply_policy_rejects_the_real_time_strategy(p):
    with pytest.raises(ValueError, match="need a day's thresholds"):
        apply_policy(RealTimeStrategy(), 10.0, 10.0, p)


def test_decision_rule_rejects_the_real_time_strategy(p):
    with pytest.raises(ValueError) as want:
        apply_policy(RealTimeStrategy(), 10.0, 10.0, p)
    with pytest.raises(ValueError) as got:
        sim._decision_rule(RealTimeStrategy(), p)
    assert str(got.value) == str(want.value)
    with pytest.raises(TypeError, match="unknown policy spec"):
        sim._decision_rule("policy_a", p)


def oracle_day(x_arr, policy, p):
    """(S, U, merged) per vehicle from ``step_state`` and ``oracle_decision``."""
    rows, s, u = [], math.inf, 0.0
    for x in x_arr.tolist():
        s = step_state(s, u, x)
        u, merged = oracle_decision(policy, s, x, p)
        rows.append((s, u, merged))
    return rows


@pytest.mark.parametrize(
    "policy, message",
    [
        (PolicyB(policy=ThresholdPolicy(theta=24.7, c=50.0)),
         "applied time reduction cannot exceed the headway"),
        (PolicyB(policy=ThresholdPolicy(theta=100.0, c=-36.0)),
         "implies non-positive traversal time"),
    ],
    ids=["c-above-headway", "merge-past-t0"],
)
def test_day_errors_match_the_per_vehicle_loop(p, consts, policy, message):
    schedule = flat_schedule(173.0)
    _, x_arr = generate_arrivals(schedule, 3, 86400.0)
    with pytest.raises(ValueError, match=message) as want:
        oracle_day(x_arr, policy, p)
    with pytest.raises(ValueError, match=message) as got:
        simulate(schedule, policy, p, consts, seed=3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("policy", FIXED_POLICIES[:4], ids=fixed_policy_id)
def test_fixed_policy_days_match_the_per_vehicle_loop(p, consts, policy):
    schedule = FlowSchedule.bundled().with_average_flow(600.0)
    for seed in range(2):
        _, x_arr = generate_arrivals(schedule, seed)
        result = simulate(schedule, policy, p, consts, seed)
        assert [(r.s, r.u, r.merged) for r in result.records] == oracle_day(x_arr, policy, p)


def oracle_run_day(t_arr, x_arr, policy, p, consts):
    """``_run_day`` for a fixed policy with the decisions of ``oracle_day``,
    one vehicle at a time, and the day's costs on arrays."""
    rows = oracle_day(x_arr, policy, p)
    s, u = (np.array([row[i] for row in rows], float) for i in (0, 1))
    merged = np.array([row[2] for row in rows], bool)
    n = len(rows)
    _, theta, c = sim._decision_rule(policy, p)
    return sim.VehicleRecords(t_arr, x_arr, s, u, merged, *sim._vehicle_costs(u, merged, p),
                              [theta] * n, [c] * n)


@pytest.mark.parametrize("vehicles", ["day", "empty", "one"])
def test_baseline_array_day_matches_the_per_vehicle_loop(tmp_path, monkeypatch, p, consts,
                                                         vehicles):
    schedule = FlowSchedule.bundled().with_average_flow(1500.0)
    t_arr, _ = generate_arrivals(schedule, 3)
    # Up to the second arrival time only the first vehicle arrives.
    duration = {"day": 86400.0, "empty": 0.0, "one": float(t_arr[1])}[vehicles]
    results = [simulate(schedule, Baseline(), p, consts, 3, duration)]
    monkeypatch.setattr(sim, "_run_day", oracle_run_day)
    results.append(simulate(schedule, Baseline(), p, consts, 3, duration))
    got, want = results
    assert got.n_vehicles == {"day": len(t_arr), "empty": 0, "one": 1}[vehicles]
    assert got.to_json() == want.to_json()
    assert ([dataclasses.astuple(r) for r in got.records]
            == [dataclasses.astuple(r) for r in want.records])
    write_vehicle_csv(tmp_path / "got.csv", got)
    write_vehicle_csv(tmp_path / "want.csv", want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_baseline_array_day_at_the_rule_boundaries(p, consts):
    # Gaps at and beside SAFETY_REACTION_TIME and every other edge the rules test.
    x_arr = np.array([s for s in edge_states(p) if s >= 0.0])
    t_arr = np.cumsum(x_arr)
    got = sim._run_day(t_arr, x_arr, Baseline(), p, consts)
    want = oracle_run_day(t_arr, x_arr, Baseline(), p, consts)
    assert list(got.rows()) == list(want.rows())
    assert got.merged[x_arr == SAFETY_REACTION_TIME].all()
    assert not got.merged[x_arr > SAFETY_REACTION_TIME].any()


def test_calibration_at_gap_valued_taus(p, consts):
    # Thresholds equal to observed gaps sit exactly on the (x < tau) boundary.
    _, x_arr = generate_arrivals(flat_schedule(200.0), 0, 21600.0)
    gaps = np.sort(x_arr[(x_arr > 2.0) & (x_arr < 30.0)])
    check_calibration(p, consts, 200.0, np.concatenate(([0.0], gaps[::25])))
