"""Discrete-event junction simulation with renewal arrivals and
per-vehicle platooning policies.

Arrivals are generated per hour from a flow schedule (merged Poisson
stream of both branches); the predicted-headway state propagates through
S_{k+1} = X_{k+1} + U_k with the realized time reduction U_k. Decisions
are made one vehicle at a time through a decision rule bound once per day,
or, under the real-time strategy, per vehicle to thresholds solved from the
day's headways before any vehicle decides; Baseline, whose U is always 0,
decides the whole day at once on arrays; fuel, time and cost are then
accounted for the whole day at once, on arrays, and vehicle records are
built only when they are read.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat, starmap

import numpy as np

from .arrivals import RNG_ALGORITHM, check_window, make_rng, rate_estimates
from .cost import CostConstants, CostParams
from .dp import SolverError, ThresholdPolicy
from . import poisson

SAFETY_REACTION_TIME = 2.3  # s, follower arrives this late when merging
MAX_SPEED = 40.0  # m/s, freeway speed cap
FUEL_LINEAR = 4.07e-4  # L/s per (m/s)

DEFAULT_SCHEDULE_RESOURCE = "i210_134_hourly_flows.csv"

# Bounds on one run's size, checked before any arrival is drawn: a day of
# the bundled schedule at full scale expects about 1.04e5 vehicles.
MAX_RUN_HOURS = 24 * 366
MAX_EXPECTED_ARRIVALS = 10**7


def fuel_rate(speed: float, p: CostParams) -> float:
    """Fuel burn [L/s] at a given speed [m/s]: the cost model's cubic term
    alpha * speed^3 plus a linear term that no decision changes."""
    return p.alpha * speed**3 + FUEL_LINEAR * speed


@dataclass(frozen=True)
class FlowSchedule:
    """Hourly two-branch flows plus the coordinable-vehicle scale factor."""

    rows: tuple[tuple[int, float, float], ...]
    scale: float = 1.0

    def __post_init__(self):
        if len(self.rows) != 24:
            raise ValueError(f"expected 24 hourly rows, got {len(self.rows)}")
        if [hour for hour, _, _ in self.rows] != list(range(24)):
            raise ValueError("schedule rows must list hours 0..23 in order")
        for hour, f1, f2 in self.rows:
            # The merged flow must stay finite too: a rate of inf breaks the day.
            if not (f1 >= 0.0 and f2 >= 0.0 and math.isfinite(f1 + f2)):
                raise ValueError(
                    f"hour {hour}: flows must be finite and non-negative, got {f1!r}, {f2!r}"
                )
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale!r}")

    def rate_at(self, t: float) -> float:
        """Merged coordinable arrival rate [veh/s] at simulation time t."""
        hour = int(t // 3600.0) % 24
        _, f1, f2 = self.rows[hour]
        return self.scale * (f1 + f2) / 3600.0

    def average_flow(self) -> float:
        """Scaled average merged flow [veh/hour]."""
        return self.scale * sum(f1 + f2 for _, f1, f2 in self.rows) / len(self.rows)

    def with_scale(self, scale: float) -> "FlowSchedule":
        return FlowSchedule(rows=self.rows, scale=scale)

    def with_average_flow(self, flow_vph: float) -> "FlowSchedule":
        base = sum(f1 + f2 for _, f1, f2 in self.rows) / len(self.rows)
        if base == 0.0:
            raise ValueError("cannot rescale a schedule with no flow")
        scale = flow_vph / base
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"average flow must lie in (0, {base!r}] veh/h for this "
                             f"schedule, got {flow_vph!r}")
        return self.with_scale(scale)

    @classmethod
    def from_csv(cls, path) -> "FlowSchedule":
        with open(path, newline="") as fh:
            return cls._parse(fh)

    @classmethod
    def bundled(cls) -> "FlowSchedule":
        """The packaged I-210/134 hourly flow table."""
        ref = resources.files("platooncoord.data") / DEFAULT_SCHEDULE_RESOURCE
        with ref.open("r", newline="") as fh:
            return cls._parse(fh)

    @classmethod
    def _parse(cls, fh) -> "FlowSchedule":
        reader = csv.DictReader(fh)
        expected = sorted(["hour", "flow1_vph", "flow2_vph"])
        # Each name once: a repeated column would let its last field win.
        if reader.fieldnames is None or sorted(reader.fieldnames) != expected:
            raise ValueError(
                f"schedule CSV must have columns {expected}, each once; got {reader.fieldnames}"
            )
        rows = []
        for row in reader:
            try:
                # DictReader fills a short row with None and keys a long
                # row's extra fields by None.
                if None in row or None in row.values():
                    raise ValueError(f"expected the 3 fields {', '.join(reader.fieldnames)}")
                rows.append((int(row["hour"]), float(row["flow1_vph"]), float(row["flow2_vph"])))
            except ValueError as exc:
                raise ValueError(f"schedule CSV line {reader.line_num}: {exc}") from None
        return cls(rows=tuple(rows))


@dataclass(frozen=True)
class Baseline:
    """No speed adaptation; platoons only form by chance within the safety
    reaction time."""

    name: str = field(default="baseline", init=False)


@dataclass(frozen=True)
class PolicyA:
    """Inter-arrival threshold policy, acceleration only."""

    tau: float
    name: str = field(default="policy_a", init=False)

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau!r}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau!r}")


@dataclass(frozen=True)
class PolicyB:
    """Static threshold policy (theta, c) on the predicted headway."""

    policy: ThresholdPolicy
    name: str = field(default="policy_b", init=False)

    def __post_init__(self):
        for name in ("theta", "c"):
            value = getattr(self.policy, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RealTimeStrategy:
    """Per-vehicle re-estimated arrival rate with a warm-started re-solve
    of the closed-form threshold equations."""

    beta: float = 0.9
    m_steps: int = 50
    name: str = field(default="rts", init=False)

    def __post_init__(self):
        check_window(self.beta, self.m_steps)


PolicySpec = Baseline | PolicyA | PolicyB | RealTimeStrategy


@dataclass(slots=True)
class VehicleRecord:
    k: int
    t: float
    x: float
    s: float
    u: float
    merged: bool
    speed: float
    coord_fuel: float
    cruise_fuel: float
    travel_time: float
    cost: float
    theta: float | None = None
    c: float | None = None


class VehicleRecords(Sequence):
    """One simulated day, in arrival order: an attribute per ``VehicleRecord``
    field after k, given in field order, arrays up to ``cost`` and lists for
    ``theta`` and ``c``. Each record is built when it is read; none is kept."""

    def __init__(self, *columns):
        (self.t, self.x, self.s, self.u, self.merged, self.speed, self.coord_fuel,
         self.cruise_fuel, self.travel_time, self.cost, self.theta, self.c) = columns
        self._arrays = columns[:-2]

    def __len__(self) -> int:
        return len(self.theta)

    def rows(self) -> Iterator[tuple]:
        """Each record's field values in order, as plain Python values,
        without building the records."""
        lists = [a.tolist() for a in self._arrays]
        return zip(range(1, len(self) + 1), *lists, self.theta, self.c)

    def __iter__(self) -> Iterator[VehicleRecord]:
        return starmap(VehicleRecord, self.rows())

    def __eq__(self, other) -> bool:
        # Equal to the same records as a list, so equal results stay equal.
        if isinstance(other, (VehicleRecords, list)):
            return list(self) == list(other)
        return NotImplemented

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError("vehicle record index out of range")
        return VehicleRecord(i + 1, *(a.item(i) for a in self._arrays),
                             self.theta[i], self.c[i])


@dataclass
class SimulationResult:
    policy_id: str
    seed: int
    rng_algorithm: str
    records: VehicleRecords
    n_vehicles: int
    total_cost: float
    total_fuel: float
    total_time: float
    avg_cost: float | None
    avg_cost_per_km: float | None
    avg_fuel: float | None
    avg_time: float | None
    platoon_histogram: dict[int, int]

    def to_json(self) -> dict:
        return {
            "policy": self.policy_id,
            "seed": self.seed,
            "rng": self.rng_algorithm,
            "n_vehicles": self.n_vehicles,
            "total_cost": self.total_cost,
            "total_fuel_l": self.total_fuel,
            "total_time_s": self.total_time,
            "avg_cost": self.avg_cost,
            "avg_cost_per_km": self.avg_cost_per_km,
            "avg_fuel_l": self.avg_fuel,
            "avg_time_s": self.avg_time,
            "platoon_histogram": {str(k): v for k, v in sorted(self.platoon_histogram.items())},
        }


def generate_arrivals(
    schedule: FlowSchedule, seed: int, duration: float = 86400.0
) -> tuple[np.ndarray, np.ndarray]:
    """Detector times T_k and gaps X_k of the merged coordinable stream.

    Each hour is an independent Poisson stream at that hour's scaled rate;
    restriction and restart at hour boundaries leave the process exact.
    Raises ``ValueError`` before drawing if the run spans more than
    ``MAX_RUN_HOURS`` hours or expects more than ``MAX_EXPECTED_ARRIVALS``
    arrivals.
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be finite and >= 0, got {duration!r}")
    n_hours = int(math.ceil(duration / 3600.0))
    if n_hours > MAX_RUN_HOURS:
        raise ValueError(
            f"duration {duration!r} s spans {n_hours} hours, above MAX_RUN_HOURS = {MAX_RUN_HOURS}"
        )
    hours = []
    for hour in range(n_hours):
        start = 3600.0 * hour
        end = min(start + 3600.0, duration)
        rate = schedule.rate_at(start)
        if rate > 0.0:
            hours.append((start, end, rate, (end - start) * rate))
    expected = sum(mean for *_, mean in hours)
    if expected > MAX_EXPECTED_ARRIVALS:
        raise ValueError(
            f"the run expects {expected:.4g} arrivals, above "
            f"MAX_EXPECTED_ARRIVALS = {MAX_EXPECTED_ARRIVALS}"
        )
    rng = make_rng(seed)
    chunks: list[np.ndarray] = []
    for start, end, rate, mean in hours:
        batch = int(mean + 6.0 * math.sqrt(mean)) + 8  # rarely exceeded
        chunks.append(_hour_arrivals(rng, start, end, rate, batch))
    t_arr = np.concatenate(chunks) if chunks else np.array([])
    x_arr = np.diff(t_arr, prepend=0.0)
    return t_arr, x_arr


def _hour_arrivals(rng: np.random.Generator, start: float, end: float,
                   rate: float, batch: int) -> np.ndarray:
    """Arrival times in [start, end) at ``rate``, bit for bit those of
    drawing one exponential gap at a time from ``start`` until a time
    reaches ``end``, and leaving ``rng`` where those draws leave it.

    Gaps are drawn ``batch`` at a time and summed in order (as t += gap);
    the stream is then rewound and advanced by exactly the m + 1 draws of
    the one-at-a-time loop: the m arrivals and the gap past ``end``.
    """
    scale = 1.0 / rate
    state = rng.bit_generator.state
    times = np.array([start])
    while times[-1] < end:
        gaps = rng.exponential(scale, size=batch)
        gaps[0] += times[-1]
        times = np.concatenate((times, np.cumsum(gaps)))
    m = int(np.searchsorted(times, end)) - 1
    rng.bit_generator.state = state
    rng.exponential(scale, size=m + 1)
    return times[1 : m + 1]


def step_state(prev_s: float, applied_u: float, next_x: float) -> float:
    """Predicted-headway recursion S_{k+1} = X_{k+1} + U_k."""
    if applied_u > prev_s + 1e-9:
        raise ValueError("applied time reduction cannot exceed the headway")
    return next_x + applied_u


_Rule = Callable[[float, float], tuple[float, bool]]
"""One vehicle's decision: (S_k, X_k) -> realized (U_k, merged)."""


def _threshold_rule(theta: float, c: float, p: CostParams) -> _Rule:
    """Realized (U, merged) for the threshold pair (theta, c), including the
    safety buffer on merges and the speed-cap fallback to cruising, with the
    constants bound; a merge's coordinating-zone speed is d1 / (t0 - u)."""
    t0, d1 = p.t0, p.d1
    reaction, cap = SAFETY_REACTION_TIME, MAX_SPEED

    def rule(s, x):
        if s <= theta:
            u = s - reaction
            denom = t0 - u
            if denom <= 0.0:
                raise ValueError(f"time reduction {u!r} implies non-positive traversal time")
            if d1 / denom <= cap:
                return u, True
        return c, False

    return rule


def _policy_a_rule(tau: float, p: CostParams) -> _Rule:
    """Merge by accelerating the whole predicted headway when the gap is
    below tau and the merge speed d1 / (t0 - s) stays under the cap. With
    0 <= s < t0 that traversal time is positive."""
    t0, d1 = p.t0, p.d1
    cap = MAX_SPEED

    def rule(s, x):
        if x < tau and 0.0 <= s < t0 and d1 / (t0 - s) <= cap:
            return s, True
        return 0.0, False

    return rule


def _baseline_rule(s, x):
    """U is always 0; merged when 0 <= S <= SAFETY_REACTION_TIME. On floats,
    or elementwise on arrays of S."""
    return 0.0, (0.0 <= s) & (s <= SAFETY_REACTION_TIME)


def _decision_rule(policy: PolicySpec, p: CostParams
                   ) -> tuple[_Rule, float | None, float | None]:
    """A fixed (non-adaptive) policy's rule, bound once per day, and the
    (theta_k, c_k) it records for every vehicle."""
    if isinstance(policy, Baseline):
        return _baseline_rule, None, None
    if isinstance(policy, PolicyA):
        return _policy_a_rule(policy.tau, p), None, None
    if isinstance(policy, PolicyB):
        theta, c = policy.policy.theta, policy.policy.c
        return _threshold_rule(theta, c, p), theta, c
    if isinstance(policy, RealTimeStrategy):
        raise ValueError("real-time strategy decisions need a day's thresholds; use simulate")
    raise TypeError(f"unknown policy spec: {policy!r}")


def _vehicle_costs(u, merged, p: CostParams):
    """Speed, coordinating-zone fuel, cruise fuel, travel time and cost for
    a scalar or an array of realized time reductions u and merge flags.

    Raises ``ValueError`` if any u leaves a non-positive traversal time or
    a speed above the cap.
    """
    traversal = p.d1 / p.v - u
    if np.any(traversal <= 0.0):
        raise ValueError(
            f"time reduction {float(np.max(u))!r} implies non-positive traversal time"
        )
    speed = p.d1 / traversal
    if np.any(speed > MAX_SPEED + 1e-9):
        raise ValueError(f"speed {float(np.max(speed))!r} exceeds the cap {MAX_SPEED!r}")
    coord_time = p.d1 / speed
    coord_fuel = coord_time * fuel_rate(speed, p)
    cruise_time = p.d2 / p.v
    # Merged vehicles save the fraction eta of the cruise fuel; 1.0 - eta * False
    # is exactly 1.0, so cruising vehicles keep the undiscounted value.
    cruise_fuel = cruise_time * fuel_rate(p.v, p) * (1.0 - p.eta * merged)
    travel_time = coord_time + cruise_time
    cost = p.w2 * (coord_fuel + cruise_fuel) + p.w1 * travel_time
    return speed, coord_fuel, cruise_fuel, travel_time, cost


def account_costs(
    k: int,
    t: float,
    x: float,
    s: float,
    u: float,
    merged: bool,
    p: CostParams,
) -> VehicleRecord:
    """Complete a vehicle record from its realized time reduction."""
    return VehicleRecord(k, t, x, s, u, merged, *_vehicle_costs(u, merged, p))


def _secant_start(good: list[poisson.PoissonSolution], rate: float,
                  consts: CostConstants) -> tuple[float, float]:
    """The warm start at ``rate`` along a walk: the secant through the last
    two solutions, extrapolated to ``rate`` and clamped to the proven bounds,
    or the last solution alone when there is one or both share a rate."""
    last = good[-1]
    if len(good) < 2 or good[0].rate == last.rate:
        return last.theta, last.c
    prev = good[0]
    t = (rate - last.rate) / (last.rate - prev.rate)
    theta = last.theta + t * (last.theta - prev.theta)
    c = last.c + t * (last.c - prev.c)
    return (min(max(theta, consts.c_n), consts.theta_n),
            min(max(c, consts.theta_n_prime), consts.c_n))


def _rts_thresholds(gaps: np.ndarray, spec: RealTimeStrategy, p: CostParams,
                    consts: CostConstants) -> tuple[list[float], list[float]]:
    """Every vehicle's (theta_k, c_k) under the real-time strategy. The rate
    estimate reads headways, never decisions, so the whole day's thresholds
    are solved before any vehicle decides.

    Vehicle 0 solves cold at its rate. The other vehicles are solved along
    the day's sorted rates, walking up and then down from vehicle 0's rank,
    as predictor-corrector continuation: each solve starts from the secant
    of the last two solutions along the walk (``_secant_start``) and, if
    that fails, retries cold once. When no start converges the vehicle
    keeps the walk's last good (theta, c), or (theta_n, c_n) before the
    first success, and the day goes on."""
    n = len(gaps)
    theta_k, c_k = [consts.theta_n] * n, [consts.c_n] * n
    if n == 0:
        return theta_k, c_k
    rates = rate_estimates(gaps, spec.beta, spec.m_steps).tolist()

    def solve(rate: float, starts) -> poisson.PoissonSolution | None:
        for init in starts:
            try:
                return poisson.solve(rate, p, consts, init=init)
            except SolverError:
                pass  # A bad warm start can strand the iteration; retry cold once.
        return None

    anchor = solve(rates[0], (None,))
    if anchor is not None:
        theta_k[0], c_k[0] = anchor.theta, anchor.c
    order = np.argsort(rates, kind="stable").tolist()
    rank = order.index(0)
    for walk in (order[rank + 1 :], order[:rank][::-1]):
        good = [] if anchor is None else [anchor]  # the last two solutions along this walk
        for k in walk:
            rate = rates[k]
            sol = solve(rate, (_secant_start(good, rate, consts), None) if good else (None,))
            if sol is not None:
                good = [*good[-1:], sol]
            if good:
                theta_k[k], c_k[k] = good[-1].theta, good[-1].c
    return theta_k, c_k


def apply_policy(
    policy: PolicySpec, s: float, x: float, p: CostParams
) -> tuple[float, bool, float | None, float | None]:
    """Realized (U, merged, theta_k, c_k) for one vehicle under a fixed policy."""
    rule, theta, c = _decision_rule(policy, p)
    return (*rule(s, x), theta, c)


def simulate(
    schedule: FlowSchedule,
    policy: PolicySpec,
    p: CostParams,
    consts: CostConstants,
    seed: int,
    duration: float = 86400.0,
) -> SimulationResult:
    """Run a single-junction day (or ``duration`` seconds) under one policy."""
    t_arr, x_arr = generate_arrivals(schedule, seed, duration)
    records = _run_day(t_arr, x_arr, policy, p, consts)
    n = len(records)
    total_cost = float(records.cost.sum())
    total_fuel = float((records.coord_fuel + records.cruise_fuel).sum())
    total_time = float(records.travel_time.sum())
    span_km = (p.d1 + p.d2) / 1000.0
    # Platoon sizes: the first vehicle and every vehicle that does not merge lead one.
    leaders = np.flatnonzero(np.concatenate(([True], ~records.merged[1:])))
    sizes, counts = np.unique(np.diff(leaders, append=n), return_counts=True)
    return SimulationResult(
        policy_id=policy.name,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        records=records,
        n_vehicles=n,
        total_cost=total_cost,
        total_fuel=total_fuel,
        total_time=total_time,
        avg_cost=total_cost / n if n else None,
        avg_cost_per_km=total_cost / (n * span_km) if n else None,
        avg_fuel=total_fuel / n if n else None,
        avg_time=total_time / n if n else None,
        platoon_histogram=dict(zip(sizes.tolist(), counts.tolist())) if n else {},
    )


def _run_day(t_arr: np.ndarray, x_arr: np.ndarray, policy: PolicySpec, p: CostParams,
             consts: CostConstants) -> VehicleRecords:
    """The records of ``simulate``'s day over given detector times and gaps:
    one sequential decision per vehicle through a rule bound once for the
    day (per vehicle to its solved thresholds under the real-time strategy),
    or, for Baseline, every decision at once on arrays, then the costs of
    the whole day at once."""
    n = len(x_arr)
    if isinstance(policy, RealTimeStrategy):
        theta_k, c_k = _rts_thresholds(x_arr, policy, p, consts)
        rules = map(_threshold_rule, theta_k, c_k, repeat(p))

        def rule(s, x):  # vehicle k decides through its own (theta_k, c_k)
            return next(rules)(s, x)
    else:
        rule, theta, c = _decision_rule(policy, p)
        theta_k, c_k = [theta] * n, [c] * n
    if rule is _baseline_rule:
        # Baseline's U is always 0, so S = X + 0 and no decision reads another.
        s_arr, u_arr = x_arr + 0.0, np.zeros(n)
        merged_arr = _baseline_rule(s_arr, x_arr)[1]
    else:
        s_k: list[float] = []
        u_k: list[float] = []
        merged_k: list[bool] = []
        # Before the first vehicle, S = inf and U = 0 make the recursion S_1 = X_1.
        s, u = math.inf, 0.0
        for x in x_arr.tolist():
            s = step_state(s, u, x)
            u, merged = rule(s, x)
            s_k.append(s)
            u_k.append(u)
            merged_k.append(merged)
        s_arr = np.fromiter(s_k, float, n)
        u_arr = np.fromiter(u_k, float, n)
        merged_arr = np.fromiter(merged_k, bool, n)
    return VehicleRecords(t_arr, x_arr, s_arr, u_arr, merged_arr,
                          *_vehicle_costs(u_arr, merged_arr, p), theta_k, c_k)


def calibrate_policy_a(
    schedule: FlowSchedule,
    p: CostParams,
    consts: CostConstants,
    seed: int,
    duration: float = 86400.0,
    taus: np.ndarray | None = None,
) -> float:
    """Grid-search the inter-arrival threshold minimizing simulated average
    cost on a calibration run at the given flow; every tau sees the same
    arrivals, generated once, and no vehicle records are built. The first
    tau listed wins a tie."""
    if taus is None:
        taus = np.arange(0.0, 30.0 + 1e-9, 0.5)
    if len(taus) == 0:
        raise ValueError("taus must hold at least one threshold")
    _, x_arr = generate_arrivals(schedule, seed, duration)
    best_tau = float(taus[0])
    best_ac = math.inf
    for tau, avg_cost in zip(taus, _policy_a_average_costs(x_arr, taus, p)):
        if avg_cost is not None and avg_cost < best_ac:
            best_ac = avg_cost
            best_tau = float(tau)
    return best_tau


def _policy_a_average_costs(x_arr: np.ndarray, taus, p: CostParams) -> list[float | None]:
    """``simulate``'s average cost under ``PolicyA(tau)`` for the day of gaps
    ``x_arr``, for each tau in order, bit for bit, from the day on which no
    vehicle merges (U = 0 and merged = False throughout), which is Policy
    A's day at tau = -inf.

    Moving the threshold from tau_prev to tau changes Policy A's answer for a
    given S only at vehicles whose gap x has (x < tau_prev) != (x < tau).
    From each such vehicle the day is re-decided, with S = X + U of the
    vehicle before, until a vehicle's (U, merged) equals the previous day's:
    from there every S, and so every decision, agrees again up to the next
    such vehicle. The re-decided vehicles of every tau are priced in one
    call; each tau then writes its own into the day's costs and sums them."""
    gaps = x_arr.tolist()
    n = len(gaps)
    u_k, merged_k = [0.0] * n, [False] * n
    # Every tau's re-decided vehicles and their (U, merged), one tau after another.
    changed: list[int] = []
    new_u_k: list[float] = []
    new_merged_k: list[bool] = []
    ends: list[int] = []  # where each tau's vehicles end in ``changed``
    prev_tau = -math.inf
    for tau in taus:
        tau = PolicyA(tau=float(tau)).tau  # checked as a policy's tau
        rule = _policy_a_rule(tau, p)
        flips = np.flatnonzero((x_arr < prev_tau) != (x_arr < tau)).tolist()
        redecided_to = 0  # vehicles before this one already hold this tau's decision
        for k in flips:
            if k < redecided_to:
                continue
            prev_u = u_k[k - 1] if k else 0.0
            for j in range(k, n):
                x = gaps[j]
                new_u, new_merged = rule(x + prev_u, x)
                if new_u == u_k[j] and new_merged == merged_k[j]:
                    break
                u_k[j], merged_k[j] = new_u, new_merged
                prev_u = new_u
                changed.append(j)
                new_u_k.append(new_u)
                new_merged_k.append(new_merged)
            redecided_to = j + 1
        ends.append(len(changed))
        prev_tau = tau
    cost = _vehicle_costs(np.zeros(n), np.zeros(n, bool), p)[-1]
    new_cost = _vehicle_costs(np.array(new_u_k), np.array(new_merged_k, bool), p)[-1]
    averages = []
    start = 0
    for end in ends:
        cost[changed[start:end]] = new_cost[start:end]
        averages.append(float(cost.sum()) / n if n else None)
        start = end
    return averages


def write_vehicle_csv(path, result: SimulationResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "T", "X", "S", "U", "merged", "v_k", "fuel_L", "time_s", "cost"]
        )
        for (k, t, x, s, u, merged, speed, coord_fuel, cruise_fuel, travel_time, cost,
             _, _) in result.records.rows():
            writer.writerow(
                [
                    k,
                    f"{t:.6f}",
                    f"{x:.6f}",
                    f"{s:.6f}",
                    f"{u:.6f}",
                    int(merged),
                    f"{speed:.6f}",
                    f"{coord_fuel + cruise_fuel:.8f}",
                    f"{travel_time:.6f}",
                    f"{cost:.8f}",
                ]
            )
