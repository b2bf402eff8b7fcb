"""The three benchmark workloads, driven through platooncoord's public API.

Each workload is built once from the workload seed (its set-up) and then
runs numbered operations: ``run(i)`` is the timed call into the package and
``check(i, out)`` validates its output afterwards, outside the timed region.
Every call into the package goes through a module attribute, so the wrappers
that ``tracing`` installs see it.
"""

from __future__ import annotations

import importlib
import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

import platooncoord
import platooncoord.cli  # noqa: F401  (imported for set-up cost, as the CLI would be)

cost = importlib.import_module("platooncoord.cost")
dp = importlib.import_module("platooncoord.dp")
poisson = importlib.import_module("platooncoord.poisson")
# ``platooncoord.simulate`` is the function of that name, not the module.
sim = importlib.import_module("platooncoord.simulate")

# Captured before any tracing wrapper is installed: the checks must not be
# traced or timed as part of an operation.
_generate_arrivals = sim.generate_arrivals

AVERAGE_FLOW_VPH = 173.0
BVI_EPSILON = 0.002
# Policy A calibration grid; this is calibrate_policy_a's default, passed
# explicitly so the vehicle count of an operation is known.
CALIBRATION_TAUS = np.arange(0.0, 30.0 + 1e-9, 0.5)
POLICY_B_RATE = 0.02
RATE_RANGE = (0.005, 0.05)
POISSON_SLACK = 1e-6  # poisson.solve's own bound check uses this slack


class InvalidOutput(Exception):
    """An operation returned, but its output breaks a checked property."""


@dataclass(frozen=True)
class OpOutcome:
    """What a checked operation contributes to the run's metrics."""

    vehicles: int = 0
    avg_cost: float | None = None
    solver_gap_s: float | None = None


def _base_setup():
    p = platooncoord.nominal_params()
    consts = cost.compute_constants(p)
    schedule = sim.FlowSchedule.bundled().with_average_flow(AVERAGE_FLOW_VPH)
    return p, consts, schedule


def _check_pair(theta: float | None, c: float | None, consts, slack: float, what: str) -> None:
    """Proven bounds c_n <= theta <= theta_n and theta_n' <= c <= c_n."""
    if theta is None or c is None or not (math.isfinite(theta) and math.isfinite(c)):
        raise InvalidOutput(f"{what}: non-finite pair ({theta!r}, {c!r})")
    if not consts.c_n - slack <= theta <= consts.theta_n + slack:
        raise InvalidOutput(
            f"{what}: theta={theta:.6f} outside [{consts.c_n:.6f}, {consts.theta_n:.6f}]"
        )
    if not consts.theta_n_prime - slack <= c <= consts.c_n + slack:
        raise InvalidOutput(
            f"{what}: c={c:.6f} outside [{consts.theta_n_prime:.6f}, {consts.c_n:.6f}]"
        )


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.p, self.consts, self.schedule = _base_setup()
        self._arrival_counts: dict[int, int] = {}

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> OpOutcome:
        raise NotImplementedError

    def bvi_peak_alloc_mb(self) -> float:
        """Peak traced allocation of one default-grid BVI solve, if any runs."""
        return 0.0

    def _arrivals(self, seed: int) -> int:
        if seed not in self._arrival_counts:
            self._arrival_counts[seed] = len(_generate_arrivals(self.schedule, seed)[0])
        return self._arrival_counts[seed]

    def _check_day(self, result, day_seed: int, with_thresholds: bool) -> None:
        what = f"{result.policy_id} day seed {day_seed}"
        expected = self._arrivals(day_seed)
        if result.n_vehicles != expected or len(result.records) != expected:
            raise InvalidOutput(
                f"{what}: {result.n_vehicles} vehicles, {len(result.records)} records, "
                f"seed generates {expected}"
            )
        for r in result.records:
            if not math.isfinite(r.cost):
                raise InvalidOutput(f"{what}: vehicle {r.k} has cost {r.cost!r}")
            if not r.speed <= sim.MAX_SPEED:
                raise InvalidOutput(f"{what}: vehicle {r.k} speed {r.speed!r} over the cap")
            if with_thresholds:
                _check_pair(r.theta, r.c, self.consts, POISSON_SLACK, f"{what} vehicle {r.k}")
        if expected and not math.isfinite(result.avg_cost):
            raise InvalidOutput(f"{what}: average cost {result.avg_cost!r}")


class RtsDay(Workload):
    """One op: a 24 h real-time-strategy day; day seeds follow the workload seed."""

    name = "rts_day"

    def run(self, i: int):
        return sim.simulate(
            self.schedule, sim.RealTimeStrategy(), self.p, self.consts, self.seed + i
        )

    def check(self, i: int, out) -> OpOutcome:
        self._check_day(out, self.seed + i, with_thresholds=True)
        return OpOutcome(vehicles=out.n_vehicles, avg_cost=out.avg_cost)


class ThresholdSolve(Workload):
    """One op: cold BVI and RA solves on both grids for five arrival models,
    plus cold Poisson solves at the three exponential rates."""

    name = "threshold_solve"
    GRIDS = (("reduced", dp.REDUCED_GRID), ("default", dp.DEFAULT_GRID))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        lo, hi = np.log(RATE_RANGE[0]), np.log(RATE_RANGE[1])
        self.rates = [float(r) for r in np.exp(rng.uniform(lo, hi, size=3))]
        self.models = [platooncoord.Exponential(rate) for rate in self.rates] + [
            platooncoord.DiscreteRandom(((15.0, 0.4), (8.0, 0.6))),
            platooncoord.Constant(10.0),
        ]

    def run(self, i: int):
        out = {}
        for grid_name, grid in self.GRIDS:
            for m, model in enumerate(self.models):
                out[grid_name, m, "bvi"] = dp.solve_bvi(
                    grid, model, self.p, self.consts, epsilon=BVI_EPSILON
                )
                out[grid_name, m, "ra"] = dp.solve_ra(grid, model, self.p, self.consts)
        for m, rate in enumerate(self.rates):
            out["poisson", m] = poisson.solve(rate, self.p, self.consts)
        return out

    def check(self, i: int, out) -> OpOutcome:
        steps = {name: grid.step for name, grid in self.GRIDS}
        pairs = {}
        for key, res in out.items():
            if key[0] == "poisson":
                theta, c, slack = res.theta, res.c, POISSON_SLACK
            else:
                theta, c, slack = res.policy.theta, res.policy.c, steps[key[0]]
            _check_pair(theta, c, self.consts, slack, f"{key}")
            pairs[key] = (theta, c)
        gap = 0.0
        for m in range(len(self.rates)):
            found = (pairs["default", m, "bvi"], pairs["default", m, "ra"], pairs["poisson", m])
            for a, b in itertools.combinations(found, 2):
                gap = max(gap, abs(a[0] - b[0]), abs(a[1] - b[1]))
        return OpOutcome(solver_gap_s=gap)

    def bvi_peak_alloc_mb(self) -> float:
        tracemalloc.start()
        try:
            dp.solve_bvi(dp.DEFAULT_GRID, self.models[0], self.p, self.consts, epsilon=BVI_EPSILON)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


class FixedPolicyDays(Workload):
    """One op: Policy A calibration (61 days), then a Baseline, a Policy A and
    a Policy B day, all on one day seed, as ``platoon-coord compare`` pairs them."""

    name = "fixed_policy_days"

    def __init__(self, seed: int):
        super().__init__(seed)
        sol = poisson.solve(POLICY_B_RATE, self.p, self.consts)
        _check_pair(sol.theta, sol.c, self.consts, POISSON_SLACK, "Policy B pair")
        self.policy_b = sim.PolicyB(platooncoord.ThresholdPolicy(theta=sol.theta, c=sol.c))

    def run(self, i: int):
        day_seed = self.seed + i
        tau = sim.calibrate_policy_a(
            self.schedule, self.p, self.consts, day_seed, taus=CALIBRATION_TAUS
        )
        days = [
            sim.simulate(self.schedule, policy, self.p, self.consts, day_seed)
            for policy in (sim.Baseline(), sim.PolicyA(tau=tau), self.policy_b)
        ]
        return tau, days

    def check(self, i: int, out) -> OpOutcome:
        tau, days = out
        day_seed = self.seed + i
        if tau not in CALIBRATION_TAUS:
            raise InvalidOutput(f"calibrated tau {tau!r} is not a grid value")
        for day in days:
            self._check_day(day, day_seed, with_thresholds=day.policy_id == "policy_b")
        evaluated = sum(day.n_vehicles for day in days)
        calibration = len(CALIBRATION_TAUS) * self._arrivals(day_seed)
        avg_cost = sum(day.total_cost for day in days) / evaluated if evaluated else None
        return OpOutcome(vehicles=calibration + evaluated, avg_cost=avg_cost)


WORKLOADS = {cls.name: cls for cls in (RtsDay, ThresholdSolve, FixedPolicyDays)}
