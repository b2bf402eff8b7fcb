"""Command-line toolkit: policy solvers, junction simulation, policy
comparison tables, sensitivity sweeps, and solver benchmarks."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .arrivals import ArrivalModel, Constant, DiscreteRandom, Exponential, model_to_json
from .cost import CostDomainError, CostParams, compute_constants
from .dp import (
    DEFAULT_EPSILON,
    DEFAULT_GRID,
    SolverError,
    StateGrid,
    ThresholdPolicy,
    solve_bvi,
    solve_ra,
)
from . import poisson
from .simulate import (
    Baseline,
    FlowSchedule,
    PolicyA,
    PolicyB,
    RealTimeStrategy,
    calibrate_policy_a,
    simulate,
    write_vehicle_csv,
)

EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ``UsageError`` (exit 1), not
    argparse's exit 2, which is the numerical-failure code here."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_arrival_spec(spec: str) -> ArrivalModel:
    """Parse 'exponential:0.02' | 'constant:10' | 'discrete:15:0.4,8:0.6'."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "exponential":
            return Exponential(rate=float(rest))
        if kind == "constant":
            return Constant(headway=float(rest))
        if kind == "discrete":
            atoms = []
            for part in rest.split(","):
                h, prob = part.split(":")
                atoms.append((float(h), float(prob)))
            return DiscreteRandom(atoms=tuple(atoms))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad arrival spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown arrival model {kind!r}")


def _load_config(args) -> dict:
    """The --config file's values, checked before --gamma and --d2-km (or a
    swept key) replace any of them, so no override hides a malformed value."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError(f"--config must hold a JSON object, got {type(config).__name__}")
        CostParams.from_config(config)
    for key in ("gamma", "d2_km"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return config


def _load_params(args) -> CostParams:
    return CostParams.from_config(_load_config(args))


def _grid_from(args) -> StateGrid:
    if args.grid is None:
        return DEFAULT_GRID
    try:
        m, n, step = (float(x) for x in args.grid.split(","))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {args.grid!r}; expected m,n,step") from exc
    return StateGrid(m=m, n=n, step=step)


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PLATOON_DP_SEED")
    return int(env) if env else 0


def _run_meta(args, p: CostParams, seed: int | None = None) -> dict:
    """Version, seed and a hash of the resolved inputs: the cost parameters
    stand in for --config, --gamma and --d2-km, and the seed for
    $PLATOON_DP_SEED."""
    skip = {"func", "output", "emit_vehicles", "config", "gamma", "d2_km", "seed"}
    inputs = {k: v for k, v in vars(args).items() if k not in skip}
    inputs.update(cost_params=dataclasses.asdict(p), seed=seed)
    payload = json.dumps(inputs, default=str, sort_keys=True)
    meta = {
        "version": __version__,
        "config_hash": hashlib.sha256(payload.encode()).hexdigest()[:16],
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def _emit(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_schedule(args) -> FlowSchedule:
    """The --schedule CSV, or the bundled table, unscaled."""
    return FlowSchedule.from_csv(args.schedule) if args.schedule else FlowSchedule.bundled()


def _schedule_from(args) -> FlowSchedule:
    schedule = _base_schedule(args)
    if args.avg_flow is not None and args.scale is not None:
        raise UsageError("give either --scale or --avg-flow, not both")
    if args.avg_flow is not None:
        return schedule.with_average_flow(args.avg_flow)
    if args.scale is not None:
        return schedule.with_scale(args.scale)
    return schedule


def _policy_from(args, schedule, p, consts, seed):
    name = args.policy
    if name == "baseline":
        return Baseline()
    if name == "a":
        tau = args.tau
        if tau is None:
            tau = calibrate_policy_a(schedule, p, consts, seed=seed)
        return PolicyA(tau=tau)
    if name == "b":
        if args.theta is None or args.c is None:
            raise UsageError("policy b requires --theta and --c")
        return PolicyB(policy=ThresholdPolicy(theta=args.theta, c=args.c))
    if name == "rts":
        return RealTimeStrategy(beta=args.beta, m_steps=args.m_steps)
    raise UsageError(f"unknown policy {name!r}")


def _solve(solver: str, model: ArrivalModel, grid: StateGrid, p: CostParams, consts,
           epsilon: float, emit_values: bool = False) -> dict:
    """One solve's output fields, ``wall_time_s`` among them."""
    if solver == "poisson":
        if not isinstance(model, Exponential):
            raise UsageError("the poisson solver requires exponential arrivals")
        start = time.perf_counter()
        sol = poisson.solve(model.rate, p, consts)
        return {
            "theta": sol.theta,
            "c": sol.c,
            "Z": sol.z,
            "residual_norm": sol.residual_norm,
            "iterations": sol.iterations,
            "wall_time_s": time.perf_counter() - start,
            "lambda": sol.rate,
        }
    if solver == "bvi":
        result = solve_bvi(grid, model, p, consts, epsilon=epsilon)
    else:
        result = solve_ra(grid, model, p, consts)
    fields = {
        "theta": result.policy.theta,
        "c": result.policy.c,
        "Z": result.z,
        "iterations": result.iterations,
        "wall_time_s": result.wall_time_s,
        "grid": {"m": grid.m, "n": grid.n, "step": grid.step},
    }
    if emit_values:
        fields["values"] = result.value_function.values.tolist()
    return fields


def cmd_solve(args) -> int:
    p = _load_params(args)
    consts = compute_constants(p)
    model = parse_arrival_spec(args.arrivals)
    grid = _grid_from(args)
    out = _run_meta(args, p)
    out["arrivals"] = model_to_json(model)
    out["solver"] = args.solver
    out.update(_solve(args.solver, model, grid, p, consts, args.epsilon, args.emit_values))
    _emit(out, args.output)
    return 0


def cmd_simulate(args) -> int:
    p = _load_params(args)
    consts = compute_constants(p)
    seed = _seed_from(args)
    schedule = _schedule_from(args)
    policy = _policy_from(args, schedule, p, consts, seed)
    result = simulate(schedule, policy, p, consts, seed, duration=args.duration)
    out = _run_meta(args, p, seed)
    out.update(result.to_json())
    out["avg_flow_vph"] = schedule.average_flow()
    if isinstance(policy, PolicyA):
        out["tau"] = policy.tau
    if args.emit_vehicles:
        write_vehicle_csv(args.emit_vehicles, result)
    _emit(out, args.output)
    return 0


def _seed_means(args, schedule, policy, p, consts, fields: tuple[str, ...]) -> list:
    """Each result field's mean over the days of ``args.seeds``; a day with
    no vehicles is left out, and a field of only such days is ``""``."""
    days = (simulate(schedule, policy, p, consts, seed, args.duration) for seed in args.seeds)
    values = [[getattr(r, f) for f in fields] for r in days if r.avg_cost is not None]
    if not values:
        return [""] * len(fields)
    return [float(np.mean(column)) for column in zip(*values)]


def cmd_compare(args) -> int:
    p = _load_params(args)
    consts = compute_constants(p)
    base = _base_schedule(args)
    rows = []
    for scale in args.scales:
        schedule = base.with_scale(scale)
        tau = calibrate_policy_a(schedule, p, consts, seed=args.seeds[0])
        for policy in (Baseline(), PolicyA(tau=tau), RealTimeStrategy()):
            ac, fuel, time_s = _seed_means(
                args, schedule, policy, p, consts, ("avg_cost", "avg_fuel", "avg_time"))
            rows.append({"policy": policy.name, "avg_flow_vph": schedule.average_flow(),
                         "AC": ac, "avg_fuel_L": fuel, "avg_time_s": time_s})
    _write_csv(args.output, rows, ["policy", "avg_flow_vph", "AC", "avg_fuel_L", "avg_time_s"])
    return 0


def cmd_sweep(args) -> int:
    swept = {"gamma": "gamma", "d2": "d2_km"}.get(args.param)
    if swept is None:
        raise UsageError(f"unknown sweep parameter {args.param!r}")
    field, metric = (
        ("avg_cost", "AC") if args.param == "gamma" else ("avg_cost_per_km", "AC_per_km")
    )
    config = _load_config(args)
    schedule = _base_schedule(args).with_average_flow(args.avg_flow)
    rows = []
    for value in args.values:
        p = CostParams.from_config({**config, swept: value})
        consts = compute_constants(p)
        (mean,) = _seed_means(args, schedule, RealTimeStrategy(), p, consts, (field,))
        rows.append({"param": args.param, "value": value, "metric": metric, "mean": mean})
    _write_csv(args.output, rows, ["param", "value", "metric", "mean"])
    return 0


def cmd_bench(args) -> int:
    """Times the calls ``solve`` makes: BVI, RA and, for exponential
    arrivals only, the closed form."""
    p = _load_params(args)
    consts = compute_constants(p)
    grid = _grid_from(args)
    rows = []
    for spec in args.arrivals:
        model = parse_arrival_spec(spec)
        row = {"arrivals": spec, "grid": f"[{grid.m},{grid.n}]/{grid.step}"}
        for solver in ("bvi", "ra", "poisson"):
            if solver == "poisson" and not isinstance(model, Exponential):
                row["poisson_s"] = ""  # the closed form needs exponential arrivals
                continue
            row[f"{solver}_s"] = _solve(solver, model, grid, p, consts, args.epsilon)["wall_time_s"]
        rows.append(row)
    _write_csv(args.output, rows, ["arrivals", "grid", "bvi_s", "ra_s", "poisson_s"])
    return 0


def _write_csv(path: str | None, rows: list[dict], fields: list[str]) -> None:
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="platoon-coord",
        description="Threshold-policy solvers and junction platooning simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON file with cost-parameter overrides")
        sp.add_argument("--gamma", type=float, help="discount factor override")
        sp.add_argument("--d2-km", type=float, help="cruising distance override [km]")
        sp.add_argument("-o", "--output", help="output file (default: stdout)")

    sp = sub.add_parser("solve", help="compute the optimal threshold policy")
    add_common(sp)
    sp.add_argument("--solver", choices=["bvi", "ra", "poisson"], required=True)
    sp.add_argument("--arrivals", required=True, help="e.g. exponential:0.02")
    sp.add_argument(
        "--grid", help="written --grid=m,n,step, as m may be negative (default -100,400,0.25)"
    )
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.add_argument("--emit-values", action="store_true")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="run a junction simulation")
    add_common(sp)
    sp.add_argument("--schedule", help="flow CSV (default: bundled I-210/134 table)")
    sp.add_argument("--scale", type=float, help="coordinable fraction of the flows")
    sp.add_argument("--avg-flow", type=float, help="target average flow [veh/hour]")
    sp.add_argument(
        "--policy", choices=["baseline", "a", "b", "rts"], required=True
    )
    sp.add_argument("--tau", type=float, help="policy a threshold (default: calibrated)")
    sp.add_argument("--theta", type=float, help="policy b threshold")
    sp.add_argument("--c", type=float, help="policy b cruise time reduction")
    sp.add_argument("--beta", type=float, default=0.9)
    sp.add_argument("--m-steps", type=int, default=50)
    sp.add_argument("--seed", type=int, help="default: $PLATOON_DP_SEED or 0")
    sp.add_argument("--duration", type=float, default=86400.0)
    sp.add_argument("--emit-vehicles", help="write a per-vehicle CSV")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", help="policy comparison table over flow scales")
    add_common(sp)
    sp.add_argument("--schedule")
    sp.add_argument("--scales", type=float, nargs="+", required=True)
    sp.add_argument("--seeds", type=int, nargs="+", default=[0])
    sp.add_argument("--duration", type=float, default=86400.0)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="sensitivity sweep over gamma or d2")
    add_common(sp)
    sp.add_argument("--param", required=True, help="gamma or d2")
    sp.add_argument("--values", type=float, nargs="+", required=True)
    sp.add_argument("--schedule")
    sp.add_argument("--avg-flow", type=float, default=45.0)
    sp.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    sp.add_argument("--duration", type=float, default=86400.0)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bench", help="solver timing comparison")
    add_common(sp)
    sp.add_argument("--arrivals", nargs="+", required=True)
    sp.add_argument(
        "--grid", help="written --grid=m,n,step, as m may be negative (default -100,400,0.25)"
    )
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SolverError, CostDomainError) as exc:
        print(json.dumps({"error": str(exc), "kind": "numerical"}), file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
