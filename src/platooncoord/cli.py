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
from .dp import ThresholdPolicy

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
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError(f"--config must hold a JSON object, got {type(config).__name__}")
    overrides = {
        "gamma": getattr(args, "gamma", None),
        "d2_km": getattr(args, "d2_km", None),
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
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


def _schedule_from(args) -> FlowSchedule:
    schedule = (
        FlowSchedule.from_csv(args.schedule)
        if args.schedule
        else FlowSchedule.bundled()
    )
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


def cmd_solve(args) -> int:
    p = _load_params(args)
    consts = compute_constants(p)
    model = parse_arrival_spec(args.arrivals)
    grid = _grid_from(args)
    out = _run_meta(args, p)
    out["arrivals"] = model_to_json(model)
    out["solver"] = args.solver
    if args.solver == "poisson":
        if not isinstance(model, Exponential):
            raise UsageError("the poisson solver requires exponential arrivals")
        start = time.perf_counter()
        sol = poisson.solve(model.rate, p, consts)
        out.update(
            theta=sol.theta,
            c=sol.c,
            Z=sol.z,
            residual_norm=sol.residual_norm,
            iterations=sol.iterations,
            wall_time_s=time.perf_counter() - start,
            **{"lambda": sol.rate},
        )
    else:
        solver = solve_bvi if args.solver == "bvi" else solve_ra
        kwargs = {"epsilon": args.epsilon} if args.solver == "bvi" else {}
        result = solver(grid, model, p, consts, **kwargs)
        out.update(
            theta=result.policy.theta,
            c=result.policy.c,
            Z=result.z,
            iterations=result.iterations,
            wall_time_s=result.wall_time_s,
            grid={"m": grid.m, "n": grid.n, "step": grid.step},
        )
        if args.emit_values:
            out["values"] = result.value_function.values.tolist()
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


def cmd_compare(args) -> int:
    p = _load_params(args)
    consts = compute_constants(p)
    seeds = args.seeds
    base = FlowSchedule.from_csv(args.schedule) if args.schedule else FlowSchedule.bundled()
    rows = []
    for scale in args.scales:
        schedule = base.with_scale(scale)
        tau = calibrate_policy_a(schedule, p, consts, seed=seeds[0])
        for policy in (Baseline(), PolicyA(tau=tau), RealTimeStrategy()):
            acs, fuels, times = [], [], []
            for seed in seeds:
                result = simulate(schedule, policy, p, consts, seed, args.duration)
                if result.avg_cost is None:
                    continue
                acs.append(result.avg_cost)
                fuels.append(result.avg_fuel)
                times.append(result.avg_time)
            rows.append(
                {
                    "policy": policy.name,
                    "avg_flow_vph": schedule.average_flow(),
                    "AC": float(np.mean(acs)) if acs else "",
                    "avg_fuel_L": float(np.mean(fuels)) if fuels else "",
                    "avg_time_s": float(np.mean(times)) if times else "",
                }
            )
    _write_csv(args.output, rows, ["policy", "avg_flow_vph", "AC", "avg_fuel_L", "avg_time_s"])
    return 0


def cmd_sweep(args) -> int:
    seeds = args.seeds
    base = FlowSchedule.from_csv(args.schedule) if args.schedule else FlowSchedule.bundled()
    rows = []
    swept = {"gamma": "gamma", "d2": "d2_km"}.get(args.param)
    if swept is None:
        raise UsageError(f"unknown sweep parameter {args.param!r}")
    config = _load_config(args)
    for value in args.values:
        p = CostParams.from_config({**config, swept: value})
        consts = compute_constants(p)
        schedule = base.with_average_flow(args.avg_flow)
        metrics = []
        for seed in seeds:
            result = simulate(
                schedule, RealTimeStrategy(), p, consts, seed, args.duration
            )
            metric = result.avg_cost if args.param == "gamma" else result.avg_cost_per_km
            if metric is not None:
                metrics.append(metric)
        rows.append(
            {
                "param": args.param,
                "value": value,
                "metric": "AC" if args.param == "gamma" else "AC_per_km",
                "mean": float(np.mean(metrics)) if metrics else "",
            }
        )
    _write_csv(args.output, rows, ["param", "value", "metric", "mean"])
    return 0


def cmd_bench(args) -> int:
    p = _load_params(args)
    consts = compute_constants(p)
    grid = _grid_from(args)
    rows = []
    for spec in args.arrivals:
        model = parse_arrival_spec(spec)
        timings = {"arrivals": spec, "grid": f"[{grid.m},{grid.n}]/{grid.step}"}
        bvi = solve_bvi(grid, model, p, consts, epsilon=args.epsilon)
        timings["bvi_s"] = bvi.wall_time_s
        ra = solve_ra(grid, model, p, consts)
        timings["ra_s"] = ra.wall_time_s
        if isinstance(model, Exponential):
            start = time.perf_counter()
            poisson.solve(model.rate, p, consts)
            timings["poisson_s"] = time.perf_counter() - start
        else:
            timings["poisson_s"] = ""  # closed form needs exponential arrivals
        rows.append(timings)
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
    sp.add_argument("--grid", help="m,n,step (default -100,400,0.25)")
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
    sp.add_argument("--grid", help="m,n,step (default -100,400,0.25)")
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
