"""platooncoord benchmark: run one workload for a fixed time and report its
metrics.

    python3 perfbench/run.py --workload rts_day --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. Workloads, metrics and output files are described in
``perfbench/README.md``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Address-space cap of the benchmark process. The RTS out-of-memory defect
# (an unbounded quadrature refinement at rates above ~10 veh/s) then raises
# MemoryError, a counted failed op, instead of ending the run.
ADDRESS_SPACE_CAP_MB = 1024
SETUP_REPEATS = 7
SETUP_PROBE_TIMEOUT_S = 60
# Traced runs keep every span in memory; stop adding traced ops past this.
MAX_SPANS = 1_000_000
WORKLOAD_NAMES = ("rts_day", "threshold_solve", "fixed_policy_days")


@dataclass
class Op:
    index: int
    seconds: float
    error: str | None = None  # the op raised
    invalid: str | None = None  # the op returned, but its output failed a check
    vehicles: int = 0
    avg_cost: float | None = None
    solver_gap_s: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.invalid is not None

    def same_output(self, other: "Op") -> bool:
        """Exact agreement of two runs of one op; timings aside."""
        return (
            (self.error is None) == (other.error is None)
            and self.invalid == other.invalid
            and self.vehicles == other.vehicles
            and self.avg_cost == other.avg_cost
            and self.solver_gap_s == other.solver_gap_s
        )


def run_op(wl, i: int) -> Op:
    from workloads import InvalidOutput

    start = time.perf_counter()
    try:
        out = wl.run(i)
    except Exception as exc:  # every raising op, MemoryError included, is a failed op
        return Op(i, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}"[:300])
    seconds = time.perf_counter() - start
    try:
        outcome = wl.check(i, out)
    except InvalidOutput as exc:
        return Op(i, seconds, invalid=str(exc)[:300])
    return Op(i, seconds, vehicles=outcome.vehicles, avg_cost=outcome.avg_cost,
              solver_gap_s=outcome.solver_gap_s)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "address_space_cap_mb": ADDRESS_SPACE_CAP_MB,
        "platform": platform.platform(),
    }


def timed_loop(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... while the next call is predicted, from
    the last one, to end within ``seconds``; at least one call is made.
    ``step`` returns False to stop early."""
    start = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        if step(i) is False:
            return
        i += 1
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(ops: list[Op], setup: list[float]) -> dict:
    """The gated end-to-end metrics, name -> (value, unit)."""
    ok = sum(not op.failed for op in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(op.seconds for op in ops), "s"),
        "ok_ops_frac": (ok / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def workload_metrics(ops: list[Op]) -> dict:
    """End-to-end metrics that exist on some workloads only, name -> (value, unit)."""
    metrics = {"failed_ops_frac": (sum(op.failed for op in ops) / len(ops), "ratio")}
    vehicles = sum(op.vehicles for op in ops)
    if vehicles:
        metrics["vehicles_per_s"] = (vehicles / sum(op.seconds for op in ops), "veh/s")
    first_ok = next((op for op in ops if not op.failed), None)
    if first_ok is not None and first_ok.avg_cost is not None:
        metrics["avg_cost"] = (first_ok.avg_cost, "currency/veh")
    gaps = [op.solver_gap_s for op in ops if op.solver_gap_s is not None]
    if gaps:
        metrics["solver_gap_s"] = (max(gaps), "s")
    return metrics


def layer_metrics(tracer, n_ops: int, traced_p50: float, untraced_p50: float,
                  peak_alloc_mb: float) -> dict:
    """Per-layer metrics from the span table: counts and busy/self seconds
    are means per traced op; percentiles pool every span of the name."""
    from tracing import SETUP_OP
    from workloads import dp

    cols = tracer.columns()
    duration = cols["end_ns"] - cols["start_ns"]
    in_op = cols["op"] >= 0

    def mask(name, where=None):
        if name not in tracer.names:
            return np.zeros(len(duration), dtype=bool)
        m = cols["name_id"] == tracer.names.index(name)
        return m & (in_op if where is None else where)

    def calls(*names):
        return sum(int(mask(n).sum()) for n in names) / n_ops

    def busy(*names):
        return sum(int(duration[mask(n)].sum()) for n in names) / 1e9 / n_ops

    def self_s(*names):
        return sum(int(cols["self_ns"][mask(n)].sum()) for n in names) / 1e9 / n_ops

    def ms(name, q, where=None):
        return percentile(duration[mask(name, where)] / 1e6, q)

    counters = {k: v / n_ops for k, v in tracer.counters.items()}
    poisson = ("poisson.solve.warm", "poisson.solve.cold")
    default_sweep = in_op & (cols["tag"] == dp.DEFAULT_GRID.size)
    return {
        "cost.compute_constants.ms": (
            ms("cost.compute_constants", 50, cols["op"] == SETUP_OP), "ms"),
        "arrivals.rate_estimator.calls": (
            calls("arrivals.observe", "arrivals.estimate"), "count/op"),
        "arrivals.rate_estimator.busy_s": (
            busy("arrivals.observe", "arrivals.estimate"), "s/op"),
        "poisson.solve.calls": (calls(*poisson), "count/op"),
        "poisson.solve.busy_s": (busy(*poisson), "s/op"),
        "poisson.solve.self_s": (self_s(*poisson), "s/op"),
        "poisson.solve.warm_ms_p50": (ms("poisson.solve.warm", 50), "ms"),
        "poisson.solve.warm_ms_p99": (ms("poisson.solve.warm", 99), "ms"),
        "poisson.solve.cold_ms_p50": (ms("poisson.solve.cold", 50), "ms"),
        "poisson.newton_iters": (counters["poisson.newton_iters"], "count/op"),
        "poisson.solve.failed": (counters["poisson.solve.failed"], "count/op"),
        "poisson.cold_retries": (counters["poisson.cold_retries"], "count/op"),
        "quadrature.calls": (calls("quadrature"), "count/op"),
        "quadrature.points": (
            int(cols["tag"][mask("quadrature")].sum()) / n_ops, "count/op"),
        "quadrature.busy_s": (busy("quadrature"), "s/op"),
        "dp.solve_bvi.busy_s": (busy("dp.solve_bvi"), "s/op"),
        "dp.solve_bvi.self_s": (self_s("dp.solve_bvi"), "s/op"),
        "dp.bvi_sweep.calls": (calls("dp.bvi_sweep"), "count/op"),
        "dp.bvi_sweep.ms_p50": (ms("dp.bvi_sweep", 50, default_sweep), "ms"),
        "dp.solve_ra.busy_s": (busy("dp.solve_ra"), "s/op"),
        "dp.solve_ra.candidates": (counters["dp.solve_ra.candidates"], "count/op"),
        "dp.solve_bvi.peak_alloc_mb": (peak_alloc_mb, "MB"),
        "simulate.days": (calls("simulate.day"), "count/op"),
        "simulate.decide.ms_p50": (ms("simulate.decide", 50), "ms"),
        "simulate.decide.ms_p99": (ms("simulate.decide", 99), "ms"),
        "simulate.generate_arrivals.busy_s": (busy("simulate.generate_arrivals"), "s/op"),
        "simulate.account_costs.busy_s": (busy("simulate.account_costs"), "s/op"),
        "simulate.calibrate_policy_a.busy_s": (
            busy("simulate.calibrate_policy_a"), "s/op"),
        "simulate.self_s": (self_s("simulate.day"), "s/op"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
    }


def run_untraced(wl, seconds: float) -> list[Op]:
    ops: list[Op] = []
    timed_loop(seconds, lambda i: ops.append(run_op(wl, i)))
    return ops


def run_traced(wl, seconds: float, spans_path: Path):
    """Pairs of one untraced and one traced run of the same op. Returns the
    ops of both kinds, the per-layer metrics and whether every pair agreed."""
    from tracing import Tracer
    from workloads import cost

    tracer = Tracer()
    tracer.install()
    for _ in range(SETUP_REPEATS):
        cost.compute_constants(wl.p)
    tracer.uninstall()

    plain: list[Op] = []
    traced: list[Op] = []

    def pair(i: int):
        plain.append(run_op(wl, i))
        tracer.op_id = i
        tracer.install()
        try:
            traced.append(run_op(wl, i))
        finally:
            tracer.uninstall()
        return len(tracer) < MAX_SPANS

    timed_loop(seconds, pair)
    agree = all(a.same_output(b) for a, b in zip(plain, traced))
    traced_p50 = statistics.median(op.seconds for op in traced)
    plain_p50 = statistics.median(op.seconds for op in plain)
    metrics = layer_metrics(tracer, len(traced), traced_p50, plain_p50, wl.bvi_peak_alloc_mb())
    tracer.save(spans_path)
    return plain, traced, metrics, agree, len(tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "platooncoord" / "__init__.py").is_file():
        print(f"error: no platooncoord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cap = ADDRESS_SPACE_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import platooncoord

    if Path(platooncoord.__file__).resolve().parent != SRC / "platooncoord":
        print(f"error: imported platooncoord from {platooncoord.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }

    if args.trace:
        wl = WORKLOADS[args.workload](args.seed)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        plain, traced, metrics, correct, n_spans = run_traced(wl, args.seconds, spans_path)
        ops = plain + traced
        plain_extras, traced_extras = workload_metrics(plain), workload_metrics(traced)
        record.update(spans_file=str(spans_path.relative_to(ROOT)), spans=n_spans,
                      traced_ops=len(traced), untraced_extras=plain_extras,
                      traced_extras=traced_extras)
    else:
        setup = measure_setup(args.workload, args.seed)
        wl = WORKLOADS[args.workload](args.seed)
        ops = run_untraced(wl, args.seconds)
        metrics, extras = end_to_end(ops, setup), workload_metrics(ops)
        correct = True
        record.update(setup_s_samples=setup, extras=extras)
    correct = correct and not any(op.invalid for op in ops)
    attempted, failed = len(ops), sum(op.failed for op in ops)
    record.update(
        correct=correct, attempted=attempted, failed=failed,
        op_seconds=[op.seconds for op in ops],
        failures=[{"op": op.index, "error": op.error, "invalid": op.invalid}
                  for op in ops if op.failed],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"platooncoord benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(record["environment"]))
    print(f"ops attempted={attempted} failed={failed} "
          f"failed_ops_frac={failed / attempted:.4g} correct={correct}")
    for op in ops:
        if op.failed:
            print(f"  failed op {op.index}: {op.error or op.invalid}")
    if args.trace:
        print(f"traced ops={len(traced)} spans={n_spans} file={record['spans_file']}")
        for label, extras in (("untraced", plain_extras), ("traced", traced_extras)):
            shown = "  ".join(f"{k}={v:.10g} {u}" for k, (v, u) in extras.items())
            print(f"{label}: {shown}")
    else:
        print(f"setup_s samples (n={len(setup)}): " + ", ".join(f"{t:.4f}" for t in setup))
        print(f"op_s samples (n={len(ops)}): " + ", ".join(f"{op.seconds:.4f}" for op in ops))
        for name, (value, unit) in extras.items():
            print(f"{name:<36} {value:>16.8g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.8g} {unit}")
    print(f"record: {OUT_DIR.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
