"""Command-line interface: outputs, determinism, and exit codes."""

import csv
import importlib
import json

import numpy as np
import pytest

from platooncoord.cli import main, parse_arrival_spec
from platooncoord import (
    Baseline,
    Constant,
    CostParams,
    DiscreteRandom,
    Exponential,
    FlowSchedule,
    PolicyA,
    RealTimeStrategy,
    compute_constants,
    nominal_params,
    simulate,
)
from platooncoord.simulate import calibrate_policy_a

# ``platooncoord.simulate`` is the function of that name, not the module.
sim = importlib.import_module("platooncoord.simulate")


GRID = "--grid=-50,150,1"


_counter = iter(range(10**6))


def run(tmp_path, *argv):
    out = tmp_path / f"out{next(_counter)}.json"
    code = main([*argv, "-o", str(out)])
    return code, out


def test_parse_arrival_specs():
    assert parse_arrival_spec("exponential:0.02") == Exponential(0.02)
    assert parse_arrival_spec("constant:10") == Constant(10.0)
    assert parse_arrival_spec("discrete:15:0.4,8:0.6") == DiscreteRandom(
        atoms=((15.0, 0.4), (8.0, 0.6))
    )


def test_parse_arrival_spec_errors(capsys):
    code = main(["solve", "--solver", "ra", "--arrivals", "weibull:1"])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("solver", ["ra", "bvi"])
@pytest.mark.parametrize(
    "spec",
    ["constant:inf", "discrete:inf:1", "exponential:inf", "discrete:15:0.4,8:nan",
     "discrete:nan:1"],
)
def test_non_finite_arrival_spec_is_a_usage_error(capsys, spec, solver):
    code = main(["solve", "--solver", solver, "--arrivals", spec, GRID])
    assert code == 1
    assert "must be finite and positive" in json.loads(capsys.readouterr().err)["error"]


def test_config_hash_follows_config_contents(tmp_path):
    def config_hash(config, name):
        path = tmp_path / name
        path.write_text(json.dumps(config))
        _, out = run(
            tmp_path, "solve", "--solver", "ra", "--arrivals", "exponential:0.02",
            GRID, "--config", str(path),
        )
        return json.loads(out.read_text())["config_hash"]

    low = config_hash({"gamma": 0.5}, "a.json")
    assert config_hash({"gamma": 0.95}, "a.json") != low
    assert config_hash({"gamma": 0.5}, "b.json") == low


def test_solve_poisson_json(tmp_path):
    code, out = run(
        tmp_path, "solve", "--solver", "poisson", "--arrivals", "exponential:0.02"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["theta"] == pytest.approx(24.708, abs=1e-3)
    assert doc["c"] == pytest.approx(-35.996, abs=1e-3)
    assert doc["Z"] == pytest.approx(3.1196, abs=1e-3)
    assert doc["residual_norm"] <= 1e-8
    assert "version" in doc and "config_hash" in doc


def test_solve_poisson_requires_exponential(capsys):
    code = main(["solve", "--solver", "poisson", "--arrivals", "constant:10"])
    assert code == 1


def test_solve_ra_vs_bvi_constant(tmp_path):
    _, ra_out = run(
        tmp_path, "solve", "--solver", "ra", "--arrivals", "constant:10",
        GRID,
    )
    ra = json.loads(ra_out.read_text())
    code, bvi_out = run(
        tmp_path, "solve", "--solver", "bvi", "--arrivals", "constant:10",
        GRID,
    )
    assert code == 0
    bvi = json.loads(bvi_out.read_text())
    assert abs(ra["theta"] - bvi["theta"]) <= 1.0 + 1e-9
    assert abs(ra["c"] - bvi["c"]) <= 1.0 + 1e-9


def test_solve_bvi_discrete(tmp_path):
    code, out = run(
        tmp_path, "solve", "--solver", "bvi",
        "--arrivals", "discrete:15:0.4,8:0.6", GRID,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["theta"] > doc["c"]
    assert doc["grid"] == {"m": -50.0, "n": 150.0, "step": 1.0}


def test_solve_bad_grid_exit_code(capsys):
    code = main(
        ["solve", "--solver", "bvi", "--arrivals", "exponential:0.02",
         "--grid=0,20,1"]
    )
    assert code == 1


def test_solve_non_finite_grid_exit_code(capsys):
    code = main(
        ["solve", "--solver", "ra", "--arrivals", "exponential:0.02",
         "--grid=-50,inf,1"]
    )
    assert code == 1
    assert "finite" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "grid", ["--grid=-100,400,1e-6", "--grid=-1e308,1e308,1"], ids=["tiny-step", "infinite-count"]
)
def test_solve_oversized_grid_is_a_usage_error(capsys, grid):
    code = main(["solve", "--solver", "bvi", "--arrivals", "exponential:0.02", grid])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "more than MAX_GRID_NODES=1000000" in json.loads(err[0])["error"]


def test_solve_numerical_failure_exit_code(capsys):
    # No node of this grid lies in [c_n, theta_n], so recursive approximation
    # has no candidate threshold, which must surface as exit code 2.
    code = main(
        ["solve", "--solver", "ra", "--arrivals", "exponential:0.02",
         "--grid=-1,59,30"]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "numerical"


def test_simulate_deterministic(tmp_path):
    args = [
        "simulate", "--policy", "rts", "--scale", "0.01", "--seed", "7",
        "--duration", "7200",
    ]
    _, out_a = run(tmp_path, *args)
    doc_a = json.loads(out_a.read_text())
    _, out_b = run(tmp_path, *args)
    doc_b = json.loads(out_b.read_text())
    assert doc_a == doc_b
    assert doc_a["seed"] == 7
    assert doc_a["rng"] == "pcg64"


def test_simulate_policy_ordering_paired_seed(tmp_path):
    common = ["--avg-flow", "173", "--seed", "3", "--duration", "14400"]
    _, base_out = run(tmp_path, "simulate", "--policy", "baseline", *common)
    _, rts_out = run(tmp_path, "simulate", "--policy", "rts", *common)
    base = json.loads(base_out.read_text())
    rts = json.loads(rts_out.read_text())
    assert rts["avg_cost"] < base["avg_cost"]


def test_simulate_emit_vehicles(tmp_path):
    vehicles = tmp_path / "vehicles.csv"
    code, out = run(
        tmp_path, "simulate", "--policy", "baseline", "--scale", "0.02",
        "--seed", "1", "--duration", "14400", "--emit-vehicles", str(vehicles),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    rows = vehicles.read_text().strip().splitlines()
    assert len(rows) - 1 == doc["n_vehicles"]


def test_simulate_config_alpha_moves_simulated_fuel(tmp_path):
    common = ["simulate", "--policy", "baseline", "--scale", "0.02", "--seed", "1",
              "--duration", "7200"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": 7e-7}))
    _, nominal_out = run(tmp_path, *common)
    _, heavy_out = run(tmp_path, *common, "--config", str(path))
    nominal = json.loads(nominal_out.read_text())
    heavy = json.loads(heavy_out.read_text())
    assert heavy["n_vehicles"] == nominal["n_vehicles"] > 0
    assert heavy["platoon_histogram"] == nominal["platoon_histogram"]
    assert heavy["avg_fuel_l"] > nominal["avg_fuel_l"]
    assert heavy["avg_time_s"] == nominal["avg_time_s"]


def test_simulate_policy_b_requires_thresholds(capsys):
    code = main(["simulate", "--policy", "b", "--scale", "0.02"])
    assert code == 1


def test_simulate_zero_flow_schedule_exit_code(tmp_path, capsys):
    schedule = tmp_path / "zero.csv"
    schedule.write_text(
        "hour,flow1_vph,flow2_vph\n" + "".join(f"{h},0,0\n" for h in range(24))
    )
    code = main(
        ["simulate", "--policy", "baseline", "--schedule", str(schedule),
         "--avg-flow", "10"]
    )
    assert code == 1
    assert "no flow" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("flow", ["5000", "0", "-5", "nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["simulate", "--policy", "baseline"], ["sweep", "--param", "gamma", "--values", "0.9"]],
    ids=["simulate", "sweep"],
)
def test_out_of_range_avg_flow_names_the_flows(tmp_path, capsys, command, flow):
    code = main([*command, f"--avg-flow={flow}", "-o", str(tmp_path / "out")])
    assert code == 1
    assert not (tmp_path / "out").exists()
    largest = FlowSchedule.bundled().average_flow()
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"average flow must lie in (0, {largest!r}] veh/h for this schedule, "
        f"got {float(flow)!r}"
    )


def test_simulate_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PLATOON_DP_SEED", "11")
    _, out = run(
        tmp_path, "simulate", "--policy", "baseline", "--scale", "0.02",
        "--duration", "3600",
    )
    assert json.loads(out.read_text())["seed"] == 11


def test_compare_table(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["compare", "--scales", "0.01", "0.02", "--seeds", "0",
         "--duration", "14400", "-o", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # three policies x two scales
    by_scale = {}
    for row in rows:
        by_scale.setdefault(row["avg_flow_vph"], {})[row["policy"]] = float(row["AC"])
    for policies in by_scale.values():
        assert policies["rts"] <= policies["baseline"] + 1e-9


def test_sweep_single_value(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--param", "gamma", "--values", "0.9", "--seeds", "0",
         "--duration", "7200", "-o", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["metric"] == "AC"
    assert float(rows[0]["mean"]) > 0.0


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def seed_means(schedule, policy, p, seeds, duration, fields):
    """The oracle: each field's mean over the seeds' non-empty days."""
    consts = compute_constants(p)
    days = [simulate(schedule, policy, p, consts, seed, duration) for seed in seeds]
    kept = [day for day in days if day.n_vehicles]
    return [np.mean([getattr(day, f) for day in kept]) if kept else "" for f in fields]


def assert_cells(row, expected):
    for key, value in expected.items():
        if value == "":
            assert row[key] == "", key
        else:
            assert float(row[key]) == pytest.approx(value, rel=1e-12), key


@pytest.mark.parametrize(
    "scales, seeds, duration",
    [((0.01, 0.03), (0, 1), 7200.0), ((0.002,), (0, 1, 2, 3), 600.0)],
    ids=["two-scales", "some-empty-days"],
)
def test_compare_rows_are_seed_means_of_simulate(tmp_path, scales, seeds, duration):
    out = tmp_path / "table.csv"
    code = main(["compare", "--scales", *map(str, scales), "--seeds", *map(str, seeds),
                 "--duration", str(duration), "-o", str(out)])
    assert code == 0
    rows = read_table(out)
    p = nominal_params()
    consts = compute_constants(p)
    assert len(rows) == 3 * len(scales)
    for i, scale in enumerate(scales):
        schedule = FlowSchedule.bundled().with_scale(scale)
        tau = calibrate_policy_a(schedule, p, consts, seed=seeds[0])
        for row, policy in zip(rows[3 * i:], (Baseline(), PolicyA(tau=tau), RealTimeStrategy())):
            ac, fuel, time_s = seed_means(schedule, policy, p, seeds, duration,
                                          ("avg_cost", "avg_fuel", "avg_time"))
            assert row["policy"] == policy.name
            assert_cells(row, {"avg_flow_vph": schedule.average_flow(), "AC": ac,
                               "avg_fuel_L": fuel, "avg_time_s": time_s})
    if duration == 600.0:
        counts = [simulate(schedule, Baseline(), p, consts, s, duration).n_vehicles for s in seeds]
        assert 0 in counts and any(counts)  # the mean skips the empty days


@pytest.mark.parametrize(
    "param, key, field, values, avg_flow, seeds, duration",
    [
        ("gamma", "gamma", "avg_cost", (0.5, 0.9), 45.0, (0, 1), 7200.0),
        ("d2", "d2_km", "avg_cost_per_km", (20.0, 70.0), 45.0, (0, 1), 7200.0),
        ("gamma", "gamma", "avg_cost", (0.9,), 10.0, (0, 1, 2, 3), 600.0),
    ],
    ids=["gamma", "d2", "gamma-some-empty-days"],
)
def test_sweep_rows_are_seed_means_of_simulate(
    tmp_path, param, key, field, values, avg_flow, seeds, duration
):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", param, "--values", *map(str, values),
                 "--avg-flow", str(avg_flow), "--seeds", *map(str, seeds),
                 "--duration", str(duration), "-o", str(out)])
    assert code == 0
    rows = read_table(out)
    schedule = FlowSchedule.bundled().with_average_flow(avg_flow)
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        p = CostParams.from_config({key: value})
        (mean,) = seed_means(schedule, RealTimeStrategy(), p, seeds, duration, (field,))
        assert (row["param"], row["metric"]) == (param, "AC" if param == "gamma" else "AC_per_km")
        assert_cells(row, {"value": value, "mean": mean})
    if duration == 600.0:
        p, consts = nominal_params(), compute_constants(nominal_params())
        counts = [simulate(schedule, Baseline(), p, consts, s, duration).n_vehicles for s in seeds]
        assert 0 in counts and any(counts)  # the mean skips the empty days


def test_zero_duration_tables_have_empty_cells(tmp_path):
    compare, sweep = tmp_path / "table.csv", tmp_path / "sweep.csv"
    assert main(["compare", "--scales", "0.01", "--seeds", "0", "1", "--duration", "0",
                 "-o", str(compare)]) == 0
    assert main(["sweep", "--param", "d2", "--values", "20", "70", "--seeds", "0",
                 "--duration", "0", "-o", str(sweep)]) == 0
    rows = read_table(compare)
    assert [row["policy"] for row in rows] == ["baseline", "policy_a", "rts"]
    for row in rows:
        assert float(row["avg_flow_vph"]) > 0.0
        assert row["AC"] == row["avg_fuel_L"] == row["avg_time_s"] == ""
    assert [(row["value"], row["mean"]) for row in read_table(sweep)] == [
        ("20.0", ""), ("70.0", "")]


def test_sweep_unknown_param(capsys):
    code = main(["sweep", "--param", "eta", "--values", "0.1"])
    assert code == 1


def test_bench_report(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--arrivals", "exponential:0.02", "constant:10",
         GRID, "-o", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["grid"] == "[-50.0,150.0]/1.0"
    assert float(rows[0]["poisson_s"]) > 0.0
    assert rows[1]["poisson_s"] == ""  # closed form needs exponential arrivals


@pytest.mark.parametrize(
    "policy_args, name",
    [
        (["--policy", "a", "--tau", "nan"], "tau"),
        (["--policy", "a", "--tau", "inf"], "tau"),
        (["--policy", "b", "--theta", "nan", "--c", "-30"], "theta"),
        (["--policy", "b", "--theta", "24.7", "--c=-inf"], "c"),
    ],
    ids=["tau-nan", "tau-inf", "theta-nan", "c-inf"],
)
def test_simulate_non_finite_policy_parameter_exit_code(tmp_path, capsys, policy_args, name):
    code, out = run(tmp_path, "simulate", *policy_args, "--scale", "0.02", "--duration", "3600")
    assert code == 1
    assert not out.exists()
    assert f"{name} must be finite" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("duration", ["-5", "nan", "inf"])
@pytest.mark.parametrize("policy", ["baseline", "a"])
def test_simulate_bad_duration_exit_code(tmp_path, capsys, policy, duration):
    code, out = run(tmp_path, "simulate", "--policy", policy, "--scale", "0.02",
                    f"--duration={duration}")
    assert code == 1
    assert not out.exists()
    assert "duration" in json.loads(capsys.readouterr().err)["error"]


def test_compare_bad_duration_exit_code(tmp_path, capsys):
    code = main(["compare", "--scales", "0.01", "--seeds", "0", "--duration=-5",
                 "-o", str(tmp_path / "table.csv")])
    assert code == 1
    assert "duration" in json.loads(capsys.readouterr().err)["error"]


def test_simulate_zero_duration(tmp_path):
    code, out = run(tmp_path, "simulate", "--policy", "baseline", "--scale", "0.02",
                    "--duration", "0")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_vehicles"] == 0 and doc["avg_cost"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--policy", "xyz"],
        ["solve", "--solver", "ra"],
        ["sweep", "--param", "gamma", "--values", "x"],
        ["simulate", "--policy", "rts", "--lazy-resolve"],
        [],
    ],
    ids=["bad-choice", "missing-required", "bad-float", "unknown-flag", "no-command"],
)
def test_malformed_command_line_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"].startswith("platoon-coord")


SCHEDULE_HEADER = "hour,flow1_vph,flow2_vph\n"


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("5,10", "line 7: expected the 3 fields"),
        ("5,10,10,10", "line 7: expected the 3 fields"),
        ("5.5,10,10", "line 7: invalid literal for int()"),
        ("5,inf,10", "hour 5: flows must be finite"),
        ("5,10,nan", "hour 5: flows must be finite"),
        ("5,1e308,1e308", "hour 5: flows must be finite"),
    ],
    ids=["missing-field", "extra-field", "bad-hour", "inf-flow", "nan-flow", "overflowing-sum"],
)
def test_bad_schedule_row_is_a_usage_error(tmp_path, capsys, bad_row, message):
    rows = [f"{h},10,10" for h in range(24)]
    rows[5] = bad_row
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(SCHEDULE_HEADER + "\n".join(rows) + "\n")
    code, out = run(tmp_path, "simulate", "--policy", "baseline", "--schedule", str(schedule),
                    "--duration", "3600")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert message in json.loads(err[0])["error"]


@pytest.mark.parametrize(
    "header",
    ["hour,flow1_vph,flow2_vph,flow1_vph", "hour,flow1_vph,flow1_vph", "hour,flow1_vph",
     "hour,flow1_vph,flow2_vph,note"],
    ids=["repeated-column", "repeated-for-missing", "missing-column", "extra-column"],
)
def test_bad_schedule_header_is_a_usage_error(tmp_path, capsys, header):
    # A repeated column must not pass: its last field would win.
    names = header.split(",")
    # Every row has one field per header name, so only the header is at fault.
    rows = [",".join([str(h), "10", "20", "99"][: len(names)]) for h in range(24)]
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(header + "\n" + "\n".join(rows) + "\n")
    code, out = run(tmp_path, "simulate", "--policy", "baseline", "--schedule", str(schedule),
                    "--duration", "3600")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])["error"]
    assert "schedule CSV must have columns" in message and repr(names) in message


@pytest.mark.parametrize(
    "config, message",
    [
        ("5", "must hold a JSON object"),
        ("[]", "must hold a JSON object"),
        ('{"gamma": "0.9"}', "config key 'gamma' must be a finite number"),
        ('{"eta": true}', "config key 'eta' must be a finite number"),
        ('{"d1_km": 1' + "0" * 400 + "}", "config key 'd1_km' must be a finite number"),
    ],
    ids=["number", "array", "string-value", "bool-value", "huge-int-value"],
)
def test_config_must_be_an_object_of_numbers(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(config)
    code, out = run(tmp_path, "solve", "--solver", "poisson", "--arrivals", "exponential:0.02",
                    "--config", str(path))
    assert code == 1
    assert not out.exists()
    assert message in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("gamma", ["solve", "--solver", "poisson", "--arrivals", "exponential:0.02",
                   "--gamma", "0.9"]),
        ("d2_km", ["solve", "--solver", "poisson", "--arrivals", "exponential:0.02",
                   "--d2-km", "40"]),
        ("gamma", ["sweep", "--param", "gamma", "--values", "0.9", "--seeds", "0",
                   "--duration", "3600"]),
        ("d2_km", ["sweep", "--param", "d2", "--values", "40", "--seeds", "0",
                   "--duration", "3600"]),
    ],
    ids=["gamma-flag", "d2-flag", "swept-gamma", "swept-d2"],
)
def test_config_is_checked_before_its_key_is_overridden(tmp_path, capsys, key, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: "x"}))
    code, out = run(tmp_path, *argv, "--config", str(path))
    assert code == 1
    assert not out.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"config key {key!r} must be a finite number" in error


@pytest.mark.parametrize(
    "flow, duration, message",
    [
        ("1e9", "3600", "expects 1e+09 arrivals, above MAX_EXPECTED_ARRIVALS"),
        ("10", "1e10", "duration 10000000000.0 s spans 2777778 hours, above MAX_RUN_HOURS"),
        ("0", "1e10", "spans 2777778 hours, above MAX_RUN_HOURS"),
    ],
    ids=["expected-arrivals", "hours", "hours-of-zero-flow"],
)
def test_oversized_run_is_a_usage_error_before_drawing(tmp_path, capsys, monkeypatch,
                                                       flow, duration, message):
    def no_draws(*args):
        raise AssertionError("arrivals were drawn")

    monkeypatch.setattr(sim, "_hour_arrivals", no_draws)
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(SCHEDULE_HEADER + "".join(f"{h},{flow},0\n" for h in range(24)))
    code, out = run(tmp_path, "simulate", "--policy", "baseline", "--schedule", str(schedule),
                    "--duration", duration)
    assert code == 1
    assert not out.exists()
    assert message in json.loads(capsys.readouterr().err)["error"]
