"""Grid machinery, expected values, and the two grid-based solvers."""

import time

import numpy as np
import pytest

from platooncoord import (
    Constant,
    DEFAULT_GRID,
    DiscreteRandom,
    Exponential,
    REDUCED_GRID,
    SolverError,
    StateGrid,
    ValueFunction,
    compute_constants,
    platoon_bonus,
    reward_cruise,
    reward_merge,
    solve_bvi,
    solve_poisson,
    solve_ra,
)
from platooncoord.arrivals import ArrivalModel, atoms_of
from platooncoord.cost import SINGULARITY_GUARD, CostConstants, CostParams
from platooncoord.dp import (
    MAX_GRID_NODES,
    _ExponentialQuadrature,
    _quadrature,
    greedy_actions,
)


# Scalar reference implementations of E[V(a + X)] and of a one-state
# Bellman update, which the tests below check the solvers' pieces against.


def expected_value(vf: ValueFunction, a: float, model: ArrivalModel) -> float:
    """E[V(a + X)] under the arrival model, with V(s) = V(n) beyond the grid.

    For continuous (exponential) models this is normalized trapezoidal
    quadrature on the grid's own step plus an analytic tail term; for
    discrete models it is the exact weighted sum over atoms.
    """
    grid = vf.grid
    if not grid.m - 1e-9 <= a <= grid.n + 1e-9:
        raise ValueError(f"evaluation point {a!r} outside grid [{grid.m}, {grid.n}]")
    atoms = atoms_of(model)
    if atoms is not None:
        return sum(prob * vf(a + h) for h, prob in atoms)
    assert isinstance(model, Exponential)
    rate = model.rate
    step = grid.step
    span = int((grid.n - a) / step + 1e-9)
    if span == 0:
        return float(vf.values[-1])
    x = step * np.arange(span + 1)
    f = rate * np.exp(-rate * x)
    w = np.full(span + 1, step)
    w[0] = w[-1] = 0.5 * step
    vals = np.array([vf(a + xi) for xi in x])
    tail = np.exp(-rate * step * span)
    mass = float(np.sum(w * f)) + tail
    return (float(np.sum(w * f * vals)) + tail * float(vf.values[-1])) / mass


def bellman_backup(
    vf: ValueFunction,
    s: float,
    model: ArrivalModel,
    p: CostParams,
    consts: CostConstants,
) -> tuple[float, float, bool]:
    """One-state Bellman update: best value, its action, and whether the
    merge branch won. Non-merge actions range over grid nodes strictly
    below min(s, t0 - step); ties prefer merging."""
    grid = vf.grid
    gamma = p.gamma
    nodes = grid.nodes()
    cutoff = min(s, consts.t0 - grid.step)
    candidates = nodes[nodes < cutoff - 1e-12]
    best_val = -np.inf
    best_action = None
    for a in candidates:
        q = reward_cruise(float(a), p) + gamma * expected_value(vf, float(a), model)
        if q > best_val:
            best_val = q
            best_action = float(a)
    merged = False
    if s <= consts.t0 - SINGULARITY_GUARD:
        q_merge = reward_merge(s, p) + gamma * expected_value(vf, s, model)
        if q_merge >= best_val:
            best_val = q_merge
            best_action = s
            merged = True
    if best_action is None:
        raise SolverError(f"no feasible action at state {s!r}")
    return best_val, best_action, merged


def atom_backward_oracle(grid: StateGrid, model: ArrivalModel, values: np.ndarray,
                         top_index: int, g_nodes: np.ndarray, gamma: float) -> None:
    """RA's backward pass for atom models, one node and one atom at a time:
    values[i] = G_i + gamma * E[V(node_i + X)] below top_index, in place."""
    top = grid.size - 1
    atoms = []
    for h, prob in atoms_of(model):
        pos = h / grid.step
        base, frac = (top, 0.0) if pos >= top else (int(pos), pos - int(pos))
        atoms.append((prob, base, frac))
    self_weight = sum(prob * (1.0 - frac) for prob, base, frac in atoms if base == 0)
    scale = 1.0 - gamma * self_weight
    for i in range(top_index - 1, -1, -1):
        values[i] = 0.0  # the self term, solved for through scale
        acc = 0.0
        for prob, base, frac in atoms:
            lo = min(i + base, top)
            hi = min(i + base + 1, top)
            acc += prob * ((1.0 - frac) * values[lo] + frac * values[hi])
        values[i] = (g_nodes[i] + gamma * acc) / scale




def test_grid_validation():
    with pytest.raises(ValueError):
        StateGrid(m=0.0, n=10.0, step=-1.0)
    with pytest.raises(ValueError):
        StateGrid(m=10.0, n=0.0, step=1.0)
    with pytest.raises(ValueError):
        StateGrid(m=0.0, n=10.0, step=3.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field", ["m", "n", "step"])
def test_grid_rejects_non_finite(field, bad):
    bounds = {"m": -50.0, "n": 150.0, "step": 1.0}
    bounds[field] = bad
    with pytest.raises(ValueError, match="finite"):
        StateGrid(**bounds)


@pytest.mark.parametrize(
    "m, n, step",
    [(-100.0, 400.0, 1e-6), (-1e308, 1e308, 1.0), (0.0, float(MAX_GRID_NODES), 1.0)],
    ids=["tiny-step", "infinite-count", "one-node-too-many"],
)
def test_grid_rejects_more_than_max_nodes(m, n, step):
    with pytest.raises(ValueError, match=f"nodes, more than MAX_GRID_NODES={MAX_GRID_NODES}"):
        StateGrid(m=m, n=n, step=step)


def test_grid_accepts_max_nodes():
    assert StateGrid(m=0.0, n=MAX_GRID_NODES - 1.0, step=1.0).size == MAX_GRID_NODES


def test_grid_nodes():
    grid = StateGrid(m=-2.0, n=2.0, step=1.0)
    assert grid.size == 5
    assert np.allclose(grid.nodes(), [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_grid_bracket_check(consts):
    with pytest.raises(ValueError, match="bracket"):
        StateGrid(m=0.0, n=20.0, step=1.0).check_brackets(consts)


def test_value_function_interpolation():
    grid = StateGrid(m=0.0, n=4.0, step=1.0)
    vf = ValueFunction(grid, np.array([0.0, 1.0, 4.0, 9.0, 16.0]))
    assert vf(1.5) == pytest.approx(2.5)
    assert vf(4.0) == 16.0
    assert vf(100.0) == 16.0  # constant beyond the upper bound
    with pytest.raises(ValueError):
        vf(-1.0)


@pytest.mark.parametrize(
    "model",
    [
        Exponential(0.02),
        Constant(10.0),
        DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6))),
    ],
)
def test_expected_value_constant_function(model):
    grid = StateGrid(m=0.0, n=400.0, step=0.25)
    vf = ValueFunction(grid, np.full(grid.size, 7.25))
    for a in (0.0, 10.0, 250.0):
        assert expected_value(vf, a, model) == pytest.approx(7.25, rel=1e-12)


def test_expected_value_point_mass():
    grid = StateGrid(m=0.0, n=100.0, step=0.5)
    vf = ValueFunction(grid, np.sin(0.05 * grid.nodes()))
    assert expected_value(vf, 3.25, Constant(10.0)) == pytest.approx(vf(13.25))


def test_expected_value_exponential_oracle():
    # Independent oracle: fine-grained quadrature of x * density plus the
    # beyond-grid plateau term.
    rate, n = 0.02, 400.0
    grid = StateGrid(m=0.0, n=n, step=0.25)
    vf = ValueFunction(grid, grid.nodes().copy())
    x = np.linspace(0.0, n, 400001)
    oracle = np.trapezoid(x * rate * np.exp(-rate * x), x) + n * np.exp(-rate * n)
    got = expected_value(vf, 0.0, Exponential(rate))
    assert got == pytest.approx(oracle, rel=1e-3)


@pytest.mark.parametrize(
    "model",
    [
        Exponential(0.01),
        Exponential(0.02),
        Exponential(0.05),
        DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6))),
        Constant(10.0),
    ],
)
def test_expect_matches_scalar_oracle(model):
    grid = REDUCED_GRID
    quad = _quadrature(grid, model)
    rng = np.random.default_rng(7)
    tables = [rng.normal(size=grid.size), rng.uniform(-100.0, 100.0, grid.size),
              np.full(grid.size, -3.5)]
    for v in tables:
        vf = ValueFunction(grid, v)
        oracle = np.array([expected_value(vf, float(a), model) for a in grid.nodes()])
        # Relative to the table's scale: a signed table can average to ~0.
        assert np.max(np.abs(quad.expect(v) - oracle)) <= 1e-12 * np.max(np.abs(v))


def _backward_models(grid):
    return [
        Exponential(0.02),
        Exponential(0.05),
        DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6))),
        Constant(10.0),
        Constant(0.5 * grid.step),  # block of one node, with a self term
        DiscreteRandom(atoms=((6.0, 0.5), (1e6, 0.5))),  # one atom beyond the grid top
    ]


@pytest.mark.parametrize(
    "grid", [REDUCED_GRID, StateGrid(m=-50.0, n=150.0, step=0.25)], ids=["reduced", "quarter"]
)
def test_backward_values_solve_the_backup_below_the_cut(p, grid):
    gamma = p.gamma
    rng = np.random.default_rng(3)
    g_nodes = rng.normal(size=grid.size)
    for model in _backward_models(grid):
        quad = _quadrature(grid, model)
        for top_index in (1, grid.size // 3 + 1, grid.size - 1):
            start = np.full(grid.size, np.nan)  # read before written would leave NaN
            start[top_index:] = rng.uniform(-5.0, 5.0, grid.size - top_index)
            values = start.copy()
            quad.backward_values(values, top_index, g_nodes, gamma)
            where = (model, top_index)
            assert np.array_equal(values[top_index:], start[top_index:]), where
            below = slice(0, top_index)
            backup = g_nodes[below] + gamma * quad.expect(values)[below]
            assert np.all(np.abs(values[below] - backup) <= 1e-12 * np.max(np.abs(values))), where
            if atoms_of(model) is not None:
                oracle = start.copy()
                atom_backward_oracle(grid, model, oracle, top_index, g_nodes, gamma)
                assert np.array_equal(values, oracle), where


def exponential_backward_oracle(quad, values, top_index, g_nodes, gamma):
    """RA's backward pass for exponential headways as one per-node loop from
    the grid top, which carries the running sum through the nodes above
    top_index one at a time; in place, as ``backward_values``."""
    size = quad.grid.size
    step = quad.grid.step
    f0 = quad.f0
    r = quad.decay
    v_top = values[-1]
    running = 0.0  # sum_{j > i} f((j-i)*step) * V_j
    for i in range(size - 2, -1, -1):
        running = r * (f0 * values[i + 1] + running)
        if i >= top_index:
            continue
        rest = step * (running - 0.5 * f0 * quad.tail[i] * v_top) + quad.tail[i] * v_top
        scale = 1.0 - gamma * step * f0 / (2.0 * quad.mass[i])
        values[i] = (g_nodes[i] + gamma * rest / quad.mass[i]) / scale


@pytest.mark.parametrize(
    "grid", [REDUCED_GRID, StateGrid(m=-50.0, n=150.0, step=0.25), DEFAULT_GRID],
    ids=["reduced", "quarter", "default"],
)
@pytest.mark.parametrize("rate", [5e-324, 1e-12, 0.02, 1.0, 100.0])
def test_exponential_backward_values_match_the_per_node_loop(p, grid, rate):
    quad = _quadrature(grid, Exponential(rate))
    rng = np.random.default_rng(5)
    g_nodes = rng.normal(size=grid.size)
    for top_index in (1, grid.size // 3 + 1, grid.size - 1):
        above = grid.size - top_index
        for plateau in (rng.uniform(-5.0, 5.0, above), np.full(above, -3.5)):
            start = np.full(grid.size, np.nan)  # read before written would leave NaN
            start[top_index:] = plateau
            values, oracle = start.copy(), start.copy()
            quad.backward_values(values, top_index, g_nodes, p.gamma)
            exponential_backward_oracle(quad, oracle, top_index, g_nodes, p.gamma)
            where = (top_index, plateau[0])
            assert np.array_equal(values[top_index:], start[top_index:]), where
            error = np.max(np.abs(values[:top_index] - oracle[:top_index]))
            assert error <= 1e-13 * np.max(np.abs(oracle)), where


def _ra_outcome(grid, model, p, consts):
    """RA's (policy, z, iterations) and value array, or its error message."""
    try:
        res = solve_ra(grid, model, p, consts)
    except SolverError as exc:
        return str(exc), None
    return (res.policy, res.z, res.iterations), res.value_function.values


@pytest.mark.parametrize("grid", [REDUCED_GRID, DEFAULT_GRID], ids=["reduced", "default"])
@pytest.mark.parametrize("gamma", [None, 0.3, 0.6, 0.9, 0.99], ids=str)
def test_ra_matches_a_solve_through_the_per_node_loop(grid, gamma, monkeypatch):
    # gamma None: the acceptance suite's five models at nominal parameters.
    if gamma is None:
        models = [Exponential(0.01), Exponential(0.02), Exponential(0.05),
                  DiscreteRandom(atoms=((15.0, 0.4), (8.0, 0.6))), Constant(10.0)]
    else:
        models = [Exponential(rate) for rate in (5e-324, 1e-12, 0.005, 0.02, 0.05, 1.0, 100.0)]
    params = CostParams.from_config(None if gamma is None else {"gamma": gamma})
    consts = compute_constants(params)
    fast = [_ra_outcome(grid, model, params, consts) for model in models]
    monkeypatch.setattr(_ExponentialQuadrature, "backward_values", exponential_backward_oracle)
    for model, (answer, values) in zip(models, fast):
        oracle_answer, oracle_values = _ra_outcome(grid, model, params, consts)
        assert answer == oracle_answer, model
        if oracle_values is not None:
            assert np.all(np.abs(values - oracle_values) <= 1e-12 * np.abs(oracle_values)), model


def test_expected_value_outside_grid():
    grid = StateGrid(m=0.0, n=10.0, step=1.0)
    vf = ValueFunction(grid, np.zeros(grid.size))
    with pytest.raises(ValueError):
        expected_value(vf, -5.0, Constant(1.0))


def test_bellman_zero_value_reproduces_one_stage_threshold(p, consts):
    vf = ValueFunction(REDUCED_GRID, np.zeros(REDUCED_GRID.size))
    model = Exponential(0.02)
    for s in (0.0, 10.0, consts.theta_n - 1.5):
        _, action, merged = bellman_backup(vf, s, model, p, consts)
        assert merged and action == s
    for s in (consts.theta_n + 1.5, 40.0):
        _, action, merged = bellman_backup(vf, s, model, p, consts)
        assert not merged


def test_bellman_no_merge_beyond_t0(p, consts):
    vf = ValueFunction(REDUCED_GRID, np.zeros(REDUCED_GRID.size))
    for s in (consts.t0, 60.0, 120.0):
        _, _, merged = bellman_backup(vf, s, Exponential(0.02), p, consts)
        assert not merged


@pytest.fixture(scope="module")
def bvi_exp(p, consts):
    return solve_bvi(REDUCED_GRID, Exponential(0.02), p, consts)


@pytest.fixture(scope="module")
def ra_exp(p, consts):
    return solve_ra(REDUCED_GRID, Exponential(0.02), p, consts)


def test_bvi_matches_ra(bvi_exp, ra_exp):
    step = REDUCED_GRID.step
    assert abs(bvi_exp.policy.theta - ra_exp.policy.theta) <= step + 1e-9
    # The value peak is flat, so the cruise action is resolved more loosely.
    assert abs(bvi_exp.policy.c - ra_exp.policy.c) <= 3 * step + 1e-9


def test_ra_matches_poisson(p, consts, ra_exp):
    sol = solve_poisson(0.02, p, consts)
    step = REDUCED_GRID.step
    assert abs(ra_exp.policy.theta - sol.theta) <= 2 * step + 1e-9
    assert abs(ra_exp.policy.c - sol.c) <= 3 * step + 1e-9


def test_bvi_gamma_limit(consts):
    p0 = CostParams.from_config({"gamma": 1e-6})
    step = REDUCED_GRID.step
    for solver in (solve_bvi, solve_ra):
        res = solver(REDUCED_GRID, Exponential(0.02), p0, consts)
        assert abs(res.policy.theta - consts.theta_n) <= step + 1e-9
        assert abs(res.policy.c - consts.c_n) <= step + 1e-9


def test_constant_model_solvers_agree(p, consts):
    ra = solve_ra(REDUCED_GRID, Constant(10.0), p, consts)
    bvi = solve_bvi(REDUCED_GRID, Constant(10.0), p, consts)
    step = REDUCED_GRID.step
    assert abs(ra.policy.theta - bvi.policy.theta) <= step + 1e-9
    assert abs(ra.policy.c - bvi.policy.c) <= step + 1e-9


@pytest.mark.parametrize("grid", [REDUCED_GRID, DEFAULT_GRID], ids=["reduced", "default"])
@pytest.mark.parametrize(
    "model",
    [Constant(0.5), Constant(0.1), DiscreteRandom(atoms=((0.5, 0.5), (20.0, 0.5)))],
)
def test_ra_atoms_shorter_than_step(p, consts, grid, model):
    # An atom shorter than the grid step weighs the node RA is computing.
    ra = solve_ra(grid, model, p, consts).policy
    bvi = solve_bvi(grid, model, p, consts).policy
    step = grid.step
    assert consts.c_n - step <= ra.theta <= consts.theta_n + step
    assert consts.theta_n_prime - step <= ra.c <= consts.c_n + step
    assert abs(ra.theta - bvi.theta) <= step + 1e-9
    assert abs(ra.c - bvi.c) <= step + 1e-9


def test_bvi_epsilon_validation(p, consts):
    with pytest.raises(ValueError):
        solve_bvi(REDUCED_GRID, Exponential(0.02), p, consts, epsilon=0.0)


def test_bvi_sweep_cap(p, consts, monkeypatch):
    monkeypatch.setattr("platooncoord.dp.MAX_SWEEPS", 5)
    with pytest.raises(SolverError, match="did not converge in 5 sweeps"):
        solve_bvi(REDUCED_GRID, Exponential(0.02), p, consts)


@pytest.mark.parametrize("solver", [solve_bvi, solve_ra])
def test_overflowing_rate_raises_solver_error(p, consts, solver):
    # Exponential(1e308) overflows the expectation operator, so the first
    # sweeps and every RA candidate are non-finite.
    with pytest.raises(SolverError, match="finite|diverged"):
        solver(REDUCED_GRID, Exponential(1e308), p, consts)


@pytest.mark.parametrize("rate", [1e-100, 1e-300, 5e-324])
@pytest.mark.parametrize("grid", [REDUCED_GRID, DEFAULT_GRID], ids=["reduced", "default"])
@pytest.mark.parametrize("solver", [solve_bvi, solve_ra])
def test_tiny_rate_solves_like_a_small_one(p, consts, solver, grid, rate):
    # exp(-rate * step) rounds to 1 here; the weights take their limit.
    tiny = solver(grid, Exponential(rate), p, consts)
    small = solver(grid, Exponential(1e-12), p, consts)
    assert tiny.policy == small.policy


def extreme_rate_cases():
    """Seeded log-uniform rates over the whole positive float range on the
    reduced grid, with both ends, plus high rates on the default grid."""
    rng = np.random.default_rng(2024)
    exponents = rng.uniform(np.log10(5e-324), 308.0, size=40)
    rates = [5e-324, 1e308] + [float(np.clip(10.0**e, 5e-324, 1e308)) for e in exponents]
    return [("reduced", rate) for rate in rates] + [
        ("default", rate) for rate in (100.0, 1e10, 1e300)
    ]


@pytest.mark.parametrize("solver", [solve_bvi, solve_ra])
def test_grid_solvers_at_extreme_rates_stay_in_bounds_or_fail_cleanly(p, consts, solver):
    grids = {"reduced": REDUCED_GRID, "default": DEFAULT_GRID}
    for grid_name, rate in extreme_rate_cases():
        grid = grids[grid_name]
        start = time.perf_counter()
        try:
            policy = solver(grid, Exponential(rate), p, consts).policy
        except SolverError:
            continue
        finally:
            # A hang guard: these solves take well under a second.
            assert time.perf_counter() - start < 20.0, (grid_name, rate)
        step = grid.step
        where = (grid_name, rate, policy)
        assert consts.c_n - step <= policy.theta <= consts.theta_n + step, where
        assert consts.theta_n_prime - step <= policy.c <= consts.c_n + step, where


@pytest.mark.parametrize("headway", [1e300, np.finfo(float).max])
@pytest.mark.parametrize("solver", [solve_bvi, solve_ra])
def test_atom_beyond_grid_span_weighs_top_value(p, consts, solver, headway):
    # An atom at or past the span (200 s here) weighs exactly V(n), so any
    # longer headway solves as one equal to the span.
    grid = StateGrid(m=-50.0, n=150.0, step=0.5)
    far = solver(grid, Constant(headway), p, consts)
    at_span = solver(grid, Constant(grid.n - grid.m), p, consts)
    assert far.policy == at_span.policy
    assert far.iterations == at_span.iterations
    assert np.array_equal(far.value_function.values, at_span.value_function.values)
    assert consts.c_n - grid.step <= far.policy.theta <= consts.theta_n + grid.step
    assert consts.theta_n_prime - grid.step <= far.policy.c <= consts.c_n + grid.step


def test_greedy_structure(p, consts, bvi_exp):
    merged, actions = greedy_actions(
        bvi_exp.value_function, Exponential(0.02), p, consts
    )
    nodes = REDUCED_GRID.nodes()
    feasible = nodes <= consts.t0 - 1e-9
    switches = np.sum(merged[:-1] != merged[1:])
    assert switches == 1
    cruise_actions = set(np.round(actions[~merged], 9))
    assert len(cruise_actions) == 1
    # Merge everywhere below c_n (and up to the extracted threshold).
    assert merged[nodes < consts.c_n].all()
    assert not merged[~feasible].any()


def test_ra_value_peak_identity(p, ra_exp):
    # The selected candidate's peak should sit close to Z + g0.
    peak = float(np.max(ra_exp.value_function.values))
    # Discretization limits the match to roughly one grid step of Z movement.
    assert peak == pytest.approx(ra_exp.z + platoon_bonus(p), abs=0.1)


def test_solvers_record_wall_time(bvi_exp, ra_exp):
    assert bvi_exp.wall_time_s > 0.0
    assert ra_exp.wall_time_s > 0.0
    assert bvi_exp.iterations > 1
    assert ra_exp.iterations >= 1
