"""Grid-based value-function machinery and the two general-arrival solvers.

Two solvers are provided: plateau-bounded value iteration (synchronous
sweeps with the value held constant above the one-stage threshold) and the
candidate-threshold recursive approximation, which exploits the known
threshold structure to avoid iteration entirely.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .arrivals import ArrivalModel, Exponential, atoms_of
from .cost import (
    CostConstants,
    CostParams,
    SINGULARITY_GUARD,
    _merge_terms,
    platoon_bonus,
)


class SolverError(RuntimeError):
    """Raised when a solver fails to converge or its inputs are unusable."""


# Largest accepted grid: 500x DEFAULT_GRID, 8 MB per float array. It bounds
# memory only; solve time still grows as nodes x candidate thresholds.
MAX_GRID_NODES = 10**6

# Value iteration gives up after this many sweeps.
MAX_SWEEPS = 100000


@dataclass(frozen=True)
class StateGrid:
    """Uniform grid of predicted-headway states on [m, n] [s]."""

    m: float
    n: float
    step: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.m, self.n, self.step])):
            raise ValueError(f"grid bounds and step must be finite, got {self!r}")
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if not self.m < self.n:
            raise ValueError("grid lower bound must be below upper bound")
        count = (self.n - self.m) / self.step
        if not count + 1 <= MAX_GRID_NODES:  # also catches an infinite count
            raise ValueError(
                f"grid has {count + 1:.6g} nodes, more than MAX_GRID_NODES={MAX_GRID_NODES}"
            )
        if abs(count - round(count)) > 1e-9:
            raise ValueError("(n - m) must be an integer multiple of step")

    @property
    def size(self) -> int:
        return int(round((self.n - self.m) / self.step)) + 1

    def nodes(self) -> np.ndarray:
        return self.m + self.step * np.arange(self.size)

    def check_brackets(self, consts: CostConstants) -> None:
        if not (self.m < consts.c_n and consts.theta_n < self.n):
            raise ValueError(
                f"grid [{self.m}, {self.n}] must bracket "
                f"c_n={consts.c_n:.3f} and theta_n={consts.theta_n:.3f}"
            )


@dataclass
class ValueFunction:
    """Value estimate on a state grid; constant V(n) beyond the upper bound."""

    grid: StateGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError("values must have one entry per grid node")

    def __call__(self, s: float) -> float:
        if s < self.grid.m - 1e-9:
            raise ValueError(f"state {s!r} below the grid lower bound")
        if s >= self.grid.n:
            return float(self.values[-1])
        pos = (s - self.grid.m) / self.grid.step
        i = min(int(pos), self.grid.size - 2)
        frac = pos - i
        return float((1.0 - frac) * self.values[i] + frac * self.values[i + 1])


@dataclass(frozen=True)
class ThresholdPolicy:
    """Merge when the predicted headway is at most theta; otherwise cruise
    with the constant time reduction c."""

    theta: float
    c: float


class _ExponentialQuadrature:
    """Trapezoidal weights for the exponential headway density on a grid.

    Weights are normalized per node (quadrature mass plus beyond-grid tail
    equals one) so a constant value function is reproduced exactly.
    """

    def __init__(self, grid: StateGrid, rate: float):
        self.grid = grid
        step = grid.step
        self.f0 = rate
        r = self.decay = np.exp(-rate * step)
        spans = grid.size - 1 - np.arange(grid.size)  # intervals from node i to the top
        # tail[i] = P(X > spans[i] * step); the density there is rate * tail[i].
        self.tail = np.exp(-rate * step * spans)
        # inner = sum_{j=1}^{spans-1} r^j, whose ratio form is 0/0 once r rounds to 1.
        k = np.maximum(spans - 1, 0)
        inner = r * (1.0 - r**k) / (1.0 - r) if r < 1.0 else k.astype(float)
        trap = np.where(spans >= 1, step * rate * (0.5 + inner + 0.5 * self.tail), 0.0)
        self.mass = trap + self.tail
        self.offset_weights = rate * r ** np.arange(1, grid.size)  # f(m * step), m >= 1

    def expect(self, values: np.ndarray) -> np.ndarray:
        """E[V(node_i + X)] at every node. The running sum over higher nodes,
        sum_{j > i} f0 r^{j-i} V_j, comes from a doubling scan in log2(N) steps.
        """
        f0 = self.f0
        r = self.decay
        running = np.zeros_like(values)
        running[:-1] = f0 * r * values[1:]
        s = 1
        while s < running.size:
            running[:-s] += r**s * running[s:]
            s *= 2
        v_top = values[-1]
        raw = self.grid.step * (0.5 * f0 * values + running - 0.5 * f0 * self.tail * v_top)
        return (raw + self.tail * v_top) / self.mass

    def backward_values(self, values: np.ndarray, top_index: int, g_nodes: np.ndarray,
                        gamma: float) -> None:
        """Fill values[i] = G_i + gamma * E[V] for i below top_index, in place.

        The running sum over the nodes above the cut is one dot product; below
        it, the running sum makes each node O(1). The zero-offset trapezoid
        endpoint weighs node i itself, with weight step * f0 / (2 * mass_i);
        that term is linear in values[i], so it is solved for instead of read
        before it is written.
        """
        size = self.grid.size
        step = self.grid.step
        f0 = self.f0
        r = self.decay
        v_top = values[-1]
        # sum_{j > i} f((j-i)*step) * V_j, here at i = top_index
        running = self.offset_weights[: size - 1 - top_index] @ values[top_index + 1 :]
        for i in range(top_index - 1, -1, -1):
            running = r * (f0 * values[i + 1] + running)
            rest = step * (running - 0.5 * f0 * self.tail[i] * v_top) + self.tail[i] * v_top
            scale = 1.0 - gamma * step * f0 / (2.0 * self.mass[i])
            values[i] = (g_nodes[i] + gamma * rest / self.mass[i]) / scale


class _AtomQuadrature:
    """Point-mass expectation on a grid for discrete/constant headways."""

    def __init__(self, grid: StateGrid, atoms):
        idx = np.arange(grid.size)
        top = grid.size - 1
        self.atoms = []  # (prob, frac, lo, hi): the clamped nodes around node_i + h
        for h, prob in atoms:
            pos = h / grid.step
            # At or beyond the grid span the atom weighs V(n) exactly; a huge
            # frac would cancel catastrophically.
            base, frac = (top, 0.0) if pos >= top else (int(pos), pos - int(pos))
            lo = np.minimum(idx + base, top)
            self.atoms.append((prob, frac, lo, np.minimum(lo + 1, top)))
        # lo[0] is an atom's whole-step offset. A node reads no node closer above
        # it than the shortest offset, so a block of that many nodes reads none of
        # its own but, through an atom shorter than one step, itself.
        self.self_weight = sum(
            prob * (1.0 - frac) for prob, frac, lo, _ in self.atoms if lo[0] == 0
        )
        self.block = max(min(int(lo[0]) for _, _, lo, _ in self.atoms), 1)

    def expect(self, values: np.ndarray, nodes=slice(None)) -> np.ndarray:
        """E[V(node_i + X)] at the given nodes, with V(n) beyond the grid."""
        return sum(
            prob * ((1.0 - frac) * values[lo[nodes]] + frac * values[hi[nodes]])
            for prob, frac, lo, hi in self.atoms
        )

    def backward_values(self, values: np.ndarray, top_index: int, g_nodes: np.ndarray,
                        gamma: float) -> None:
        """Fill values[i] = G_i + gamma * E[V] for i below top_index, in place,
        one block at a time from the top down. An atom shorter than one step
        weighs node i itself; that term is linear in values[i], so it is solved
        for instead of read before it is written.
        """
        scale = 1.0 - gamma * self.self_weight
        for stop in range(top_index, 0, -self.block):
            block = slice(max(stop - self.block, 0), stop)
            values[block] = 0.0  # the self term, solved for through scale
            values[block] = (g_nodes[block] + gamma * self.expect(values, block)) / scale


def _quadrature(grid: StateGrid, model: ArrivalModel):
    atoms = atoms_of(model)
    if atoms is not None:
        return _AtomQuadrature(grid, atoms)
    assert isinstance(model, Exponential)
    return _ExponentialQuadrature(grid, model.rate)


def _reward_nodes(nodes: np.ndarray, p: CostParams):
    """Merge/cruise rewards at grid nodes; NaN where the singularity guard
    is violated."""
    g = np.full(nodes.shape, np.nan)
    ok = nodes <= p.t0 - SINGULARITY_GUARD
    g[ok] = _merge_terms(nodes[ok], p)[0]
    h = g - platoon_bonus(p)
    return g, h


@dataclass
class SolveResult:
    policy: ThresholdPolicy
    value_function: ValueFunction
    z: float
    iterations: int
    wall_time_s: float


def _q_values(ev, g_nodes, h_nodes, nodes, gamma, consts, step):
    """Cruise and merge Q-values on the expected values ev at each node.
    Cruising needs an action one step below t0, so its Q is -inf from there
    up; the merge Q is NaN wherever ``_reward_nodes`` put NaN."""
    action_ok = nodes < consts.t0 - step - 1e-12
    return np.where(action_ok, h_nodes + gamma * ev, -np.inf), g_nodes + gamma * ev


def _greedy(grid, ev, g_nodes, h_nodes, gamma, consts):
    """Vectorised greedy backup on the expected values ev at each node.

    Returns the per-node merge flags, the per-node actions (the node itself
    where merging wins, else the best cruise action below it, first on
    ties) and the extracted threshold policy, or None if it never merges.
    """
    nodes = grid.nodes()
    q1, qm = _q_values(ev, g_nodes, h_nodes, nodes, gamma, consts, grid.step)
    run_max = np.maximum.accumulate(q1)
    below_max = np.concatenate(([-np.inf], run_max[:-1]))
    records = q1 > below_max
    records[0] = True
    run_arg = np.maximum.accumulate(np.where(records, np.arange(grid.size), 0))
    below_arg = np.concatenate(([0], run_arg[:-1]))
    merged = (qm >= below_max) & (qm > -np.inf)
    actions = np.where(merged, nodes, nodes[below_arg])
    merged_idx = np.flatnonzero(merged)
    if merged_idx.size == 0:
        return merged, actions, None
    policy = ThresholdPolicy(
        theta=float(nodes[merged_idx[-1]]), c=float(nodes[run_arg[-1]])
    )
    return merged, actions, policy


def greedy_actions(
    vf: ValueFunction, model: ArrivalModel, p: CostParams, consts: CostConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node greedy decision on a value table: (merge flags, actions)."""
    grid = vf.grid
    g_nodes, h_nodes = _reward_nodes(grid.nodes(), p)
    ev = _quadrature(grid, model).expect(vf.values)
    merged, actions, _ = _greedy(grid, ev, g_nodes, h_nodes, p.gamma, consts)
    return merged, actions


def bvi_sweep(
    values: np.ndarray,
    expect: Callable[[np.ndarray], np.ndarray],
    g_nodes: np.ndarray,
    h_nodes: np.ndarray,
    nodes: np.ndarray,
    gamma: float,
    consts: CostConstants,
    top_index: int,
    step: float,
) -> np.ndarray:
    """One synchronous sweep of plateau-bounded value iteration; expect(values)
    gives E[V(node + X)] at every node."""
    q1, qm = _q_values(expect(values), g_nodes, h_nodes, nodes, gamma, consts, step)
    new = values.copy()
    for i in range(top_index + 1):
        non_merge = np.max(q1[:i]) if i > 0 else -np.inf
        new[i] = qm[i] if qm[i] >= non_merge else non_merge
    new[top_index + 1 :] = new[top_index]
    return new


# Both solvers test their own results for non-finite values and raise
# SolverError, so numpy's floating-point warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_bvi(
    grid: StateGrid,
    model: ArrivalModel,
    p: CostParams,
    consts: CostConstants,
    epsilon: float = 0.002,
) -> SolveResult:
    """Plateau-bounded value iteration to tolerance epsilon."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    grid.check_brackets(consts)
    start = time.perf_counter()
    nodes = grid.nodes()
    quad = _quadrature(grid, model)
    g_nodes, h_nodes = _reward_nodes(nodes, p)
    top_index = int(np.searchsorted(nodes, consts.theta_n + 1e-9) - 1)
    values = np.zeros(grid.size)
    iterations = 0
    while True:
        new = bvi_sweep(
            values, quad.expect, g_nodes, h_nodes, nodes, p.gamma, consts, top_index,
            grid.step,
        )
        delta = float(np.max(np.abs(new - values)))
        values = new
        iterations += 1
        if not math.isfinite(delta):
            raise SolverError(f"value iteration diverged: sweep {iterations} delta is {delta!r}")
        if delta < epsilon:
            break
        if iterations >= MAX_SWEEPS:
            raise SolverError(
                f"value iteration did not converge in {MAX_SWEEPS} sweeps "
                f"(last delta {delta:.3g})"
            )
    _, _, policy = _greedy(grid, quad.expect(values), g_nodes, h_nodes, p.gamma, consts)
    if policy is None:
        raise SolverError("greedy policy never merges; grid does not bracket theta")
    vf = ValueFunction(grid, values)
    z = float(values[-1])  # plateau value
    return SolveResult(
        policy=policy,
        value_function=vf,
        z=z,
        iterations=iterations,
        wall_time_s=time.perf_counter() - start,
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as solve_bvi
def solve_ra(
    grid: StateGrid,
    model: ArrivalModel,
    p: CostParams,
    consts: CostConstants,
) -> SolveResult:
    """Recursive approximation: scan candidate thresholds in [c_n, theta_n],
    build each candidate's value function by a single backward pass, and
    select the candidate whose peak best matches the plateau identity."""
    grid.check_brackets(consts)
    start = time.perf_counter()
    nodes = grid.nodes()
    quad = _quadrature(grid, model)
    g_nodes, _ = _reward_nodes(nodes, p)
    g0 = platoon_bonus(p)
    candidate_idx = np.flatnonzero(
        (nodes >= consts.c_n - 1e-9) & (nodes <= consts.theta_n + 1e-9)
    )
    if candidate_idx.size == 0:
        raise SolverError("no grid node lies in [c_n, theta_n]")

    best = None
    for ti in candidate_idx:
        z_i = g_nodes[ti] / (1.0 - p.gamma)
        values = np.empty(grid.size)
        values[ti:] = z_i
        quad.backward_values(values, ti, g_nodes, p.gamma)
        peak_idx = int(np.argmax(values))
        residual = abs(values[peak_idx] - (z_i + g0))
        if not math.isfinite(residual):
            continue
        if best is None or residual <= best[0]:
            best = (residual, ti, peak_idx, z_i, values)
    if best is None:
        raise SolverError("no candidate threshold gives a finite value function")

    _, ti, peak_idx, z_i, values = best
    policy = ThresholdPolicy(theta=float(nodes[ti]), c=float(nodes[peak_idx]))
    return SolveResult(
        policy=policy,
        value_function=ValueFunction(grid, values),
        z=z_i,
        iterations=int(candidate_idx.size),
        wall_time_s=time.perf_counter() - start,
    )


DEFAULT_GRID = StateGrid(m=-100.0, n=400.0, step=0.25)
REDUCED_GRID = StateGrid(m=-50.0, n=150.0, step=1.0)
DEFAULT_EPSILON = 0.002
