"""Spans around platooncoord's layer boundaries, recorded from outside the
package by replacing module attributes with timing wrappers.

A span has a name, start and end (ns since the tracer was made), its parent
span and the operation it belongs to; spans stay in memory in flat columns
and are written out once, when the run ends. ``Tracer.install`` wraps:

- cost: ``compute_constants``;
- arrivals: ``RateEstimator.observe`` and ``estimate``;
- poisson: ``solve``, as a warm (``init`` given) or cold span;
- quadrature: ``adaptive_simpson`` and ``adaptive_simpson_batch``, in both
  ``quadrature`` and ``poisson`` (which imports them by name); a call made
  inside another quadrature call is not a span of its own, and the span's tag
  is the number of points at which the caller's integrand was evaluated;
- dp: ``solve_bvi``, ``solve_ra`` and ``bvi_sweep`` (tag: grid size);
- simulate: ``simulate``, ``calibrate_policy_a``, ``generate_arrivals``,
  ``apply_policy`` (the per-vehicle decision) and ``account_costs``.

Callers must reach these functions through their modules, as ``workloads``
does; the package-level re-exports (``platooncoord.solve_bvi`` and so on)
are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

_cost = importlib.import_module("platooncoord.cost")
_arrivals = importlib.import_module("platooncoord.arrivals")
_poisson = importlib.import_module("platooncoord.poisson")
_quadrature = importlib.import_module("platooncoord.quadrature")
_dp = importlib.import_module("platooncoord.dp")
_sim = importlib.import_module("platooncoord.simulate")

SETUP_OP = -1  # op id of spans recorded outside any workload operation


class Tracer:
    """In-memory span table and counters; ``install`` and ``uninstall``
    switch the wrappers on and off between operations."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.counters = {
            "poisson.newton_iters": 0,
            "poisson.solve.failed": 0,
            "poisson.cold_retries": 0,
            "dp.solve_ra.candidates": 0,
        }
        self.op_id = SETUP_OP
        self._stack = [-1]
        self._t0 = perf_counter_ns()
        self._patched: list[tuple[object, str, object]] = []
        self._quad_depth = 0
        self._failed_warm_rate: float | None = None

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.tag.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns() - self._t0)
        return index

    def _close(self, index: int, tag: int = 0) -> None:
        self.end[index] = perf_counter_ns() - self._t0
        self._stack.pop()
        if tag:
            self.tag[index] = tag

    def __len__(self) -> int:
        return len(self.start)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _span(self, name: str, after=None, tag_of=None):
        name_id = self._id(name)

        def make(original):
            def wrapper(*args, **kwargs):
                index = self._open(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index, tag_of(args) if tag_of else 0)
                if after is not None:
                    after(result)
                return result

            return wrapper

        return make

    def _poisson_solve(self, original):
        warm_id, cold_id = self._id("poisson.solve.warm"), self._id("poisson.solve.cold")

        def wrapper(rate, p, consts, init=None):
            warm = init is not None
            if not warm and self._failed_warm_rate == rate:
                self.counters["poisson.cold_retries"] += 1
            self._failed_warm_rate = None
            index = self._open(warm_id if warm else cold_id)
            try:
                sol = original(rate, p, consts, init=init)
            except Exception:
                self._close(index)
                self.counters["poisson.solve.failed"] += 1
                if warm:
                    self._failed_warm_rate = rate
                raise
            self._close(index)
            self.counters["poisson.newton_iters"] += sol.iterations
            return sol

        return wrapper

    def _quadrature_call(self, original):
        name_id = self._id("quadrature")

        def wrapper(f, *args, **kwargs):
            if self._quad_depth:
                return original(f, *args, **kwargs)
            points = 0

            def counted(t):
                nonlocal points
                points += np.size(t)
                return f(t)

            self._quad_depth += 1
            index = self._open(name_id)
            try:
                return original(counted, *args, **kwargs)
            finally:
                self._close(index, points)
                self._quad_depth -= 1

        return wrapper

    def install(self) -> None:
        """Replace the layer functions with span-recording wrappers."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._patch(_cost, "compute_constants", self._span("cost.compute_constants"))
        self._patch(_arrivals.RateEstimator, "observe", self._span("arrivals.observe"))
        self._patch(_arrivals.RateEstimator, "estimate", self._span("arrivals.estimate"))
        self._patch(_poisson, "solve", self._poisson_solve)
        for owner in (_quadrature, _poisson):
            for attr in ("adaptive_simpson", "adaptive_simpson_batch"):
                self._patch(owner, attr, self._quadrature_call)
        self._patch(_dp, "solve_bvi", self._span("dp.solve_bvi"))
        self._patch(_dp, "solve_ra", self._span("dp.solve_ra", after=self._count_candidates))
        self._patch(_dp, "bvi_sweep", self._span("dp.bvi_sweep", tag_of=lambda a: len(a[0])))
        for attr, name in (
            ("simulate", "simulate.day"),
            ("calibrate_policy_a", "simulate.calibrate_policy_a"),
            ("generate_arrivals", "simulate.generate_arrivals"),
            ("apply_policy", "simulate.decide"),
            ("account_costs", "simulate.account_costs"),
        ):
            self._patch(_sim, attr, self._span(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count_candidates(self, result) -> None:
        self.counters["dp.solve_ra.candidates"] += result.iterations

    # -- results -------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Span table as numpy arrays, plus each span's self time (its
        duration minus the time its child spans cover)."""
        cols = {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.intc).astype(np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.intc).astype(np.int64),
        }
        duration = cols["end_ns"] - cols["start_ns"]
        child = np.zeros(len(duration), dtype=np.int64)
        nested = cols["parent"] >= 0
        np.add.at(child, cols["parent"][nested], duration[nested])
        cols["self_ns"] = duration - child
        return cols

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
