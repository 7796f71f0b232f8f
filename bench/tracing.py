"""Counting and tracing wrappers installed from outside the program.

Both replace the module attributes through which one ``aitax`` layer calls
the next; the program itself is not edited.

* ``EvalCounter`` wraps ``aitax.planner.newton_solve`` and the residual
  callback it is handed, so every KKT residual evaluation of the planner is
  counted exactly.  It costs one Python call per evaluation.
* ``Tracer`` records one span (name, start, end, parent) per call at every
  layer boundary listed in ``BOUNDARIES``, keeps the spans in memory and
  turns them into per-layer metrics.  Self time is a span's duration minus
  the time its child spans cover.

Both fail the run (``CounterGuardError``) when a boundary the workload must
cross recorded no call, so a refactor that moves an import cannot silently
zero a counter.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np


class CounterGuardError(Exception):
    """A boundary the workload must cross recorded zero calls."""


def _patch(module_name: str, attr: str, make):
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        raise CounterGuardError(f"boundary {module_name}.{attr} is gone")
    setattr(module, attr, make(getattr(module, attr)))


class EvalCounter:
    """Exact count of residual evaluations made through ``newton_solve``."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.evals = 0

    def install(self) -> None:
        def make(newton_solve):
            def counted(f, x0, **kw):
                def residual(x):
                    self.evals += 1
                    return f(x)
                return newton_solve(residual, x0, **kw)
            return counted
        _patch("aitax.planner", "newton_solve", make)

    def guard(self, workload: str) -> None:
        if self.evals == 0:
            raise CounterGuardError(f"{workload}: newton_solve counted no residual evaluation")


# (module, attribute, span name); the span name's prefix is the layer
BOUNDARIES = (
    ("aitax.cli", "main", "cli.main"),
    ("aitax.cli", "load_config", "configio.load"),
    ("aitax.cli", "solve_steady_state", "planner.solve"),
    ("aitax.cli", "solve_finite_horizon", "planner.solve"),
    ("aitax.sweep", "solve_steady_state", "planner.solve"),
    ("aitax.planner", "evaluate", "production.evaluate"),
    ("aitax.planner", "mpl_ratio_gradient", "production.ratio_grad"),
    ("aitax.planner", "check_assumptions", "production.assumptions"),
    ("aitax.cli", "check_assumptions", "production.assumptions"),
    ("aitax.planner", "foc_residuals", "planner.foc_residuals"),
    ("aitax.cli", "foc_residuals", "planner.foc_residuals"),
    ("aitax.cli", "compute_wedge_report", "wedges.report"),
    ("aitax.cli", "load_solution", "reporting.load"),
    ("aitax.cli", "sweep", "sweep.sweep"),
    ("aitax.cli", "find_threshold", "sweep.threshold"),
)
# special wrappers below: newton (+ its residual callback), the oracle, the writers
WRITERS = ("write_json", "write_manifest_sidecar", "write_solution_csv", "write_sweep_csv")

# the units of every per-layer metric, in output order
PER_LAYER_UNITS = {
    "newton.calls_per_op": "count",
    "newton.converged_share": "ratio",
    "newton.iters_per_op": "count",
    "newton.evals_per_iter": "count",
    "newton.self_ms_per_op": "ms",
    "planner.solves_per_op": "count",
    "planner.solve_ms_per_op": "ms",
    "planner.residual_us_per_eval": "us",
    "planner.residual_ms_per_op": "ms",
    "planner.self_ms_per_op": "ms",
    "planner.foc_residuals_ms_per_op": "ms",
    "production.evaluate_calls_per_op": "count",
    "production.evaluate_us_per_call": "us",
    "production.ratio_grad_us_per_call": "us",
    "production.assumptions_ms_per_op": "ms",
    "sweep.sweep_ms_per_op": "ms",
    "sweep.threshold_ms_per_op": "ms",
    "sweep.threshold_solves_per_op": "count",
    "oracle.grid_ms_per_op": "ms",
    "oracle.grid_points_per_op": "count",
    "oracle.peak_alloc_mb": "MB",
    "wedges.report_ms_per_op": "ms",
    "reporting.write_ms_per_op": "ms",
    "reporting.bytes_written_per_op": "bytes",
    "reporting.load_ms_per_op": "ms",
    "configio.load_ms_per_op": "ms",
    "cli.self_ms_per_op": "ms",
    "bench.traced_ops_per_s": "1/s",
}


class Tracer:
    """In-memory spans at the layer boundaries, plus exact per-call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.newton_iters = 0
        self.newton_converged = 0
        self.grid_points = 0
        self.bytes_written = 0
        self.oracle_peak = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[i] = clock()
        return traced

    def install(self) -> None:
        for module, attr, name in BOUNDARIES:
            _patch(module, attr, lambda fn, name=name: self.wrap(name, fn))

        def make_newton(newton_solve):
            def newton(f, x0, **kw):
                result = newton_solve(self.wrap("planner.residual", f), x0, **kw)
                self.newton_iters += result.iterations
                self.newton_converged += bool(result.converged)
                return result
            return self.wrap("newton", newton)
        _patch("aitax.planner", "newton_solve", make_newton)

        def make_oracle(brute_force_steady):
            def oracle(config, grid, *args, **kw):
                self.grid_points += grid.n_points
                tracemalloc.start()
                try:
                    return brute_force_steady(config, grid, *args, **kw)
                finally:
                    self.oracle_peak = max(self.oracle_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return self.wrap("oracle.grid", oracle)
        _patch("aitax.cli", "brute_force_steady", make_oracle)

        def make_writer(write):
            def writer(path, *args, **kw):
                written = write(path, *args, **kw)
                self.bytes_written += os.path.getsize(written or path)
                return written
            return self.wrap("reporting.write", writer)
        for attr in WRITERS:
            _patch("aitax.cli", attr, make_writer)

    def _arrays(self):
        return (np.asarray(self.name, dtype=np.int32), np.asarray(self.parent, dtype=np.int32),
                np.asarray(self.start, dtype=float), np.asarray(self.end, dtype=float))

    def metrics(self, n_ops: int, window_s: float, scale: float, required: tuple[str, ...],
                workload: str) -> dict:
        """Per-layer metrics; times are multiplied by ``scale`` (see speed.py)."""
        name, parent, start, end = self._arrays()
        dur = (end - start) * scale
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        def select(span: str):
            nid = self._ids.get(span)
            return name == nid if nid is not None else np.zeros(len(name), bool)

        count = {s: int(np.count_nonzero(select(s))) for s in self.names}
        missing = [s for s in required if count.get(s, 0) == 0]
        if missing:
            raise CounterGuardError(f"{workload}: no call recorded at {', '.join(missing)}")

        calls = lambda s: count.get(s, 0)
        total = lambda s: float(dur[select(s)].sum())
        own = lambda *spans: float(sum(self_time[select(s)].sum() for s in spans))
        per_op = lambda v: v / n_ops
        per_call = lambda s: total(s) / calls(s) * 1e6 if calls(s) else 0.0

        threshold_solves = 0
        thr = self._ids.get("sweep.threshold")
        if thr is not None:
            for i in np.flatnonzero(select("planner.solve")):
                j = parent[i]
                while j >= 0 and name[j] != thr:
                    j = parent[j]
                threshold_solves += j >= 0

        out = {
            "newton.calls_per_op": per_op(calls("newton")),
            "newton.converged_share": self.newton_converged / max(calls("newton"), 1),
            "newton.iters_per_op": per_op(self.newton_iters),
            "newton.evals_per_iter": calls("planner.residual") / max(self.newton_iters, 1),
            "newton.self_ms_per_op": per_op(own("newton")) * 1e3,
            "planner.solves_per_op": per_op(calls("planner.solve")),
            "planner.solve_ms_per_op": per_op(total("planner.solve")) * 1e3,
            "planner.residual_us_per_eval": per_call("planner.residual"),
            "planner.residual_ms_per_op": per_op(total("planner.residual")) * 1e3,
            "planner.self_ms_per_op":
                per_op(own("planner.solve", "planner.residual", "planner.foc_residuals")) * 1e3,
            "planner.foc_residuals_ms_per_op": per_op(total("planner.foc_residuals")) * 1e3,
            "production.evaluate_calls_per_op": per_op(calls("production.evaluate")),
            "production.evaluate_us_per_call": per_call("production.evaluate"),
            "production.ratio_grad_us_per_call": per_call("production.ratio_grad"),
            "production.assumptions_ms_per_op": per_op(total("production.assumptions")) * 1e3,
            "sweep.sweep_ms_per_op": per_op(total("sweep.sweep")) * 1e3,
            "sweep.threshold_ms_per_op": per_op(total("sweep.threshold")) * 1e3,
            "sweep.threshold_solves_per_op": per_op(threshold_solves),
            "oracle.grid_ms_per_op": per_op(total("oracle.grid")) * 1e3,
            "oracle.grid_points_per_op": per_op(self.grid_points),
            "oracle.peak_alloc_mb": self.oracle_peak / 2**20,
            "wedges.report_ms_per_op": per_op(total("wedges.report")) * 1e3,
            "reporting.write_ms_per_op": per_op(total("reporting.write")) * 1e3,
            "reporting.bytes_written_per_op": per_op(self.bytes_written),
            "reporting.load_ms_per_op": per_op(total("reporting.load")) * 1e3,
            "configio.load_ms_per_op": per_op(total("configio.load")) * 1e3,
            "cli.self_ms_per_op": per_op(own("cli.main")) * 1e3,
            "bench.traced_ops_per_s": n_ops / (window_s * scale),
        }
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as arrays: name id, parent index, start and end (s)."""
        name, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)
