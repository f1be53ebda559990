"""Traced pass: wrappers installed from the benchmark around each layer.

No file of the package changes.  The tracer replaces functions on the
modules that call them (``frontlab.evolve.advect``, ``frontlab.front.splu``,
``EllipticPlan.solve_helmholtz``...) with wrappers that record one span
per call: name, start, end and the index of the enclosing span.  Spans stay
in memory until the run ends.  A site the package no longer has is skipped,
so a refactor that removes it reads as zero calls in that layer rather than
as a crash.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from frontlab import diagnostics, evolve, flow, front, inequalities, io, laminar
from frontlab.elliptic import EllipticPlan


def _lu_fill(lu):
    return lu.nnz


def _stage_iterations(sol):
    return sol.iterations


def _failed_stage_iterations(exc):
    return len(getattr(exc, "residual_history", ()))


def _decay_steps(series):
    return len(series.t) - 1


# (owner, attribute, span name, result hook, exception hook).  Sites are
# where each layer is entered from the layer above it; a hook turns the
# call's result or exception into the span's value.
SITES = (
    (front, "find_front", "front.find_front", None, None),
    (front, "solve_steady", "front.stage", None, None),
    (front, "solve_steady_pinned", "front.stage", _stage_iterations, _failed_stage_iterations),
    (front, "splu", "front.splu", _lu_fill, None),
    (front, "velocity_from_vorticity", "flow.velocity", None, None),
    (front, "dx_bc", "grid.deriv", None, None),
    (front, "dz_bc", "grid.deriv", None, None),
    (evolve, "step", "evolve.step", None, None),
    (evolve, "velocity_from_vorticity", "flow.velocity", None, None),
    (evolve, "advect", "flow.advect", None, None),
    (evolve, "buoyancy_torque", "flow.buoyancy", None, None),
    (evolve, "burning_rate", "diagnostics.row", None, None),
    (evolve, "nusselt", "diagnostics.row", None, None),
    (evolve, "u_sup", "diagnostics.row", None, None),
    (evolve, "nz_norm", "diagnostics.row", None, None),
    (evolve, "omega_enstrophy", "diagnostics.row", None, None),
    (evolve, "winn_functional", "diagnostics.row", None, None),
    (evolve, "front_position", "diagnostics.row", None, None),
    (flow, "dx_bc", "grid.deriv", None, None),
    (flow, "dz_bc", "grid.deriv", None, None),
    (flow, "_diff_ghost_axis", "grid.deriv", None, None),  # the stencil advect applies
    (diagnostics, "dz_bc", "grid.deriv", None, None),
    (EllipticPlan, "solve_helmholtz", "elliptic.helmholtz", None, None),
    (EllipticPlan, "solve_poisson", "elliptic.poisson", None, None),
    (inequalities, "decay_experiment", "inequalities.run", _decay_steps, None),
    (io, "write_timeseries_csv", "io.csv_write", None, None),
    (laminar, "laminar_speed", "laminar.speed", None, None),
)

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "front.stages": "count",
    "front.newton_iters": "count",
    "front.factorizations": "count",
    "front.factor_s": "s",
    "front.lu_nnz": "count",
    "front.self_s": "s",
    "flow.velocity_calls": "count",
    "flow.velocity_s": "s",
    "flow.advect_calls": "count",
    "flow.advect_s": "s",
    "flow.buoyancy_s": "s",
    "elliptic.helmholtz_calls": "count",
    "elliptic.helmholtz_s": "s",
    "elliptic.poisson_calls": "count",
    "elliptic.poisson_s": "s",
    "grid.deriv_calls": "count",
    "grid.deriv_s": "s",
    "diagnostics.row_s": "s",
    "evolve.steps": "count",
    "evolve.step_s": "s",
    "evolve.step_ms_p50": "ms",
    "evolve.step_ms_p99": "ms",
    "evolve.recenter_events": "count",
    "io.csv_write_s": "s",
    "inequalities.runs": "count",
    "inequalities.steps": "count",
    "inequalities.step_us": "us",
    "laminar.speed_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        # [name, start, end, index of the enclosing span or -1, hook value]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, on_result, on_error in SITES:
            original = getattr(owner, attr, None)
            if original is not None:
                setattr(owner, attr, self._wrap(original, name, on_result, on_error))
                self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, on_result, on_error):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    span[4] = on_error(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                span[4] = on_result(result)
            return result

        return wrapper

    def layer_metrics(self, first: int = 0) -> dict:
        """Per-layer metrics of the spans recorded from index `first` on."""
        spans = self.spans
        calls: dict = defaultdict(int)
        busy: dict = defaultdict(float)
        total: dict = defaultdict(int)
        peak: dict = defaultdict(int)
        child_s: dict = defaultdict(float)
        for name, start, end, parent, value in spans[first:]:
            calls[name] += 1
            total[name] += value
            peak[name] = max(peak[name], value)
            if parent >= first:
                child_s[parent] += end - start
            # busy time counts a span once even if it nests in its own name
            p = parent
            while p >= first and spans[p][0] != name:
                p = spans[p][3]
            if p < first:
                busy[name] += end - start
        front_self = sum(
            spans[i][2] - spans[i][1] - child_s[i]
            for i in range(first, len(spans))
            if spans[i][0] in ("front.find_front", "front.stage")
        )
        steps = total["inequalities.run"]
        return {
            "front.stages": calls["front.stage"],
            "front.newton_iters": total["front.stage"],
            "front.factorizations": calls["front.splu"],
            "front.factor_s": busy["front.splu"],
            "front.lu_nnz": peak["front.splu"],
            "front.self_s": front_self,
            "flow.velocity_calls": calls["flow.velocity"],
            "flow.velocity_s": busy["flow.velocity"],
            "flow.advect_calls": calls["flow.advect"],
            "flow.advect_s": busy["flow.advect"],
            "flow.buoyancy_s": busy["flow.buoyancy"],
            "elliptic.helmholtz_calls": calls["elliptic.helmholtz"],
            "elliptic.helmholtz_s": busy["elliptic.helmholtz"],
            "elliptic.poisson_calls": calls["elliptic.poisson"],
            "elliptic.poisson_s": busy["elliptic.poisson"],
            "grid.deriv_calls": calls["grid.deriv"],
            "grid.deriv_s": busy["grid.deriv"],
            "diagnostics.row_s": busy["diagnostics.row"],
            "evolve.steps": calls["evolve.step"],
            "evolve.step_s": busy["evolve.step"],
            "io.csv_write_s": busy["io.csv_write"],
            "inequalities.runs": calls["inequalities.run"],
            "inequalities.steps": steps,
            "inequalities.step_us": busy["inequalities.run"] / steps * 1e6 if steps else 0.0,
            "laminar.speed_s": busy["laminar.speed"],
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "value")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def step_percentiles(step_ms: list) -> tuple[float, float]:
    """Median and 99th percentile of the observer intervals, in ms."""
    if not step_ms:
        return 0.0, 0.0
    return float(np.percentile(step_ms, 50)), float(np.percentile(step_ms, 99))
