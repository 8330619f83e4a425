"""Spans around the calls into each flowforms layer, recorded from the
benchmark's own files by patching the names that callers look up.

`runner` and `stepper` import `build_multipatch`, `initialize`,
`cn_step`, `measure`, `advection_residual`, `viscous_residual` and the
others by name (`from .stepper import cn_step`), so a wrapper must
replace the name in the importing module: patching the defining module
would leave the solver calling the original. Methods are patched on
their class, which every caller reaches through attribute lookup.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from unittest import mock

# Layers that do not run on every workload (zero calls on some) report
# calls only: their ms, self_ms and share would read exactly 0 on every
# run of such a workload, a constant and not a measurement. Their times
# are in the record of the call.
IDLE_ON_SOME = ("operators.viscous_residual", "runner.write_snapshot",
                "spaces.eval_field")
# runner.run calls these by name; their spans give setup_s
SETUP_LAYERS = (("build_simulation", "runner.build_simulation"),
                ("initialize", "stepper.initialize"))
LAYERS = (
    "runner.run", "runner.build_simulation", "multipatch.build_multipatch",
    "operators.OperatorContext", "stepper.initialize",
    "operators.poisson_setup", "stepper.cn_step",
    "operators.advection_residual", "operators.weak_grad_full",
    "spaces.grid_eval", "spaces.grid_moments", "linalg.kron_solve",
    "operators.poisson_solve", "diagnostics.measure",
    "runner.write_diagnostics",
) + IDLE_ON_SOME


class Tracer:
    """Spans kept in memory as (id, parent id, name, start, end), in
    perf_counter seconds; per-layer calls, total and self time are summed
    as spans close. One Tracer traces one run."""

    def __init__(self):
        self.spans = []
        self.layers = {}     # name -> [calls, total s, self s]
        self.counters = {}   # name -> number
        self._stack = []     # open spans: [id, child seconds]
        self._open = {}      # name -> open span count
        self._next_id = 0

    def inside(self, name):
        return self._open.get(name, 0) > 0

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        """fn with a span named `name`; after(tracer, args, result) runs
        on success, outside the span."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            self._open[name] = self._open.get(name, 0) + 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                self.spans.append((frame[0], parent[0] if parent else None,
                                   name, start, end))
                rec = self.layers.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if after is not None:
                after(self, args, out)
            return out
        return traced


def _eval_flops(Ea, Eb):
    # Ea @ C @ Eb.T with C of shape (na, nb), left product first
    (qa, na), (qb, nb) = Ea.shape, Eb.shape
    return 2 * qa * na * nb + 2 * qa * nb * qb


def _moment_flops(Ea, Eb):
    # Ea.T @ V @ Eb with V of shape (qa, qb), left product first
    (qa, na), (qb, nb) = Ea.shape, Eb.shape
    return 2 * na * qa * qb + 2 * na * qb * nb


def _grid_pairs(space, slot):
    lx, ly = space.line_x, space.line_y
    return {"v0": [(lx.E_h1, ly.E_h1)], "v2": [(lx.E_l2, ly.E_l2)],
            "v1": [(lx.E_h1, ly.E_l2), (lx.E_l2, ly.E_h1)]}[slot]


def _grid_counter(slot, flops):
    def after(tracer, args, out):
        if tracer.inside("stepper.cn_step"):
            tracer.count("spaces.grid_flops", sum(
                flops(Ea, Eb) for Ea, Eb in _grid_pairs(args[0], slot)))
    return after


def _picard(tracer, args, out):
    tracer.count("stepper.picard_iters", out[2].picard_iterations)


def _bytes(name, path_of):
    def after(tracer, args, out):
        tracer.count(name, os.path.getsize(path_of(args, out)))
    return after


def install(tracer):
    """Context manager that routes every layer boundary through `tracer`."""
    from flowforms import linalg, operators, runner, spaces, stepper
    poisson = operators.TensorPoissonSolver
    stack = ExitStack()

    def patch(owner, attr, name, after=None):
        wrapped = tracer.wrap(name, getattr(owner, attr), after)
        stack.enter_context(mock.patch.object(owner, attr, wrapped))

    for attr, name in SETUP_LAYERS:
        patch(runner, attr, name)
    patch(runner, "build_multipatch", "multipatch.build_multipatch")
    patch(operators.OperatorContext, "__init__", "operators.OperatorContext")
    patch(poisson, "__init__", "operators.poisson_setup")
    patch(runner, "cn_step", "stepper.cn_step", _picard)
    patch(stepper, "advection_residual", "operators.advection_residual")
    patch(stepper, "viscous_residual", "operators.viscous_residual")
    patch(operators, "weak_grad_full", "operators.weak_grad_full")
    for slot in ("v0", "v1", "v2"):
        patch(spaces.TensorDeRhamSpace, f"grid_eval_{slot}",
              "spaces.grid_eval", _grid_counter(slot, _eval_flops))
        patch(spaces.TensorDeRhamSpace, f"grid_moments_{slot}",
              "spaces.grid_moments", _grid_counter(slot, _moment_flops))
    patch(linalg.KroneckerSolver, "solve", "linalg.kron_solve")
    patch(poisson, "solve", "operators.poisson_solve")
    patch(poisson, "matvec", "operators.poisson_check")
    patch(runner, "measure", "diagnostics.measure")
    patch(runner, "write_snapshot", "runner.write_snapshot",
          _bytes("runner.write_snapshot.bytes", lambda args, out: out))
    # write_snapshot imports eval_field from the module at call time
    patch(spaces, "eval_field", "spaces.eval_field")
    patch(runner, "write_diagnostics", "runner.write_diagnostics",
          _bytes("runner.write_diagnostics.bytes", lambda args, out: args[1]))
    return stack


def layer_metrics(tracer, wall_s, step_failures):
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    out = {}
    for name in LAYERS:
        calls, total, own = tracer.layers.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        if name not in IDLE_ON_SOME:
            out[f"{name}.ms"] = (1e3 * total, "ms")
            out[f"{name}.self_ms"] = (1e3 * own, "ms")
            out[f"{name}.share"] = (100.0 * total / wall_s, "%")
    iters = tracer.counters.get("stepper.picard_iters", 0)
    steps = tracer.layers.get("stepper.cn_step", (0,))[0]
    step_s = tracer.layers.get("stepper.cn_step", (0, 0.0))[1]
    # the direct solve calls matvec only for its report's residual
    check_s = tracer.layers.get("operators.poisson_check", (0, 0.0))[1]
    out.update({
        "stepper.picard_iters": (iters, "count"),
        "stepper.picard_per_step": (iters / max(steps, 1), "iters/step"),
        "stepper.iter_ms": (1e3 * step_s / max(iters, 1), "ms"),
        "stepper.step_failures": (step_failures, "count"),
        # computed from the matrix shapes, not measured
        "spaces.grid_mflop_per_iter": (
            tracer.counters.get("spaces.grid_flops", 0) / 1e6
            / max(iters, 1), "MFLOP/iter"),
        "operators.poisson_check_share": (100.0 * check_s / wall_s, "%"),
        "runner.write_snapshot.bytes": (
            tracer.counters.get("runner.write_snapshot.bytes", 0), "B"),
        "runner.write_diagnostics.bytes": (
            tracer.counters.get("runner.write_diagnostics.bytes", 0), "B"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return out
