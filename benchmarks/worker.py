"""One benchmark run of flowforms.runner.run, in a process of its own.

Usage: python3 worker.py '<request json>'

The request holds the workload spec, an output directory, whether to
trace and where to write the spans. The worker prints one JSON line with
the run's timings, counts and check results. The parent puts the BLAS
thread variables into this process's environment, so they hold before
numpy loads.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import ExitStack
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def sim_config(spec, out_dir):
    from flowforms.config import SimulationConfig
    cfg = dict(spec["config"])
    for key in ("n_patches", "n_cells"):
        cfg[key] = tuple(cfg[key])
    return SimulationConfig(**cfg, t_final=spec["steps"] * cfg["dt"],
                            output_dir=out_dir)


def check_run(spec, cfg, res):
    """Problems found in a finished run and its output files; empty when
    the run is correct."""
    import numpy as np
    from flowforms.cases import case_library
    from flowforms.diagnostics import l2_error
    from flowforms.runner import CSV_HEADER
    from flowforms.spaces import eval_field

    tol = spec["checks"]
    recs = res.records
    problems = []
    if res.failed:
        problems.append("run aborted after a failed step")
    if res.steps != spec["steps"]:
        problems.append(f"took {res.steps} steps, expected {spec['steps']}")
    if not all(np.isfinite([r.energy, r.div_l2, *r.momentum]).all()
               for r in recs):
        problems.append("non-finite diagnostics")

    def bound(name, value):
        if not value <= tol[name]:
            problems.append(f"{name} = {value:.3e} exceeds {tol[name]:.3e}")

    bound("div_l2", max(r.div_l2 for r in recs))
    if "momentum_drift" in tol:
        bound("momentum_drift", max(float(np.abs(r.momentum - recs[0].momentum)
                                          .max()) for r in recs))
    if "energy_drift" in tol:
        bound("energy_drift", max(abs(r.energy - recs[0].energy)
                                  for r in recs) / recs[0].energy)
    if "l2_error" in tol:
        exact = case_library(spec["config"]["case"]).exact
        nu = spec["config"]["nu"]
        bound("l2_error", l2_error(res.u.space, res.u,
                                   lambda X, Y: exact(X, Y, res.t, nu)))

    with open(res.diagnostics_path) as fh:
        rows = fh.read().splitlines()
    last = recs[-1]
    want = [last.time, last.energy, *last.momentum, last.div_l2]
    if rows[:1] != [CSV_HEADER] or len(rows) != len(recs) + 1:
        problems.append(f"diagnostics file has {len(rows)} lines, "
                        f"expected {len(recs) + 1}")
    elif [float(v) for v in rows[-1].split(",")[:5]] != want:
        problems.append("diagnostics file's last row differs from the run")

    cadence = cfg.snapshot_cadence
    if cadence > 0:
        grid = cfg.snapshot_grid
        if len(res.snapshot_paths) != res.steps // cadence + 1:
            problems.append(f"{len(res.snapshot_paths)} snapshots written, "
                            f"expected {res.steps // cadence + 1}")
        for path in res.snapshot_paths:
            with open(path) as fh:
                n = sum(1 for _ in fh)
            if n != 3 + grid * grid:
                problems.append(f"{os.path.basename(path)} has {n} lines")
        vals = np.loadtxt(res.snapshot_paths[-1])
        (x0, x1), (y0, y1) = res.u.space.bounds
        uv = eval_field(res.u, np.linspace(x0, x1, grid),
                        np.linspace(y0, y1, grid))
        if vals.shape != (grid * grid, 6) or not np.allclose(
                vals[:, 2:4], uv.reshape(-1, 2), rtol=0.0, atol=1e-12):
            problems.append("last snapshot differs from the final velocity")
    return problems


def run_once(spec, out_dir, trace=False, spans_path=None):
    """Run the workload once; returns the result dict the worker prints."""
    import numpy as np
    import scipy
    import flowforms
    from flowforms import runner
    from flowforms.stepper import StepFailure
    from tracer import SETUP_LAYERS, Tracer, install, layer_metrics

    cfg = sim_config(spec, out_dir)
    marks = []          # perf_counter at each progress callback
    failed_steps = set()

    def counted_step(*args, **kwargs):
        try:
            return cn_step(*args, **kwargs)
        except StepFailure:
            failed_steps.add(len(marks))
            raise

    cn_step = runner.cn_step
    tracer = Tracer()
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(runner, "cn_step", counted_step))
        run = runner.run
        if trace:
            stack.enter_context(install(tracer))
            run = tracer.wrap("runner.run", run)
        else:
            # set-up spans only, for setup_s and the first step's start
            for attr, name in SETUP_LAYERS:
                stack.enter_context(mock.patch.object(
                    runner, attr, tracer.wrap(name, getattr(runner, attr))))
        t0 = time.perf_counter()
        res = run(cfg, progress=lambda *_: marks.append(time.perf_counter()))
        wall = time.perf_counter() - t0
    first = next(end for _, _, name, _, end in tracer.spans
                 if name == "stepper.initialize")
    # ru_maxrss is in KiB on Linux; read before the checks load anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_run(spec, cfg, res)
    attempted = res.steps + int(res.failed)
    s = res.u.space
    out = {
        "wall_s": wall,
        "setup_s": sum(tracer.layers[name][1] for _, name in SETUP_LAYERS),
        "step_ms": [1e3 * d for d in np.diff([first, *marks])],
        "steps": res.steps,
        "picard_iters": sum(r.picard_iterations for r in res.records),
        "attempted": attempted,
        "failed": attempted if problems else len(failed_steps),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "dofs": {"n0": s.n0, "n1": s.n1, "n2": s.n2},
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "flowforms": flowforms.__version__},
    }
    if trace:
        layers = layer_metrics(tracer, wall, len(failed_steps))
        out["layers"] = {k: list(v) for k, v in layers.items()}
        out["layer_times"] = tracer.layers
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump({"trace_id": os.path.basename(out_dir),
                           "fields": ["id", "parent", "name", "start", "end"],
                           "spans": tracer.spans}, fh)
    return out


def main(argv):
    req = json.loads(argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    out = run_once(req["spec"], req["out_dir"], req["trace"],
                   req.get("spans_path"))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
