"""Simulation driver: builds the discrete problem from a configuration,
advances it in time, and writes diagnostics/snapshot files."""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsRecord, l2_error, measure
from .multipatch import build_multipatch
from .operators import OperatorContext, weak_curl_with_tangential_bc
from .spaces import Field, PointSampler, coeffs_of
from .stepper import StepFailure, cfl_dt, cn_step, initialize

CSV_HEADER = ("time,energy,mom_x,mom_y,div_l2,jump_energy,"
              "enstrophy_term,picard_iters")


@dataclass
class RunResult:
    records: list
    u: Field
    p: np.ndarray
    t: float
    steps: int
    steady: bool
    failed: bool
    retries: int
    diagnostics_path: str
    snapshot_paths: list


def build_simulation(cfg):
    """(ctx, case, resolved cfg) from a SimulationConfig."""
    cfg, case = cfg.resolve()
    x0, x1, y0, y1 = cfg.domain
    space = build_multipatch(
        degree=cfg.degree, n_patches=cfg.n_patches,
        cells_per_patch=cfg.n_cells, bounds=((x0, x1), (y0, y1)),
        periodic=cfg.periodic)
    ctx = OperatorContext(space, bc=cfg.boundary, forcing=case.forcing)
    return ctx, case, cfg


def _record_to_row(rec: DiagnosticsRecord) -> str:
    vals = [rec.time, rec.energy, rec.momentum[0], rec.momentum[1],
            rec.div_l2, rec.jump_energy, rec.enstrophy_term]
    return ",".join(repr(float(v)) for v in vals) + f",{rec.picard_iterations}"


def write_diagnostics(records, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(_record_to_row(rec) + "\n")


# space -> sampling grid -> (PointSampler of its axes, file body template
# of fixed "x y " text and a %r per field column); lives with its space
_SAMPLERS = weakref.WeakKeyDictionary()


def write_snapshot(ctx, u, p, t, path, grid=64):
    """Plain-text field dump on a uniform sampling grid: u_x, u_y, p and
    the vorticity, sampled as eval_field samples them."""
    s = ctx.space
    cached = _SAMPLERS.setdefault(s, {}).get(grid)
    if cached is None:
        xs, ys = (np.linspace(*line.interval, grid)
                  for line in (s.line_x, s.line_y))
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        body = "".join(
            f"{x!r} {y!r} %r %r %r %r\n"
            for x, y in zip(X.ravel().tolist(), Y.ravel().tolist()))
        cached = _SAMPLERS[s][grid] = (PointSampler(s, xs, ys), body)
    sampler, body = cached
    fields = (Field(s, 1, coeffs_of(u)), Field(s, 2, p),
              weak_curl_with_tangential_bc(ctx, u))
    cols = np.column_stack([v.ravel() for f in fields
                            for v in sampler.values(f)])
    with open(path, "w") as fh:
        fh.write(f"# t = {t!r}\n")
        fh.write(f"# grid = {grid} x {grid}\n")
        fh.write("# columns: x y u_x u_y p omega\n")
        fh.write(body % tuple(cols.ravel().tolist()))
    return path


def run(cfg, progress=None):
    """Advance the configured case to t_final. Returns a RunResult.

    From the second step on, cn_step starts its iteration at the linear
    extrapolation u^n + (dt/dt_prev)(u^n - u^{n-1}) of the last two
    accepted states, dt_prev the step the last one actually took. A step
    that raises StepFailure is retried once at half dt from u^n (counted
    in retries); a doubly-failed step aborts the run (failed=True) after
    writing the last good state."""
    ctx, case, cfg = build_simulation(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    diag_path = os.path.join(cfg.output_dir, cfg.diagnostics_file)

    u = initialize(ctx, case.initial)
    p = np.zeros(ctx.space.n2)
    t, step, steady, failed, retries = 0.0, 0, False, False, 0
    # u^n - u^{n-1} and the step that produced it, for the initial guess
    du, dt_prev = None, None
    records = [measure(ctx, u, t)]
    snaps = []

    def snap(tag):
        path = os.path.join(cfg.output_dir, f"{cfg.snapshot_prefix}_{tag}.dat")
        snaps.append(write_snapshot(ctx, u, p, t, path, cfg.snapshot_grid))

    if cfg.snapshot_cadence > 0:
        snap("000000")

    # summed dt carries roundoff of order steps * eps * t_final: a relative
    # stop keeps a fixed-dt run at round(t_final / dt) steps, and a last
    # step within that of dt takes dt, so one gamma serves the whole run
    while t < cfg.t_final * (1.0 - 1e-10):
        dt = cfg.dt or cfl_dt(ctx, u, cfg)
        if cfg.t_final - t < dt - 1e-10 * cfg.t_final:
            dt = cfg.t_final - t
        guess = None if du is None else u.coeffs + (dt / dt_prev) * du
        try:
            u_next, p, rep = cn_step(ctx, u, cfg, dt=dt, guess=guess)
        except StepFailure:
            retries += 1
            try:
                dt = 0.5 * dt
                u_next, p, rep = cn_step(ctx, u, cfg, dt=dt)
            except StepFailure:
                failed = True
                break
        du, dt_prev = u_next.coeffs - u.coeffs, rep.dt_used
        delta = float(np.linalg.norm(du))
        u, t, step = u_next, t + rep.dt_used, step + 1
        records.append(measure(ctx, u, t, rep.picard_iterations))
        if progress is not None:
            progress(step, t, records[-1])
        if cfg.snapshot_cadence > 0 and step % cfg.snapshot_cadence == 0:
            snap(f"{step:06d}")
        if delta / rep.dt_used < cfg.steady_tol:
            steady = True
            break

    write_diagnostics(records, diag_path)
    # always leave the last good state on disk after a failure
    if cfg.snapshot_cadence > 0 or failed:
        last = f"{cfg.snapshot_prefix}_{step:06d}.dat"
        if not snaps or not snaps[-1].endswith(last):
            snap(f"{step:06d}")
    return RunResult(records=records, u=u, p=p, t=t, steps=step,
                     steady=steady, failed=failed, retries=retries,
                     diagnostics_path=diag_path, snapshot_paths=snaps)


def study_case(cfg):
    """(resolved cfg, case) of a convergence study; raises ValueError
    when the config is invalid or the case has no exact solution."""
    base, case = cfg.resolve()
    if case.exact is None:
        raise ValueError(f"case {base.case!r} has no exact solution")
    return base, case


def convergence_study(cfg, meshes, degrees, out_path=None):
    """Refinement sweep against the case's exact solution. meshes count
    total cells per direction; rows are (degree, n, h, error, order) with
    'failed' markers when a run does not finish."""
    base, case = study_case(cfg)
    rows = []
    for deg in degrees:
        prev = None
        for n in meshes:
            npx, npy = base.n_patches
            if n % npx or n % npy:
                raise ValueError(
                    f"mesh {n} not divisible by patch counts {base.n_patches}")
            sub = replace(base, degree=deg,
                          n_cells=(n // npx, n // npy),
                          snapshot_cadence=0)
            x0, x1, _, _ = sub.domain
            h = (x1 - x0) / n
            try:
                res = run(sub)
                if res.failed:
                    raise StepFailure("run aborted")
                nu = sub.resolve()[0].nu
                err = l2_error(res.u.space, res.u,
                               lambda X, Y: case.exact(X, Y, res.t, nu))
                order = (float(np.log(prev[1] / err) / np.log(prev[0] / h))
                         if prev else float("nan"))
                rows.append((deg, n, h, err, order))
                prev = (h, err)
            except (StepFailure, FloatingPointError):
                rows.append((deg, n, h, float("nan"), float("nan")))
                prev = None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("degree,n_cells,h,error,order\n")
            for deg, n, h, err, order in rows:
                err_s = "failed" if np.isnan(err) else repr(float(err))
                ord_s = "" if np.isnan(order) else repr(float(order))
                fh.write(f"{deg},{n},{repr(h)},{err_s},{ord_s}\n")
    return rows
