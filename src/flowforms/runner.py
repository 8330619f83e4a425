"""Simulation driver: builds the discrete problem from a configuration,
picks each step's dt (error control, rung) and advances the coefficient
arrays in time, writes diagnostics/snapshot files, and hands out RunResult.u."""

from __future__ import annotations

import math
import os
import weakref
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import l2_error, measure
from .operators import OperatorContext, weak_curl_with_tangential_bc
from .spaces import Field, build_multipatch, collocation
from .stepper import StepFailure, cn_step, initialize

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
    retries: int       # redone attempts: halved on StepFailure, or rejected
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


def write_diagnostics(records, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            vals = [rec.time, rec.energy, *rec.momentum, rec.div_l2,
                    rec.jump_energy, rec.enstrophy_term]
            fh.write(",".join(repr(float(v)) for v in vals)
                     + f",{rec.picard_iterations}\n")


# space -> sampling grid -> (the collocation factors of its axes, file body
# template of fixed "x y " text and a %r per field column); lives with its space
_SAMPLERS = weakref.WeakKeyDictionary()


def write_snapshot(ctx, u, p, t, path, grid=64):
    """Plain-text dump of the coefficients u (V1) and p (V2) on a uniform
    sampling grid: u_x, u_y, p and the vorticity, as eval_field samples them."""
    s = ctx.space
    cached = _SAMPLERS.setdefault(s, {}).get(grid)
    if cached is None:
        xs, ys = (np.linspace(*bounds, grid) for bounds in s.bounds)
        body = "".join(f"{x!r} {y!r} %r %r %r %r\n"
                       for x in xs.tolist() for y in ys.tolist())
        cached = _SAMPLERS[s][grid] = (collocation(s, xs, ys), body)
    factors, body = cached
    fields = ((1, u), (2, p), (0, weak_curl_with_tangential_bc(ctx, u)))
    cols = np.concatenate([s.solve_mass(slot, c, factors)
                           for slot, c in fields]).reshape(4, -1).T
    with open(path, "w") as fh:
        fh.write(f"# t = {t!r}\n")
        fh.write(f"# grid = {grid} x {grid}\n")
        fh.write("# columns: x y u_x u_y p omega\n")
        fh.write(body % tuple(cols.ravel().tolist()))
    return path


# highest order of the time extrapolation that starts each step (see predict)
PREDICTOR_ORDER = 5
# error control (see run): tolerance, first dt, top rung, failing dt
ERROR_TOL = 1e-6
DT_START = 2.0 ** -20
DT_MAX = 1.0
DT_FLOOR = 1e-8


def rung(dt):
    """The largest DT_MAX 2^(-k/8), k >= 0, not above dt; 8 rungs are exactly 2x."""
    def ladder(k):
        return DT_MAX * 2.0 ** (-(k % 8) / 8) * 2.0 ** -(k // 8)
    k = max(0, round(8 * math.log2(DT_MAX / dt)))
    return ladder(k + (ladder(k) > dt))


def extrapolate(times, S, t, orders):
    """The Lagrange extrapolations in time to t through the stacked states
    S at times, less S[-1], one row per order k < orders, through the last
    k + 1 states: W D, D the stacked S_j - S[-1] and row k of W the order-k
    weights, which sum to one with S[-1]'s, so entries equal in every state
    come out bit for bit. Every row is formed, as numpy runs a one-row
    product as a GEMV, which rounds unlike a row of the GEMM."""
    n = len(times) - 1
    W = np.zeros((orders, n))
    for k in range(1, orders):
        ts = times[-k - 1:]
        W[k, n - k:] = [math.prod([(t - tm) / (tj - tm) for tm in ts if tm != tj])
                        for tj in ts[:-1]]
    return W @ (S[:-1] - S[-1])


def predict(history, t, estimate=False):
    """(guess, P2) for the step to t from the accepted states history
    [(t_j, u_j)], oldest first and u^n last, stacked once. The guess, where
    cn_step starts, is the extrapolation of order k through the last k + 1
    states (None, u^n itself, for k = 0), k <= PREDICTOR_ORDER the order
    that best extrapolated u^n from the states before it. At cap 5 a smooth
    step's guess lands within picard_tol of its fixed point (tg_advect: 29
    sweeps, 44 at cap 3); scoring keeps near-steady Picard error from being
    amplified (Poiseuille's defaults: 1294 sweeps, 1891 at a fixed order
    5). With estimate, one `extrapolate` call also gives the order-2 P2
    (None before three states)."""
    times, us = zip(*list(history)[-PREDICTOR_ORDER - 2:])
    S, n = np.stack(us), len(us) - 1    # n past states before u^n
    k = n if n < 2 else int(np.argmin(np.linalg.norm(
        S[-2] + extrapolate(times[:-1], S[:-1], times[-1], n) - S[-1], axis=1)))
    m = max(k, 2) if estimate and n >= 2 else k
    if m == 0:
        return None, None
    W = extrapolate(times[-m - 1:], S[-m - 1:], t, m + 1)
    return (None if k == 0 else S[-1] + W[k],
            S[-1] + W[2] if estimate and m > 1 else None)


def local_error(ctx, records, t, e):
    """Milne's estimate |e|_M1 / (C max(|u^n|_M1, 1)), e = u^n+1 - P2, of the
    step to t from u^n (record records[-1]): the midpoint rule errs by h^3
    u'''/12 and P2 by u''' (t - t_n)(t - t_n-1)(t - t_n-2)/6, so C = 1 + 2
    (t - t_n-1)(t - t_n-2) / h^2, h = t - t_n (13 at equal steps)."""
    t2, t1, t0 = (r.time for r in records[-3:])
    c = 1.0 + 2.0 * (t - t1) * (t - t2) / (t - t0) ** 2
    return math.sqrt(e @ ctx.space.mass(1, e) / max(2.0 * records[-1].energy, 1.0)) / c


def run(cfg, progress=None):
    """Advance the configured case to t_final. Returns a RunResult.

    From the second step on, cn_step starts from `predict`'s guess, whose
    weights sum to one, so it keeps Dt u = 0 and the Gamma_n flux DOFs of
    u^n. A step that raises StepFailure is retried once at half dt from
    u^n (counted in retries); a doubly-failed step aborts the run
    (failed=True) after writing the last good state.

    Under error control (dt None) the run starts at DT_START. From step 3
    on a step whose `local_error` est > 2 ERROR_TOL is redone (counted in
    retries) at rung(dt f), f = max(0.3, 0.9 (ERROR_TOL / est)^(1/3)); an
    accepted one sets the next dt to rung(dt min(f, 2)), or min(f, 1)
    after a StepFailure or over 15 sweeps. The run fails once dt would
    drop below DT_FLOOR. A fixed dt estimates nothing."""
    ctx, case, cfg = build_simulation(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    diag_path = os.path.join(cfg.output_dir, cfg.diagnostics_file)

    u = initialize(ctx, case.initial)
    p = np.zeros(ctx.space.n2)
    t, step, steady, failed, retries = 0.0, 0, False, False, 0
    # the last accepted (t, coefficients), oldest first, for predict
    history = deque([(t, u)], maxlen=PREDICTOR_ORDER + 2)
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
    h = cfg.dt or DT_START
    while t < cfg.t_final * (1.0 - 1e-10):
        failed = cfg.dt is None and h < DT_FLOOR
        if failed:
            break
        dt = cfg.t_final - t if cfg.t_final - t < h - 1e-10 * cfg.t_final else h
        guess, p2 = predict(history, t + dt, cfg.dt is None)
        try:
            u_next, p, rep = cn_step(ctx, u, cfg, dt=dt, guess=guess)
            most = 2.0 if rep.picard_iterations <= 15 else 1.0
        except StepFailure:
            retries, dt, most = retries + 1, 0.5 * dt, 1.0
            p2 = p2 if p2 is None else predict(history, t + dt, True)[1]
            try:
                u_next, p, rep = cn_step(ctx, u, cfg, dt=dt)
            except StepFailure:
                failed = True
                break
        if p2 is not None:
            est = local_error(ctx, records, t + dt, u_next - p2)
            f = 0.9 * (ERROR_TOL / max(est, 1e-300)) ** (1 / 3)
            h = rung(dt * min(most, max(0.3, f)))
            if est > 2.0 * ERROR_TOL:
                retries += 1
                continue
        delta = float(np.linalg.norm(u_next - u))
        u, t, step = u_next, t + dt, step + 1
        history.append((t, u))
        records.append(measure(ctx, u, t, rep.picard_iterations))
        if progress is not None:
            progress(step, t, records[-1])
        if cfg.snapshot_cadence > 0 and step % cfg.snapshot_cadence == 0:
            snap(f"{step:06d}")
        if delta / dt < cfg.picard_tol:
            steady = True
            break

    write_diagnostics(records, diag_path)
    # always leave the last good state on disk after a failure
    if cfg.snapshot_cadence > 0 or failed:
        last = f"{cfg.snapshot_prefix}_{step:06d}.dat"
        if not snaps or not snaps[-1].endswith(last):
            snap(f"{step:06d}")
    return RunResult(records=records, u=Field(ctx.space, 1, u), p=p, t=t,
                     steps=step, steady=steady, failed=failed, retries=retries,
                     diagnostics_path=diag_path, snapshot_paths=snaps)


def study_grids(cfg, meshes, degrees):
    """(resolved config of each run in order, case) of a refinement study,
    meshes counting total cells per direction. Raises ValueError when the
    case has no exact solution, the patch counts do not divide a mesh or
    resolve() rejects a grid."""
    base, case = cfg.resolve()
    if case.exact is None:
        raise ValueError(f"case {base.case!r} has no exact solution")
    npx, npy = base.n_patches
    for n in meshes:
        if n % npx or n % npy:
            raise ValueError(f"--meshes: {n} cells is not divisible by "
                             f"the patch counts {npx},{npy}")
    grids = [replace(base, degree=deg, n_cells=(n // npx, n // npy),
                     snapshot_cadence=0).resolve()[0]
             for deg in degrees for n in meshes]
    return grids, case


def convergence_study(cfg, meshes, degrees, out_path=None):
    """Refinement sweep against the case's exact solution over the grids
    of study_grids; rows are (degree, n, h, error, order) with 'failed'
    markers when a run does not finish. The directory of out_path is
    made before the first run."""
    grids, case = study_grids(cfg, meshes, degrees)
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    rows = []
    for sub in grids:
        n = sub.n_patches[0] * sub.n_cells[0]
        h = (sub.domain[1] - sub.domain[0]) / n
        try:
            res = run(sub)
            err = float("nan") if res.failed else l2_error(
                res.u.space, res.u, lambda X, Y: case.exact(X, Y, res.t, sub.nu))
        except FloatingPointError:
            err = float("nan")
        # against the last mesh of the degree; nan next to a failed run
        prev = rows[-1] if rows and rows[-1][0] == sub.degree else None
        order = (float(np.log(prev[3] / err) / np.log(prev[2] / h))
                 if prev else float("nan"))
        rows.append((sub.degree, n, h, err, order))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("degree,n_cells,h,error,order\n")
            for deg, n, h, err, order in rows:
                err_s = "failed" if np.isnan(err) else repr(float(err))
                ord_s = "" if np.isnan(order) else repr(float(order))
                fh.write(f"{deg},{n},{repr(h)},{err_s},{ord_s}\n")
    return rows
