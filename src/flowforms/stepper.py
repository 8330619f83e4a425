"""Midpoint (Crank-Nicolson) time stepper with exact divergence
preservation, on the plain float64 coefficient arrays of V1 and V2.

Each step solves the midpoint fixed point u = g(u), g one
`midpoint_sweep`, by Picard sweeps with Anderson mixing (see cn_step),
from a guess: in a run, the extrapolation in time of order k of
runner.predict, which lies O(dt^(k+1)) from the fixed point, not O(dt).
Viscosity is explicit in the sweep, so cn_step corrects each update by
the viscous operator solved at Kronecker cost; the correction vanishes
only at the fixed point, so it changes the path, not the solution. A
step's sweeps and corrections share the solver of dt (alpha, nu) / 2.

Every sweep ends in `project`, the one projection onto Dt u = 0, so the
roundoff divergence of u^n does not build up over the steps; a mixed
iterate is an affine combination of sweep outputs, so it stays
divergence-free too. The patch-coupling penalization is treated
implicitly: the sweep solves with M1 + gamma*Pen (gamma = dt*alpha/2),
which has the same fixed point as the plain midpoint form but keeps the
iteration contractive for large alpha (on one patch Pen is zero, and
poisson_solver maps every gamma to 0). Each mass solve inverts on the
velocities with zero Gamma_n flux, so an update keeps the Gamma_n flux
DOFs of u^n and a gradient force moves only the pressure.

The functions take the resolved SimulationConfig (config.py), of which
they read nu, alpha and picard_tol, and the step's dt from runner.run,
which owns the time-step policy. The same code serves every domain:
without boundary conditions the boundary data vectors are zero and the
mass solve is the plain M1 + gamma*Pen inverse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import OperatorContext, advection_residual, viscous_residual
from .spaces import l2_project


# past sweeps Anderson mixing combines, and sweeps before a StepFailure
ANDERSON_DEPTH = 5
PICARD_MAX_ITER = 200


class StepFailure(RuntimeError):
    """Picard iteration did not reach the tolerance."""


@dataclass
class StepReport:
    picard_iterations: int
    final_update_norm: float


def project(solver, z):
    """(z - A^{-1} Dt^T M2 q, q): z projected onto Dt u = 0, A^{-1} the
    solver's m1_solve and q its pressure solution for M2 Dt z."""
    s = solver.ctx.space
    q = solver.solve(s.mass(2, s.div(z)))
    return z - solver.m1_solve(s.div_transpose(s.mass(2, q))), q


def midpoint_sweep(ctx: OperatorContext, cfg, un, u_iter, dt: float):
    """One Picard sweep of the midpoint step from u^n with current iterate
    u_iter: (u_next, p), with (u_next, -dt p) the `project`ion of
    u^n - dt A^{-1} R by ctx.poisson_solver(gamma, theta), A^{-1} its
    m1_solve (M1 + gamma Pen inverted on the velocities of zero Gamma_n flux)
    and R the momentum residual at the midpoint plus alpha Pen u^n - f + b."""
    ub = 0.5 * (un + u_iter)
    R = advection_residual(ctx, ub, ub)
    if cfg.nu != 0.0:
        R += cfg.nu * viscous_residual(ctx, ub)
    R += cfg.alpha * ctx.space.penalize(un) - ctx.f_vec + ctx.b_pressure
    solver = ctx.poisson_solver(0.5 * dt * cfg.alpha, 0.5 * dt * cfg.nu)
    u_next, q = project(solver, un - dt * solver.m1_solve(R))
    return u_next, -q / dt


def cn_step(ctx: OperatorContext, un, cfg, dt, guess=None):
    """One midpoint step of dt. Returns the arrays (u_next, p) and a
    StepReport; raises StepFailure when the iteration stalls or diverges.

    The first sweep is a plain Picard sweep from guess (runner.run passes
    runner.predict's), or from u^n when it is None: the guess changes how
    many sweeps the step takes, not its fixed point. A sweep g(x) whose
    update f = g(x) - x is not below picard_tol is corrected: f becomes
    the `project`ion of S^-1 A f (`TensorPoissonSolver.viscous_correction`,
    theta = dt*nu/2; skipped at theta = 0, where it is the identity), and
    g becomes x + f. This map is linear and one-to-one, so it vanishes
    only where f does, at the midpoint solution: the path changes, not
    the fixed point. Each later iterate is the depth-ANDERSON_DEPTH
    Anderson mix (Walker-Ni type II) x = g - dG gamma, gamma minimising
    |f - dF gamma| by its Gram system, dF and dG the differences of the
    last f and g; its weights sum to one, so x keeps Dt x = 0 and the
    Gamma_n flux DOFs of u^n. The step returns the sweep output and its
    pressure once the sweep's own |g(x) - x| < picard_tol."""
    solver = ctx.poisson_solver(0.5 * dt * cfg.alpha, 0.5 * dt * cfg.nu)
    div0 = ctx.space.div(un)
    if np.linalg.norm(div0) > 1e-6 * max(1.0, np.linalg.norm(un)):
        warnings.warn("starting velocity is not discretely divergence-free",
                      RuntimeWarning)

    # ring buffers of residual and sweep-output differences
    dF = np.empty((ANDERSON_DEPTH, un.size))
    dG = np.empty_like(dF)
    x = un if guess is None else guess
    upd = best = np.inf
    best_it = 0
    for it in range(1, PICARD_MAX_ITER + 1):
        # bail out before overflow: squared quantities in the quadrature
        # stay finite below ~1e150, so 1e60 leaves ample headroom
        if not np.isfinite(x).all() or np.abs(x).max() > 1e60:
            # an iteration that stalls near roundoff and then wanders off
            # ends here too: the smallest update tells the two apart
            raise StepFailure(
                f"Picard iteration diverged after {it - 1} iterations "
                f"(smallest update {best:.3e} at sweep {best_it})")
        g, p = midpoint_sweep(ctx, cfg, un, x, dt)
        f = g - x
        upd = float(np.linalg.norm(f))
        if upd < cfg.picard_tol:
            return g, p, StepReport(it, upd)
        if upd < best:
            best, best_it = upd, it
        if solver.theta != 0.0:
            f = project(solver, solver.viscous_correction(f))[0]
            g = x + f
        x = g
        if it > 1:
            j = (it - 2) % ANDERSON_DEPTH
            np.subtract(f, f_prev, out=dF[j])
            np.subtract(g, g_prev, out=dG[j])
            m = min(it - 1, ANDERSON_DEPTH)
            gamma = np.linalg.lstsq(dF[:m] @ dF[:m].T, dF[:m] @ f,
                                    rcond=None)[0]
            x = g - gamma @ dG[:m]
        f_prev, g_prev = f, g
    raise StepFailure(
        f"no Picard convergence in {PICARD_MAX_ITER} iterations "
        f"(last update {upd:.3e}, smallest {best:.3e} at sweep {best_it})")


# --- initialization ---------------------------------------------------------

def set_normal_data(ctx: OperatorContext, u) -> np.ndarray:
    """Overwrite the flux trace coefficients on Gamma_n edges with the 1D
    L2 projection of the prescribed normal-velocity data: each V1 block
    is masked by the Gamma_n mask zn of its h1 factor's line."""
    ux, uy = ctx.space.blocks(1, u)
    masked = np.concatenate([(ctx.zn["x"][:, None] * ux).ravel(),
                             (uy * ctx.zn["y"]).ravel()])
    return masked + ctx.normal_data


def leray_project(ctx: OperatorContext, u) -> np.ndarray:
    """Remove the discrete divergence without touching the Gamma_n flux
    data: `project` by ctx.poisson_solver(0)."""
    return project(ctx.poisson_solver(0.0), u)[0]


def initialize(ctx: OperatorContext, initial) -> np.ndarray:
    """L2-project the initial velocity, impose the normal boundary data
    strongly, then Leray-project onto the divergence-free subspace."""
    u = set_normal_data(ctx, l2_project(ctx.space, 1, initial))
    return leray_project(ctx, u)
