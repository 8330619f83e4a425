"""Conserved-quantity measurements and the L2 error against a callable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorContext, viscous_form
from .spaces import coeffs_of


@dataclass
class DiagnosticsRecord:
    time: float
    energy: float
    momentum: np.ndarray          # (2,)
    div_l2: float
    jump_energy: float
    enstrophy_term: float
    picard_iterations: int = 0


def measure(ctx: OperatorContext, u, t: float = 0.0,
            picard_iterations: int = 0) -> DiagnosticsRecord:
    s = ctx.space
    uc = coeffs_of(u)
    Mu = s.M1 @ uc
    energy = 0.5 * float(uc @ Mu)
    e1 = s.constant_v1(1.0, 0.0)
    e2 = s.constant_v1(0.0, 1.0)
    momentum = np.array([float(e1 @ Mu), float(e2 @ Mu)])
    d = ctx.Dt @ uc
    div_l2 = float(np.sqrt(max(d @ (s.M2 @ d), 0.0)))
    pen = s.penalization
    jump = float(uc @ (pen @ uc)) if pen.nnz else 0.0
    enstrophy = viscous_form(ctx, uc, uc)
    return DiagnosticsRecord(time=t, energy=energy, momentum=momentum,
                             div_l2=div_l2, jump_energy=jump,
                             enstrophy_term=enstrophy,
                             picard_iterations=picard_iterations)


def l2_error(space, u, exact, slot: int = 1) -> float:
    """Quadrature L2 distance between a discrete field and a callable, on
    the data grid (the callable is not a spline)."""
    uc = coeffs_of(u)
    grid = space.data_grid
    X, Y = grid.mesh()
    if slot == 1:
        ux, uy = space.grid_eval_v1(uc, grid)
        ex, ey = exact(X, Y)
        ex = np.broadcast_to(np.asarray(ex, dtype=np.float64), X.shape)
        ey = np.broadcast_to(np.asarray(ey, dtype=np.float64), X.shape)
        err2 = (ux - ex) ** 2 + (uy - ey) ** 2
    else:
        vals = (space.grid_eval_v0(uc, grid) if slot == 0
                else space.grid_eval_v2(uc, grid))
        ev = np.broadcast_to(np.asarray(exact(X, Y), dtype=np.float64), X.shape)
        err2 = (vals - ev) ** 2
    return float(np.sqrt(grid.integrate(err2)))

