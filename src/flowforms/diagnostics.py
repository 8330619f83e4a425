"""Conserved-quantity measurements and the L2 error against a callable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorContext, viscous_form
from .spaces import coeffs_of, sample


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
    grid = space.data_grid
    vals = space.grid_eval(slot, coeffs_of(u), grid)
    err2 = sum((v - e) ** 2
               for v, e in zip(vals, sample(grid, exact, len(vals))))
    return float(np.sqrt(grid.integrate(err2)))

