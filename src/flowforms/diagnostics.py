"""Conserved-quantity measurements and the L2 error against a callable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorContext, viscous_form
from .spaces import Field, sample


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
    Mu = s.mass(1, u)
    energy = 0.5 * float(u @ Mu)
    # the constant fields (1, 0) and (0, 1) have all-ones coefficients
    momentum = np.array([float(B.sum()) for B in s.blocks(1, Mu)])
    d = s.div(u)
    div_l2 = float(np.sqrt(max(d @ s.mass(2, d), 0.0)))
    jump = float(u @ s.penalize(u))
    enstrophy = viscous_form(ctx, u, u)
    return DiagnosticsRecord(time=t, energy=energy, momentum=momentum,
                             div_l2=div_l2, jump_energy=jump,
                             enstrophy_term=enstrophy,
                             picard_iterations=picard_iterations)


def l2_error(space, u: Field, exact) -> float:
    """Quadrature L2 distance between the Field u, in its own slot, and a
    callable, on the data grid (the callable is not a spline)."""
    if u.space is not space:
        raise ValueError("u is a Field of another space")
    grid = space.data_grid
    vals = space.grid_eval(u.slot, u.coeffs, grid)
    err2 = sum((v - e) ** 2
               for v, e in zip(vals, sample(grid, exact, len(vals))))
    return float(np.sqrt(grid.integrate(err2)))

