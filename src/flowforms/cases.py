"""Benchmark case library.

Each case bundles boundary conditions, initial data, an exact solution
where one exists, and the domain, periodic, nu, alpha, dt and t_final
that SimulationConfig.resolve() puts in each unset config field of the
same name (a dt of None stays None: CFL control).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import EdgeBC

PI = np.pi


@dataclass
class CaseDefinition:
    name: str
    domain: tuple                 # (x0, x1, y0, y1)
    periodic: bool
    initial: object               # (X, Y) -> (ux, uy), as spaces.sample
    nu: float
    alpha: float
    t_final: float
    dt: float = None              # None = CFL-controlled
    exact: object = None          # (X, Y, t, nu) -> (ux, uy), as spaces.sample
    exact_pressure: object = None  # (X, Y) -> p, steady only, as spaces.sample
    boundary: dict = None         # edge name -> EdgeBC
    forcing: object = None        # (X, Y) -> (fx, fy), as spaces.sample


def _taylor_green():
    def exact(X, Y, t=0.0, nu=0.0):
        E = np.exp(-8.0 * nu * t)
        ux = 1.0 - 2.0 * np.cos(2.0 * (X - t)) * np.sin(2.0 * (Y - t)) * E
        uy = 1.0 + 2.0 * np.cos(2.0 * (Y - t)) * np.sin(2.0 * (X - t)) * E
        return ux, uy

    return CaseDefinition(
        name="taylor_green",
        domain=(0.0, PI, 0.0, PI),
        periodic=True,
        initial=lambda X, Y: exact(X, Y, 0.0),
        exact=exact,
        nu=0.0, alpha=1000.0, dt=1e-4, t_final=1.0,
    )


def _poiseuille():
    # pressure data p = +-pi^2/2 drives dp/dy = pi, so the channel settles
    # on u = (0, (pi/nu) x(x-pi)/2); starting from rest, the approach to
    # that profile is what the steady-state error measures
    def velocity(X, Y, t=0.0, nu=1.0):
        return np.zeros_like(X), (PI / nu) * X * (X - PI) / 2.0

    return CaseDefinition(
        name="poiseuille",
        domain=(0.0, PI, 0.0, PI),
        periodic=False,
        initial=lambda X, Y: (np.zeros_like(X), np.zeros_like(Y)),
        exact=velocity,
        exact_pressure=lambda X, Y: PI * (Y - PI / 2.0),
        boundary={
            "left": EdgeBC("normal", 0.0, tangential=0.0),
            "right": EdgeBC("normal", 0.0, tangential=0.0),
            "bottom": EdgeBC("pressure", -PI * PI / 2.0, tangential=0.0),
            "top": EdgeBC("pressure", PI * PI / 2.0, tangential=0.0),
        },
        nu=1.0, alpha=10.0, dt=0.1, t_final=30.0,
    )


def _lid_driven_cavity():
    return CaseDefinition(
        name="lid_driven_cavity",
        domain=(0.0, 1.0, 0.0, 1.0),
        periodic=False,
        initial=lambda X, Y: (np.zeros_like(X), np.zeros_like(Y)),
        boundary={
            "left": EdgeBC("normal", 0.0, tangential=0.0),
            "right": EdgeBC("normal", 0.0, tangential=0.0),
            "bottom": EdgeBC("normal", 0.0, tangential=0.0),
            "top": EdgeBC("normal", 0.0, tangential=1.0),
        },
        nu=1e-2, alpha=100.0, t_final=30.0,
    )


def _blasius():
    return CaseDefinition(
        name="blasius",
        domain=(-1.0, 1.0, 0.0, 0.5),
        periodic=False,
        initial=lambda X, Y: (np.ones_like(X), np.zeros_like(Y)),
        boundary={
            # inflow u = (1, 0): u.n = -1 on the left edge
            "left": EdgeBC("normal", -1.0, tangential=0.0),
            "right": EdgeBC("pressure", 0.0),
            "top": EdgeBC("pressure", 0.0),
            # impermeable bottom; no-slip only on the plate x >= 0
            "bottom": EdgeBC("normal", 0.0, tangential=[(0.0, 1.0, 0.0)]),
        },
        nu=1e-3, alpha=100.0, t_final=10.0,
    )


def _double_shear_layer():
    delta, eps = 1.0 / 15.0, 0.05

    def initial(X, Y):
        ux = np.tanh((Y + 0.5) / delta) - np.tanh((Y - 0.5) / delta) - 1.0
        uy = eps * np.sin(2.0 * PI * X) * np.ones_like(Y)
        return ux, uy

    return CaseDefinition(
        name="double_shear_layer",
        domain=(-1.0, 1.0, -1.0, 1.0),
        periodic=True,
        initial=initial,
        nu=2e-4, alpha=1000.0, t_final=4.0,
    )


_CASES = {
    "taylor_green": _taylor_green,
    "poiseuille": _poiseuille,
    "lid_driven_cavity": _lid_driven_cavity,
    "blasius": _blasius,
    "double_shear_layer": _double_shear_layer,
}


def case_library(name: str = None):
    """A CaseDefinition by name, or the sorted list of known names."""
    if name is None:
        return sorted(_CASES)
    try:
        return _CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; known: {sorted(_CASES)}") from None
