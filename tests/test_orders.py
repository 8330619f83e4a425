"""Observed convergence orders of the velocity: the L2 error after 10
steps of dt = 5e-4 on n = 8, 16 and 32 cells per direction must fall at
order p + 1 (at least p + 0.8 between the two finest meshes), for
p = 1-3, on three inviscid flows with exact solutions:

- the periodic Taylor-Green flow of the case library;
- the steady flow u = (sin x cos y, -cos x sin y) in the box [0, pi]^2
  with u.n = 0 on every edge, on one patch and on 2x2 patches;
- the same flow with u.n = 0 on the left and right edges and its
  pressure p = (cos 2x + cos 2y)/4 (u.grad u + grad p = 0) as data on the
  bottom and top edges.

On the box flow the pressure that the last step returns must fall at
order p + 1 too, against (cos 2x + cos 2y)/4 with its mean removed on
the walled box, within the same runs.

With viscosity nu = 0.05 the box flow decays as exp(-2 nu t) with u.n = 0
and no tangential condition on every edge: its vorticity 2 sin x sin y
vanishes on the walls, the natural condition there. Its order is measured
after 100 steps of dt = 5e-4 on n = 16 and 32 cells, on one patch and on
2x2 patches: after 10 steps a viscous form that loses order on walls
still reads p + 1.

The midpoint step is second order in time: on the Taylor-Green flow,
p = 2, to t = 0.2 at picard_tol 1e-12, the velocity at three halved
steps must approach a run at an eighth of the smallest step, on the same
mesh so that no spatial error enters, at order >= 1.9 between each pair.
This holds with nu = 0 and nu = 0.05, on one patch of 8^2 cells at dt =
0.04, 0.02, 0.01 and on 2x2 patches of 4^2 cells at dt = 0.02, 0.01,
0.005, where the jump penalty acts inside the step too.

Beside the orders, an invariant gate: momentum is conserved to roundoff
on periodic broken spaces, with the jump penalty and viscosity on.
"""
import numpy as np
import pytest

from conftest import DOMAIN, PI
from flowforms.cases import case_library
from flowforms.config import SimulationConfig
from flowforms.diagnostics import l2_error, measure
from flowforms.operators import EdgeBC, OperatorContext
from flowforms.spaces import Field, build_multipatch
from flowforms.stepper import cn_step, initialize

MESHES = (8, 16, 32)
DT, STEPS = 5e-4, 10
TG = case_library("taylor_green")


def box_flow(X, Y):
    return np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)


def box_flow_at(t, nu):
    decay = np.exp(-2.0 * nu * t)
    return lambda X, Y: tuple(decay * c for c in box_flow(X, Y))


def box_pressure(X, Y):
    return 0.25 * (np.cos(2.0 * X) + np.cos(2.0 * Y))


def box_pressure_on_edge(s):
    # p = (cos 2x + cos 2y)/4 on y = 0 and y = pi, where cos 2y = 1
    return box_pressure(s, 0.0)


WALLS = {e: EdgeBC("normal", 0.0) for e in ("left", "right", "bottom", "top")}
GAMMA_P = {"left": EdgeBC("normal", 0.0), "right": EdgeBC("normal", 0.0),
           "bottom": EdgeBC("pressure", box_pressure_on_edge),
           "top": EdgeBC("pressure", box_pressure_on_edge)}

# name -> (boundary conditions or None for periodic, patches, initial
# velocity, exact velocity at time t and viscosity nu)
SETUPS = {
    "periodic": (None, 1, TG.initial,
                 lambda t, nu: lambda X, Y: TG.exact(X, Y, t, nu)),
    "walls-1x1": (WALLS, 1, box_flow, box_flow_at),
    "walls-2x2": (WALLS, 2, box_flow, box_flow_at),
    "gamma_p-1x1": (GAMMA_P, 1, box_flow, box_flow_at),
    "gamma_p-2x2": (GAMMA_P, 2, box_flow, box_flow_at),
}


def final_error(setup, p, n, nu=0.0, steps=STEPS):
    """L2 errors of the velocity and of the last step's pressure against
    box_pressure, mean-free on the walled box; the pressure's is None on
    the periodic setup."""
    bc, npat, initial, exact = SETUPS[setup]
    space = build_multipatch(p, npat, n // npat, DOMAIN, periodic=bc is None)
    ctx = OperatorContext(space, bc=bc)
    cfg = SimulationConfig(dt=DT, nu=nu, alpha=10.0,
                           picard_tol=1e-10).resolve()[0]
    u = initialize(ctx, initial)
    for _ in range(steps):
        u, pres, _ = cn_step(ctx, u, cfg, DT)
    u = Field(space, 1, u)
    if bc is None:
        return l2_error(space, u, exact(steps * DT, nu)), None
    if bc is WALLS:
        g = space.data_grid
        pres = pres - g.integrate(space.grid_eval(2, pres, g)[0]) / (PI * PI)
    return (l2_error(space, u, exact(steps * DT, nu)),
            l2_error(space, Field(space, 2, pres), box_pressure))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("setup", list(SETUPS))
def test_velocity_converges_at_order_p_plus_one(setup, p):
    errors, p_errors = zip(*(final_error(setup, p, n) for n in MESHES))
    order = np.log2(errors[-2] / errors[-1])
    assert order >= p + 0.8, (errors, order)
    if setup != "periodic":
        p_order = np.log2(p_errors[-2] / p_errors[-1])
        assert p_order >= p + 0.8, (p_errors, p_order)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("setup", ["walls-1x1", "walls-2x2"])
def test_walled_viscous_velocity_converges_at_order_p_plus_one(setup, p):
    errors = [final_error(setup, p, n, nu=0.05, steps=100)[0]
              for n in (16, 32)]
    order = np.log2(errors[0] / errors[1])
    assert order >= p + 0.8, (errors, order)


@pytest.mark.parametrize("nu", [0.0, 0.05])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_momentum_is_conserved_on_periodic_patches(p, nu):
    # c(u, u, e_i) = 0, and the penalty and the viscous term vanish on
    # constants, so each step keeps the momentum to roundoff
    space = build_multipatch(p, 2, 4, DOMAIN, periodic=True)
    ctx = OperatorContext(space)
    cfg = SimulationConfig(dt=1e-3, nu=nu, alpha=100.0).resolve()[0]
    u = initialize(ctx, TG.initial)
    m0 = measure(ctx, u).momentum
    for _ in range(5):
        u = cn_step(ctx, u, cfg, cfg.dt)[0]
        drift = np.max(np.abs(measure(ctx, u).momentum - m0))
        assert drift <= 1e-13 * max(1.0, np.max(np.abs(m0))), drift


def taylor_green_at(space, dt, nu, t_final=0.2):
    """The velocity coefficients after t_final / dt midpoint steps of dt
    from the projected Taylor-Green flow, each started from u^n."""
    ctx = OperatorContext(space)
    cfg = SimulationConfig(dt=dt, nu=nu, picard_tol=1e-12).resolve()[0]
    u = initialize(ctx, TG.initial)
    for _ in range(round(t_final / dt)):
        u = cn_step(ctx, u, cfg, dt)[0]
    return u


@pytest.mark.parametrize("nu", [0.0, 0.05])
@pytest.mark.parametrize("npat,cells,dts", [(1, 8, (0.04, 0.02, 0.01)),
                                            (2, 4, (0.02, 0.01, 0.005))])
def test_midpoint_step_is_second_order_in_time(npat, cells, dts, nu):
    space = build_multipatch(2, npat, cells, DOMAIN, periodic=True)
    ref = taylor_green_at(space, dts[-1] / 8, nu)
    errors = []
    for dt in dts:
        d = taylor_green_at(space, dt, nu) - ref
        errors.append(np.sqrt(d @ space.mass(1, d)))    # L2 norm
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert orders.min() >= 1.9, (errors, orders)
