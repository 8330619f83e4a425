"""Conserved-quantity measurements, error norms, convergence orders."""
import numpy as np
import pytest

from conftest import PI, context, rand_coeffs, space
from flowforms.diagnostics import l2_error, measure
from flowforms.operators import (EdgeBC, OperatorContext,
                                 weak_curl_with_tangential_bc)
from oracles import assembled, constant_v1, convergence_order, weak_grad
from flowforms.spaces import Field, eval_field, l2_project
from flowforms.stepper import initialize


def tg_velocity(X, Y):
    return (1.0 - 2.0 * np.cos(2 * X) * np.sin(2 * Y),
            1.0 + 2.0 * np.cos(2 * Y) * np.sin(2 * X))


def test_measure_of_rest_state_is_zero():
    ctx = context(2, 4, 1, "periodic")
    rec = measure(ctx, np.zeros(ctx.space.n1), t=0.25)
    assert rec.time == 0.25
    assert rec.energy == 0.0
    assert np.all(rec.momentum == 0.0)
    assert rec.div_l2 == 0.0
    assert rec.jump_energy == 0.0
    assert rec.enstrophy_term == 0.0
    assert rec.picard_iterations == 0


def test_measure_uniform_flow_on_unit_square():
    sp_ = space(2, 4, 1, periodic=True, bounds=((0.0, 1.0), (0.0, 1.0)))
    ctx = OperatorContext(sp_)
    u = constant_v1(sp_, 1.0, 1.0)
    rec = measure(ctx, u)
    assert abs(rec.energy - 1.0) <= 1e-13
    assert np.max(np.abs(rec.momentum - 1.0)) <= 1e-13
    assert rec.div_l2 <= 1e-13
    assert rec.enstrophy_term <= 1e-13


def test_energy_matches_quadrature_route():
    ctx = context(2, 8, 1, "periodic")
    s = ctx.space
    u = rand_coeffs(s, 1, seed=1)
    rec = measure(ctx, u)
    ux, uy = s.grid_eval(1, u)
    eq = 0.5 * s.grid.integrate(ux * ux + uy * uy)
    assert abs(rec.energy - eq) <= 1e-12 * max(1.0, eq)


def test_taylor_green_energy_and_momentum_values():
    # exact values: E = 2 pi^2, momentum = (pi^2, pi^2)
    ctx = context(2, 16, 1, "periodic")
    u = l2_project(ctx.space, 1, tg_velocity)
    rec = measure(ctx, u)
    assert abs(rec.energy - 2.0 * PI**2) <= 1e-4 * PI**2
    assert np.max(np.abs(rec.momentum - PI**2)) <= 1e-6


def test_jump_energy_detects_brokenness():
    sp_ = space(2, 4, 2, periodic=True)
    ctx = OperatorContext(sp_)
    u = rand_coeffs(sp_, 1, seed=2)
    raw = measure(ctx, u).jump_energy
    assert raw > 1e-6
    smooth = measure(ctx, assembled(sp_).Pc1 @ u).jump_energy
    assert smooth <= 1e-12 * max(1.0, raw)
    conf = context(2, 4, 1, "periodic")
    assert measure(conf, rand_coeffs(conf.space, 1, seed=3)).jump_energy == 0.0


def test_vorticity_of_weak_gradient_vanishes():
    ctx = context(2, 8, 1, "periodic")
    q = rand_coeffs(ctx.space, 2, seed=4)
    w = weak_curl_with_tangential_bc(ctx, weak_grad(ctx, q))
    assert np.max(np.abs(w)) <= 1e-11


def test_vorticity_of_rigid_rotation_is_constant():
    # u = (-(y - c), x - c) has curl 2 and u x n = -pi/2 on every edge of
    # (0, pi)^2; with that tangential data the weak curl is exact
    bc = {e: EdgeBC("normal", 0.0, tangential=-PI / 2.0)
          for e in ("left", "right", "bottom", "top")}
    sp_ = space(2, 4, 1, periodic=False)
    ctx = OperatorContext(sp_, bc=bc)
    u = l2_project(sp_, 1, lambda X, Y: (-(Y - PI / 2), X - PI / 2))
    w = weak_curl_with_tangential_bc(ctx, u)
    assert np.max(np.abs(w - 2.0)) <= 1e-11


def test_vorticity_converges_for_taylor_green():
    exact = lambda X, Y: 8.0 * np.cos(2 * X) * np.cos(2 * Y)
    errs = []
    for nc in (8, 16):
        ctx = context(2, nc, 1, "periodic")
        u = l2_project(ctx.space, 1, tg_velocity)
        w = weak_curl_with_tangential_bc(ctx, u)
        errs.append(l2_error(ctx.space, Field(ctx.space, 0, w), exact))
    assert errs[1] <= errs[0] / 4.0


def test_l2_error_of_own_evaluation_is_zero():
    s = space(2, 4, 1, periodic=True)
    u = Field(s, 1, rand_coeffs(s, 1, seed=5))

    def own(X, Y):
        # X, Y are the (ij) meshgrid of the data grid's axes
        vals = eval_field(u, X[:, 0], Y[0, :])
        return vals[..., 0], vals[..., 1]

    assert l2_error(s, u, own) <= 1e-12


def test_l2_error_of_zero_against_one_is_domain_measure():
    s = space(2, 4, 1, periodic=True)
    err = l2_error(s, Field(s, 1, np.zeros(s.n1)), lambda X, Y: (1.0, 0.0))
    assert abs(err - PI) <= 1e-12


def test_l2_error_scalar_slots():
    s = space(2, 4, 1, periodic=True)
    f = lambda X, Y: np.sin(2 * X) * np.cos(2 * Y)
    q = l2_project(s, 2, f)
    err = l2_error(s, Field(s, 2, q), f)
    assert 0.0 < err < 0.1
    phi = l2_project(s, 0, f)
    assert 0.0 < l2_error(s, Field(s, 0, phi), f) < err


def test_l2_error_rejects_a_field_of_another_space():
    # same DOF counts on another domain: its coefficients integrated on
    # the first space's grid would read a wrong error without a sign
    a = space(2, 4, 1, periodic=False)
    b = space(2, 4, 1, periodic=False, bounds=((0.0, 2.0), (0.0, 2.0)))
    f = lambda X, Y: (np.sin(X), np.cos(Y))
    u = Field(b, 1, l2_project(b, 1, f))
    with pytest.raises(ValueError, match="another space"):
        l2_error(a, u, f)
    assert l2_error(b, u, f) <= 1e-2


def test_l2_error_agrees_with_midpoint_riemann():
    s = space(2, 6, 1, periodic=True)
    f = lambda X, Y: (np.sin(X) * np.cos(Y), np.cos(2 * X))
    u = Field(s, 1, l2_project(s, 1, f))
    err = l2_error(s, u, f)
    n = 400
    xs = (np.arange(n) + 0.5) * (PI / n)
    vals = eval_field(u, xs, xs)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ex, ey = f(X, Y)
    ey = np.broadcast_to(ey, X.shape)
    riemann = np.sqrt(np.sum(((vals[..., 0] - ex) ** 2
                              + (vals[..., 1] - ey) ** 2)) * (PI / n) ** 2)
    assert abs(err - riemann) <= 1e-2 * err


def test_convergence_order_recovers_exact_slopes():
    hs = [1.0, 0.5, 0.25, 0.125]
    assert abs(convergence_order(hs, [h**2 for h in hs]) - 2.0) <= 1e-12
    assert abs(convergence_order(hs, [3.0 * h**5 for h in hs]) - 5.0) <= 1e-12


def test_convergence_order_input_validation():
    with pytest.raises(ValueError, match="two"):
        convergence_order([1.0], [0.5])
    with pytest.raises(ValueError, match="positive"):
        convergence_order([1.0, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        convergence_order([1.0, -0.5], [1.0, 0.5])


def test_measure_is_deterministic():
    ctx = context(2, 8, 1, "periodic")
    u = initialize(ctx, tg_velocity)
    a = measure(ctx, u, t=0.5)
    b = measure(ctx, u, t=0.5)
    assert a.energy == b.energy
    assert np.array_equal(a.momentum, b.momentum)
    assert a.div_l2 == b.div_l2
    assert a.enstrophy_term == b.enstrophy_term
