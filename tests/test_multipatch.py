"""Conforming projections, interface stencils, jump penalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DOMAIN, rand_field, space
from flowforms.config import SimulationConfig
from flowforms.operators import (EdgeBC, OperatorContext, TensorPoissonSolver,
                                 advection_residual)
from flowforms.runner import build_simulation
from flowforms.spaces import KINDS, TensorDeRhamSpace, build_multipatch
from flowforms.splines import (Broken1D, DeRhamLine, DegenerateStencilError,
                               conforming_projection_1d, projection_stencil_1d)
from oracles import assembled, constant_v1, gauss_cells, line_basis

UNIT = ((0.0, 1.0), (0.0, 1.0))


def stencil_moment_integrals(degree, n_cells, n_funcs, moment_order):
    """I[i, j] = int phi_i(x) x^j dx near the patch start, by independent
    Cox-de-Boor evaluation and Gauss quadrature."""
    line = Broken1D(degree, 1, n_cells, (0.0, float(n_cells)), False)
    pts, w = gauss_cells(line.breakpoints, degree + moment_order + 2)
    E = line_basis(line, pts)[:, :n_funcs]
    powers = pts[:, None] ** np.arange(moment_order + 1)[None, :]
    return E.T @ (w[:, None] * powers)


# --- 1D stencils ----------------------------------------------------------------

def test_first_order_stencil_coefficient_ratio():
    # with one correction DOF, preserving the mean forces
    # c_1 = (1/2) * int(phi_0) / int(phi_1)
    c = projection_stencil_1d(1)
    I = stencil_moment_integrals(1, n_cells=2, n_funcs=2, moment_order=0)
    expect = 0.5 * I[0, 0] / I[1, 0]
    assert len(c) == 2
    assert c[0] == pytest.approx(0.5, abs=1e-15)
    assert c[1] == pytest.approx(expect, abs=1e-13)
    assert expect == pytest.approx(0.25, abs=1e-13)


@pytest.mark.parametrize("degree,n_cells", [
    *(pytest.param(d, None, id=str(d)) for d in (2, 3, 4)),
    (1, 2), (1, 69), (2, 4), (3, 5), (3, 17), (4, 40), (5, 6), (5, 69),
])
def test_stencil_moment_conditions(degree, n_cells):
    # radius = degree, moments up to degree - 1: a square system. On a
    # patch of degree+1 cells or more, the moments over the whole patch
    # hold and the stencil is the one of degree+1 cells, bit for bit.
    c = projection_stencil_1d(degree, n_cells)
    r = len(c) - 1
    assert r == degree
    n = r + 1 if n_cells is None else n_cells
    I = stencil_moment_integrals(degree, n, r + 1, degree - 1)
    lhs = c[1:] @ I[1:, :]
    assert np.abs(lhs - 0.5 * I[0, :]).max() <= 1e-12
    assert np.array_equal(c, projection_stencil_1d(degree))


def test_oversized_stencil_rejected_at_build():
    # p=1 on single-cell patches leaves no room for the default stencil
    with pytest.raises(DegenerateStencilError):
        build_multipatch(1, 2, 1, UNIT, periodic=False)


@pytest.mark.parametrize("p", range(6))
def test_two_cells_per_patch_fit_every_stencil(p):
    # the least cell count Broken1D accepts on a broken line suffices
    P = conforming_projection_1d(Broken1D(p + 1, 2, 2, (0.0, 1.0), True))
    assert np.abs(P @ P - P).max() <= 1e-12


# --- conforming projections -------------------------------------------------------

@pytest.mark.parametrize("p,nc,npatch,periodic", [
    (1, 2, 2, False), (2, 2, 2, True), (1, 3, 3, False), (3, 2, 2, False),
])
def test_projections_idempotent(p, nc, npatch, periodic):
    s = space(p, nc, npatch, periodic, bounds=UNIT)
    for P in (assembled(s).Pc0, assembled(s).Pc1):
        assert np.abs(((P @ P) - P).toarray()).max() <= 1e-13


def test_single_patch_projections_are_identity():
    s = space(2, 4, 1, True, bounds=UNIT)
    for n, P in ((s.n0, assembled(s).Pc0), (s.n1, assembled(s).Pc1)):
        assert np.abs((P - np.eye(n))).max() == 0.0
    v = np.random.default_rng(0).standard_normal(s.n1)
    assert not s.penalize(v).any()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_projection_idempotent_on_random_fields(seed):
    s = space(2, 2, 2, False, bounds=UNIT)
    v = np.random.default_rng(seed).standard_normal(s.n1)
    Pc1 = assembled(s).Pc1
    once = Pc1 @ v
    assert np.abs(Pc1 @ once - once).max() <= 1e-13 * max(1.0, np.abs(once).max())


def _interface_row_pairs(s):
    """(slot-1 coefficient index pairs) that must agree for a conforming
    field: normal-direction h1 interface DOFs, per tangential column."""
    pairs = []
    nx_h1, ny_l2 = s.line_x.h1.dim, s.line_y.l2.dim
    nx_l2, ny_h1 = s.line_x.l2.dim, s.line_y.h1.dim
    for L, R in s.line_x.h1.interfaces():
        for b in range(ny_l2):
            pairs.append((L * ny_l2 + b, R * ny_l2 + b))
    off = nx_h1 * ny_l2
    for L, R in s.line_y.h1.interfaces():
        for a in range(nx_l2):
            pairs.append((off + a * ny_h1 + L, off + a * ny_h1 + R))
    return pairs


@pytest.mark.parametrize("periodic", [False, True])
def test_projected_fields_have_continuous_normal_traces(periodic, rng):
    s = space(2, 2, 2, periodic, bounds=UNIT)
    v = assembled(s).Pc1 @ rng.standard_normal(s.n1)
    # clamped patch bases are interpolatory at patch ends, so two-sided
    # trace agreement is exactly agreement of the interface coefficients
    for i, j in _interface_row_pairs(s):
        assert abs(v[i] - v[j]) <= 1e-12 * max(1.0, abs(v[i]))


def test_projected_scalars_are_continuous(rng):
    s = space(2, 2, 2, False, bounds=UNIT)
    w = (assembled(s).Pc0 @ rng.standard_normal(s.n0)).reshape(
        s.line_x.h1.dim, s.line_y.h1.dim)
    for L, R in s.line_x.h1.interfaces():
        assert np.abs(w[L, :] - w[R, :]).max() <= 1e-12
    for L, R in s.line_y.h1.interfaces():
        assert np.abs(w[:, L] - w[:, R]).max() <= 1e-12


def test_projection_preserves_polynomial_moments(rng):
    s = space(2, 2, 2, False, bounds=UNIT)
    mo = s.p
    v = rng.standard_normal(s.n1)
    dv = (assembled(s).Pc1 @ v) - v
    dx, dy = s.grid_eval(1, dv)
    X, Y = np.meshgrid(s.grid.x, s.grid.y, indexing="ij")
    for a in range(mo + 1):
        for b in range(s.p + 1):
            w = X**a * Y**b
            assert abs(s.grid.integrate(dx * w)) <= 1e-12
            assert abs(s.grid.integrate(dy * (X**b * Y**a))) <= 1e-12


def test_projection_preserves_constant_fields():
    s = space(3, 2, 2, False, bounds=UNIT)
    for cx, cy in ((1.0, 0.0), (0.0, 1.0), (2.5, -1.5)):
        e = constant_v1(s, cx, cy)
        assert np.abs(assembled(s).Pc1 @ e - e).max() <= 1e-13
    ones = np.ones(s.n0)
    assert np.abs(assembled(s).Pc0 @ ones - ones).max() <= 1e-13


# --- penalization ------------------------------------------------------------------

def test_penalization_annihilates_conforming_fields(rng):
    s = space(2, 2, 2, False, bounds=UNIT)
    v = assembled(s).Pc1 @ rng.standard_normal(s.n1)
    out = s.penalize(v)
    assert np.abs(out).max() <= 1e-12 * max(1.0, np.abs(v).max())


def test_penalization_is_psd(rng):
    s = space(1, 2, 3, False, bounds=UNIT)
    for _ in range(100):
        u = rng.standard_normal(s.n1)
        assert u @ s.penalize(u) >= -1e-13


def test_penalization_energy_equals_jump_norm(rng):
    s = space(2, 2, 2, False, bounds=UNIT)
    u = rng.standard_normal(s.n1)
    quad_form = float(u @ s.penalize(u))
    jump = u - assembled(s).Pc1 @ u
    jx, jy = s.grid_eval(1, jump)
    direct = s.grid.integrate(jx**2 + jy**2)
    assert quad_form == pytest.approx(direct, rel=1e-12)


def test_penalization_symmetry():
    s = space(1, 2, 2, True, bounds=UNIT)
    Pen = np.column_stack([s.penalize(e) for e in np.identity(s.n1)])
    assert np.abs(Pen - Pen.T).max() <= 1e-14


# --- assembled multipatch structure ---------------------------------------------

def test_patch_grid_bounds_and_dims():
    s = space(2, 3, 2, False, bounds=((0.0, 2.0), (0.0, 1.0)))
    assert (s.line_x.n_patches, s.line_y.n_patches) == (2, 2)
    assert np.array_equal(s.line_x.h1.patch_bounds, [0.0, 1.0, 2.0])
    assert np.array_equal(s.line_y.h1.patch_bounds, [0.0, 0.5, 1.0])
    # per direction: 2 patches of 3 cells, clamped degree-3 and degree-2
    # pieces, so (3+3)*2 h1 and (3+2)*2 l2 DOFs
    assert (s.n0, s.n1, s.n2) == (12 * 12, 2 * 12 * 10, 10 * 10)


def test_default_stencil_parameters_follow_degree():
    # the stencil reaches p+1 DOFs past each interface DOF, on both sides
    s = space(3, 2, 2, False, bounds=UNIT)
    (L, R), = s.line_x.h1.interfaces()
    rows = s.line_x.P[:, R].nonzero()[0]
    assert rows.min() == L - 4 and rows.max() == R + 4


# --- equal axes share one line ---------------------------------------------------

@pytest.mark.parametrize("case,cells,shared", [
    ("taylor_green", (4, 4), True), ("lid_driven_cavity", (4, 4), True),
    ("double_shear_layer", (4, 4), True), ("blasius", (4, 4), False),
    ("taylor_green", (8, 4), False)])
def test_equal_axes_share_one_line(case, cells, shared):
    # Blasius's domain is (-1, 1) x (0, 0.5): its axes differ in interval
    ctx, _, _ = build_simulation(SimulationConfig(
        case=case, n_patches=(2, 2), n_cells=cells, dt=1e-3))
    s = ctx.space
    assert (s.line_x is s.line_y) == shared


@pytest.mark.parametrize("npat,periodic", [(1, True), (2, False)])
def test_a_shared_line_computes_what_two_equal_lines_do(npat, periodic):
    # the shared line's basis tables serve both passes of every grid
    # product; bit for bit the results of two equal lines
    shared = build_multipatch(2, npat, 4, DOMAIN, periodic)
    line = shared.line_x
    assert shared.line_y is line
    twin = TensorDeRhamSpace(line, DeRhamLine(2, npat, 4, DOMAIN[1], periodic))
    bc = None if periodic else {e: EdgeBC("normal", 0.0, tangential=0.0)
                                for e in ("left", "right", "bottom", "top")}
    rng = np.random.default_rng(7)
    c = {slot: rng.standard_normal(shared.dim(slot)) for slot in KINDS}
    u, v = rng.standard_normal((2, shared.n1))
    b = rng.standard_normal(shared.n2)

    def results(s):
        out = []
        for slot in KINDS:
            for grid in (s.grid, s.data_grid):
                vals = s.grid_eval(slot, c[slot], grid)
                out += [*vals, s.grid_moments(slot, vals, grid)]
            out += [s.mass(slot, c[slot]), s.solve_mass(slot, c[slot])]
        ctx = OperatorContext(s, bc=bc)
        solver = TensorPoissonSolver(ctx, gamma=0.5, theta=0.01)
        return out + [advection_residual(ctx, u, v), solver.solve(b),
                      solver.m1_solve(u), solver.viscous_correction(v)]

    for got, want in zip(results(shared), results(twin), strict=True):
        assert np.array_equal(got, want)
