"""Tensor-product complexes: dimensions, structure, masses, evaluation."""

import numpy as np
import pytest

from conftest import rand_field, space
from flowforms.diagnostics import l2_error
from flowforms.multipatch import build_multipatch
from flowforms.spaces import Field, eval_field, l2_project
from oracles import convergence_order, mass_v0

PI = np.pi


def tg_velocity(X, Y):
    return (1.0 - 2.0 * np.cos(2 * X) * np.sin(2 * Y),
            1.0 + 2.0 * np.cos(2 * Y) * np.sin(2 * X))


# --- dimensions and complex structure ----------------------------------------

def test_dims_lowest_order_two_by_two():
    patch = build_multipatch(0, 1, 2)
    assert (patch.n2, patch.n1, patch.n0) == (4, 12, 9)


def test_dims_degree_one_two_by_two():
    patch = build_multipatch(1, 1, 2)
    assert (patch.n2, patch.n1, patch.n0) == (9, 24, 16)


@pytest.mark.parametrize("p,nc,npatch,periodic", [
    (1, 3, 1, False), (2, 2, 1, False), (1, 4, 1, True),
    (2, 2, 2, False), (1, 2, 3, True), (3, 2, 2, False),
])
def test_div_curl_is_structurally_zero(p, nc, npatch, periodic):
    s = space(p, nc, npatch, periodic)
    prod = (s.Div @ s.Curl).tocsr()
    prod.eliminate_zeros()
    assert prod.nnz == 0


def test_v1_block_splitting_roundtrip(rng):
    s = space(2, 4, 1, True)
    u = rng.standard_normal(s.n1)
    ux, uy = s.blocks(1, u)
    assert ux.shape == (s.line_x.h1.dim, s.line_y.l2.dim)
    assert uy.shape == (s.line_x.l2.dim, s.line_y.h1.dim)
    assert np.shares_memory(ux, u) and np.shares_memory(uy, u)
    assert np.array_equal(np.concatenate([ux.ravel(), uy.ravel()]), u)
    with pytest.raises(ValueError):
        s.blocks(1, u[:-1])


def test_area():
    s = space(1, 4, 1, False, bounds=((0.0, 2.0), (0.0, 1.0)))
    assert s.area == pytest.approx(2.0)


# --- mass matrices -------------------------------------------------------------

@pytest.mark.parametrize("npatch,periodic", [(1, True), (1, False), (2, False)])
def test_mass_symmetry_and_positivity(npatch, periodic, rng):
    s = space(2, 4 if periodic else 2, npatch, periodic)
    for M in (mass_v0(s), s.M1, s.M2):
        assert np.abs((M - M.T).toarray()).max() <= 1e-14
        assert np.linalg.eigvalsh(M.toarray()).min() > 0.0


def test_m2_total_mass_is_domain_area():
    s = space(2, 3, 2, False, bounds=((0.0, 2.0), (0.0, 1.5)))
    assert s.M2.sum() == pytest.approx(s.area, abs=1e-13)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_mass_quadrature_consistency(slot, rng):
    # c^T M c equals the quadrature integral of the squared field
    s = space(2, 3, 2, False)
    u = rand_field(s, slot, seed=slot + 1)
    M = {0: mass_v0(s), 1: s.M1, 2: s.M2}[slot]
    quad_form = float(u.coeffs @ (M @ u.coeffs))
    direct = s.grid.integrate(sum(v**2 for v in s.grid_eval(slot, u.coeffs)))
    assert abs(quad_form - direct) <= 1e-12 * abs(direct)


def test_exact_mass_solves(rng):
    s = space(3, 2, 2, False)
    for slot, M in enumerate((mass_v0(s), s.M1, s.M2)):
        b = rng.standard_normal(M.shape[0])
        x = s.solve_mass(slot, b)
        assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)


# --- constants and push-forwards -------------------------------------------------

def test_constant_vector_fields_are_exact():
    s = space(1, 3, 2, False, bounds=((0.0, 2.0), (-1.0, 1.0)))
    u = Field(s, 1, s.constant_v1(2.0, -3.0))
    xs = np.linspace(0.01, 1.99, 7)
    ys = np.linspace(-0.99, 0.99, 7)
    vals = eval_field(u, xs, ys)
    assert np.abs(vals[..., 0] - 2.0).max() <= 1e-13
    assert np.abs(vals[..., 1] + 3.0).max() <= 1e-13


def test_constant_scalar_lies_in_v2():
    s = space(2, 2, 1, False)
    q = l2_project(s, 2, lambda X, Y: 1.0)
    vals = eval_field(q, np.linspace(0.1, PI - 0.1, 9), np.linspace(0.1, PI - 0.1, 9))
    assert np.abs(vals - 1.0).max() <= 1e-13


# --- projection ------------------------------------------------------------------

def test_l2_project_zero_gives_zero():
    s = space(1, 2, 1, False)
    u = l2_project(s, 1, lambda X, Y: (0.0, 0.0))
    assert np.abs(u.coeffs).max() == 0.0


def test_l2_project_reproduces_constant_vector():
    s = space(2, 2, 2, False)
    u = l2_project(s, 1, lambda X, Y: (1.0, 0.0))
    vals = eval_field(u, np.linspace(0.05, PI - 0.05, 8),
                      np.linspace(0.05, PI - 0.05, 8))
    assert np.abs(vals[..., 0] - 1.0).max() <= 1e-12
    assert np.abs(vals[..., 1]).max() <= 1e-12


def test_l2_project_residual_is_tiny():
    s = space(2, 4, 1, True)
    u = l2_project(s, 1, tg_velocity)
    X, Y = s.data_grid.mesh()
    rhs = s.grid_moments(1, tg_velocity(X, Y), s.data_grid)
    assert np.linalg.norm(s.M1 @ u.coeffs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_l2_project_rejects_non_finite_data():
    s = space(1, 2, 1, False)
    with pytest.raises(ValueError):
        l2_project(s, 2, lambda X, Y: np.where(X > 1.0, np.nan, 1.0))
    with pytest.raises(ValueError):
        l2_project(s, 1, lambda X, Y: (X * np.inf, Y))
    with pytest.raises(ValueError, match="unknown slot 3"):
        l2_project(s, 3, lambda X, Y: 1.0)


def test_l2_projection_order_matches_degree():
    p = 3
    errs, hs = [], []
    for nc in (6, 12, 24):
        s = space(p, nc, 1, True)
        u = l2_project(s, 1, tg_velocity)
        errs.append(l2_error(s, u, tg_velocity))
        hs.append(PI / nc)
    assert convergence_order(hs, errs) >= p + 0.7


# --- evaluation -------------------------------------------------------------------

def test_eval_field_rejects_outside_domain():
    s = space(1, 2, 1, False)
    u = Field(s, 1, s.constant_v1(1.0, 1.0))
    with pytest.raises(ValueError):
        eval_field(u, [PI + 0.1], [0.5])


def test_v1_basis_integral_equals_mass_row_sum():
    # integrating one basis function equals pairing with the constant field
    s = space(1, 2, 1, False)
    ones = s.constant_v1(1.0, 1.0)
    row_sums = np.asarray(s.M1 @ ones)
    from oracles import DenseOracle

    ora = DenseOracle(s)
    n1x = s.line_x.h1.dim * s.line_y.l2.dim
    for j in (0, n1x // 2, n1x + 1, s.n1 - 1):
        e = np.zeros(s.n1)
        e[j] = 1.0
        vx, vy = ora.v1_values(e)
        integral = ora.integrate(vx + vy)
        assert integral == pytest.approx(row_sums[j], abs=1e-13)


# Lines as (patches, cells per patch, periodic); cells None is the coarse
# periodic line with p+2 cells, where each cell touches every h1 function
# and the cell windows wrap around.
KERNEL_LINES = [(1, 3, False), (1, 5, True), (2, 2, False), (2, 2, True),
                (1, None, True)]


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("npatch,nc,periodic", KERNEL_LINES)
def test_sum_factorised_grid_kernels_match_dense_products(p, npatch, nc,
                                                          periodic):
    # x and y lines differ in cell count, so a transposed axis would show
    nc = p + 2 if nc is None else nc
    s = build_multipatch(p, npatch, (nc, nc + 1), ((0.0, 2.0), (0.0, 1.0)),
                         periodic=periodic)
    rng = np.random.default_rng(p)
    for grid in (s.grid, s.data_grid):
        E = {(axis, kind): line.spaces[kind].collocation(g.pts).toarray()
             for axis, line, g in (("x", s.line_x, grid.gx),
                                   ("y", s.line_y, grid.gy))
             for kind in ("h1", "l2")}
        W = np.multiply.outer(grid.gx.w, grid.gy.w)

        def close(got, want):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        # each slot's (x kind, y kind) blocks, in coefficient order
        for slot, kinds in enumerate([[("h1", "h1")],
                                      [("h1", "l2"), ("l2", "h1")],
                                      [("l2", "l2")]]):
            c = rng.standard_normal(s.dim(slot))
            vals = list(rng.standard_normal((len(kinds), len(grid.x),
                                             len(grid.y))))
            got = s.grid_eval(slot, c, grid)
            assert len(got) == len(kinds)
            moments, start = [], 0
            for (kx, ky), g, V in zip(kinds, got, vals):
                Ex, Ey = E["x", kx], E["y", ky]
                n = Ex.shape[1] * Ey.shape[1]
                C = c[start: start + n].reshape(Ex.shape[1], Ey.shape[1])
                close(g, Ex @ C @ Ey.T)
                moments.append((Ex.T @ (W * V) @ Ey).ravel())
                start += n
            close(s.grid_moments(slot, vals, grid), np.concatenate(moments))


def test_grid_eval_matches_eval_field():
    s = space(2, 2, 1, False)
    u = rand_field(s, 1, seed=11)
    for grid in (s.grid, s.data_grid):
        gx, gy = s.grid_eval(1, u.coeffs, grid)
        vals = eval_field(u, grid.x, grid.y)
        assert np.abs(vals[..., 0] - gx).max() <= 1e-12
        assert np.abs(vals[..., 1] - gy).max() <= 1e-12
