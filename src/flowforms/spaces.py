"""The 2D tensor-product de Rham complex V0 --curl--> V1 --div--> V2,
conforming or broken across a grid of patches.

V0 = S_{p+1} (x) S_{p+1},  V1 = (S_{p+1} (x) S_p) x (S_p (x) S_{p+1}),
V2 = S_p (x) S_p, with Curl q = (d_y q, -d_x q) and Div v = d_x v_x + d_y v_y.
Every global matrix is a Kronecker product (or block thereof) of the 1D
line matrices, so Div.Curl = 0 holds entrywise exactly.

A single patch is the broken space whose conforming projections are the
identity. Across a patch interface, conformity is restored by averaging
the two interface DOFs and correcting the p+1 nearest coefficients on
each side with one stencil, the one that preserves the polynomial moments
up to order p (`projection_stencil_1d`).
The 2D projections are tensor products of the 1D ones; the V1 projection
acts on the normal-direction factor of each component only.

V1 coefficient layout: x-component block then y-component block, each in
row-major (x-index major) tensor order.

Quadrature grids: a space carries two tensor Gauss grids built from its
lines. `grid` has the exact rule: Gauss with n points a cell is exact to
degree 2n-1, and n is chosen so that 2n-1 >= 3p+2, the largest degree per
direction of a product of three spline factors. The mass matrices and
the advection residual integrate on it, exactly. `data_grid` has the
elevated rule for callables, which are not splines: l2_project, forcing,
boundary data and l2_error. Values and moments on either grid are
sum-factorised: per cell, a (q x k) basis table meets the k coefficients
the cell touches, first along one direction and then along the other,
so their cost is linear in the number of cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import KroneckerSolver
from .splines import (BasisTable, Broken1D, DegenerateStencilError, DeRhamLine,
                      LineGrid, cell_quadrature)


def projection_stencil_1d(degree, n_cells=None) -> np.ndarray:
    """Interface-averaging stencil c_0..c_r of a broken space of the given
    (h1) degree, with r = degree and c_0 = 1/2.

    The coefficients act on the incoming side of the interface; the
    outgoing side uses c'_0 = c_0 and c'_i = -c_i (i > 0), which is what
    makes the operator a projection. c_1..c_r solve the square system that
    preserves the polynomial moments up to order degree-1. n_cells is the
    per-patch cell count used for the moment integrals; it defaults to
    r+1, which leaves all stencil supports untruncated.
    """
    r = degree
    if n_cells is None:
        n_cells = r + 1
    # moment integrals I[i, j] = int_patch phi_i(x) x^j dx on unit cells,
    # phi_i = i-th clamped basis function counted from the interface
    space = Broken1D(degree, 1, n_cells, (0.0, float(n_cells)), False)
    pts, w = cell_quadrature(space.breakpoints, 2 * degree + 1)
    E = space.collocation(pts).toarray()[:, : r + 1]
    powers = pts[:, None] ** np.arange(r)[None, :]
    I = E.T @ (w[:, None] * powers)  # (r+1, r)

    A = I[1:, :].T  # rows: moment j, cols: c_1..c_r
    if np.linalg.cond(A) > 1e12:
        raise DegenerateStencilError("moment system is numerically singular")
    return np.concatenate([[0.5], np.linalg.solve(A, 0.5 * I[0, :])])


def conforming_projection_1d(space: Broken1D) -> sp.csr_matrix:
    """1D conforming projection on a broken degree-(p+1) space; the
    identity on a single patch.

    Identity away from interfaces; at each interface the two coupled DOF
    columns are replaced by the averaging stencil c of the space's degree.
    Its integrals depend only on the cell count per patch, not on h, and
    it fits in the two adjacent patches, which `Broken1D.check` makes at
    least two cells wide."""
    interfaces = space.interfaces()
    if not interfaces:
        return sp.identity(space.dim, format="csr")
    c = projection_stencil_1d(space.degree, n_cells=space.cells_per_patch)
    iface_cols = {idx for pair in interfaces for idx in pair}
    triplets = [(k, k, 1.0) for k in range(space.dim) if k not in iface_cols]
    for L, R in interfaces:
        # column R: the first DOF of the right patch; column L: the last
        # DOF of the left patch
        triplets += [(L, R, 0.5), (R, R, 0.5), (L, L, 0.5), (R, L, 0.5)]
        for i in range(1, len(c)):
            triplets += [(R + i, R, c[i]), (L - i, R, -c[i]),
                         (L - i, L, c[i]), (R + i, L, -c[i])]
    rows, cols, vals = zip(*triplets)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(space.dim, space.dim)).tocsr()


@dataclass
class Field:
    """Coefficient vector tagged with its slot in the complex."""

    space: "TensorDeRhamSpace"
    slot: int  # 0, 1 or 2
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.space.dim(self.slot),):
            raise ValueError(
                f"slot V{self.slot} needs {self.space.dim(self.slot)} coeffs, "
                f"got {self.coeffs.shape}"
            )


def coeffs_of(u) -> np.ndarray:
    return u.coeffs if isinstance(u, Field) else np.asarray(u, dtype=np.float64)


def _grid_eval(tx: BasisTable, ty: BasisTable, c) -> np.ndarray:
    """Values Ex C Ey^T of the coefficients c on the tables' points,
    sum-factorised: the cell-local products along y, then along x."""
    C = np.asarray(c).reshape(tx.dim, ty.dim)
    return tx.to_points(ty.to_points(C.T).T)


def _grid_moments(tx: BasisTable, ty: BasisTable, vals) -> np.ndarray:
    """Moments Ex^T Wx V Wy Ey of point values V against the basis, the
    transposed products along x, then along y."""
    return ty.moments(tx.moments(vals).T).T.ravel()


class TensorGrid:
    """Tensor product of two line grids: points x (along x) and y, and
    the line grids gx, gy with their basis tables."""

    def __init__(self, gx: LineGrid, gy: LineGrid):
        self.gx, self.gy = gx, gy
        self.x, self.y = gx.pts, gy.pts

    def mesh(self):
        """Meshgrid (ij) of the points."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def integrate(self, vals) -> float:
        """Quadrature of point values of shape (len(x), len(y))."""
        return float(self.gx.w @ vals @ self.gy.w)


class TensorDeRhamSpace:
    """The assembled 2D complex over two 1D lines, with its conforming
    projections Px, Py (per line), Pc0, Pc1 and the jump penalization
    (I-Pc1)^T M1 (I-Pc1). On a line with a single patch the projection is
    the identity; with one patch in both directions Pc0 and Pc1 are the
    identity and the penalization is zero."""

    def __init__(self, line_x: DeRhamLine, line_y: DeRhamLine):
        self.line_x = line_x
        self.line_y = line_y
        self.p = line_x.p
        if line_y.p != line_x.p:
            raise ValueError("mixed degrees between directions are not supported")
        self.periodic = (line_x.periodic, line_y.periodic)
        self.bounds = (line_x.interval, line_y.interval)

        nh1x, nl2x = line_x.h1.dim, line_x.l2.dim
        nh1y, nl2y = line_y.h1.dim, line_y.l2.dim
        self.n0 = nh1x * nh1y
        self.n1x = nh1x * nl2y
        self.n1y = nl2x * nh1y
        self.n1 = self.n1x + self.n1y
        self.n2 = nl2x * nl2y

        Dx, Dy = line_x.D, line_y.D
        Ih1x = sp.identity(nh1x, format="csr")
        Ih1y = sp.identity(nh1y, format="csr")
        Il2x = sp.identity(nl2x, format="csr")
        Il2y = sp.identity(nl2y, format="csr")

        self.Curl = sp.vstack(
            [sp.kron(Ih1x, Dy, format="csr"), -sp.kron(Dx, Ih1y, format="csr")],
            format="csr",
        )
        self.Div = sp.hstack(
            [sp.kron(Dx, Il2y, format="csr"), sp.kron(Il2x, Dy, format="csr")],
            format="csr",
        )

        self.M1x = sp.kron(line_x.M_h1, line_y.M_l2, format="csr")
        self.M1y = sp.kron(line_x.M_l2, line_y.M_h1, format="csr")
        self.M1 = sp.block_diag([self.M1x, self.M1y], format="csr")
        self.M2 = sp.kron(line_x.M_l2, line_y.M_l2, format="csr")

        self._solver0 = KroneckerSolver(
            [line_x.mass_factor("h1"), line_y.mass_factor("h1")]
        )
        self._solver1x = KroneckerSolver(
            [line_x.mass_factor("h1"), line_y.mass_factor("l2")]
        )
        self._solver1y = KroneckerSolver(
            [line_x.mass_factor("l2"), line_y.mass_factor("h1")]
        )
        self._solver2 = KroneckerSolver(
            [line_x.mass_factor("l2"), line_y.mass_factor("l2")]
        )

        self.grid = TensorGrid(line_x.grid, line_y.grid)
        self.data_grid = TensorGrid(line_x.data_grid, line_y.data_grid)

        self.Px = conforming_projection_1d(line_x.h1)
        self.Py = conforming_projection_1d(line_y.h1)
        self.Pc0 = sp.kron(self.Px, self.Py, format="csr")
        self.Pc1 = sp.block_diag(
            [sp.kron(self.Px, Il2y, format="csr"),
             sp.kron(Il2x, self.Py, format="csr")],
            format="csr",
        )
        J = (sp.identity(self.n1, format="csr") - self.Pc1).tocsr()
        self.penalization = (J.T @ self.M1 @ J).tocsr()

    # --- bookkeeping -----------------------------------------------------
    def dim(self, slot: int) -> int:
        return {0: self.n0, 1: self.n1, 2: self.n2}[slot]

    def split_v1(self, u):
        u = np.asarray(u)
        return u[: self.n1x], u[self.n1x:]

    @property
    def area(self) -> float:
        (x0, x1), (y0, y1) = self.bounds
        return (x1 - x0) * (y1 - y0)

    # --- exact mass solves ------------------------------------------------
    def solve_M0(self, b):
        return self._solver0.solve(b)

    def solve_M1(self, b):
        bx, by = self.split_v1(b)
        return np.concatenate([self._solver1x.solve(bx), self._solver1y.solve(by)])

    def solve_M2(self, b):
        return self._solver2.solve(b)

    # --- values and moments on a quadrature grid ---------------------------
    # grid defaults to the exact grid (see the module docstring); values
    # have shape (len(grid.x), len(grid.y)).
    def grid_eval_v0(self, c, grid=None):
        g = grid or self.grid
        return _grid_eval(g.gx.h1, g.gy.h1, c)

    def grid_eval_v2(self, c, grid=None):
        g = grid or self.grid
        return _grid_eval(g.gx.l2, g.gy.l2, c)

    def grid_eval_v1(self, u, grid=None):
        g = grid or self.grid
        ux, uy = self.split_v1(u)
        return (_grid_eval(g.gx.h1, g.gy.l2, ux),
                _grid_eval(g.gx.l2, g.gy.h1, uy))

    def grid_moments_v0(self, vals, grid=None):
        g = grid or self.grid
        return _grid_moments(g.gx.h1, g.gy.h1, vals)

    def grid_moments_v2(self, vals, grid=None):
        g = grid or self.grid
        return _grid_moments(g.gx.l2, g.gy.l2, vals)

    def grid_moments_v1(self, vals_x, vals_y, grid=None):
        g = grid or self.grid
        return np.concatenate([_grid_moments(g.gx.h1, g.gy.l2, vals_x),
                               _grid_moments(g.gx.l2, g.gy.h1, vals_y)])

    def constant_v1(self, cx: float, cy: float) -> np.ndarray:
        """Coefficients of a constant vector field (partition of unity)."""
        return np.concatenate(
            [np.full(self.n1x, float(cx)), np.full(self.n1y, float(cy))]
        )


def l2_project(space: TensorDeRhamSpace, slot: int, f) -> Field:
    """L2 projection of a callable f(x, y) onto the given slot, integrated
    on the data grid.

    For slot 1 the callable must return the pair (u_x, u_y)."""
    grid = space.data_grid
    X, Y = grid.mesh()
    if slot == 1:
        fx, fy = f(X, Y)
        fx = np.broadcast_to(np.asarray(fx, dtype=np.float64), X.shape)
        fy = np.broadcast_to(np.asarray(fy, dtype=np.float64), X.shape)
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))):
            raise ValueError("initial data is not finite at quadrature points")
        rhs = space.grid_moments_v1(fx, fy, grid)
        return Field(space, 1, space.solve_M1(rhs))
    vals = np.broadcast_to(np.asarray(f(X, Y), dtype=np.float64), X.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("data is not finite at quadrature points")
    if slot == 0:
        return Field(space, 0, space.solve_M0(space.grid_moments_v0(vals, grid)))
    if slot == 2:
        return Field(space, 2, space.solve_M2(space.grid_moments_v2(vals, grid)))
    raise ValueError(f"unknown slot {slot}")


def eval_field(field: Field, xs, ys):
    """Values of a field on the tensor grid of the 1D axes xs and ys: shape
    (len(xs), len(ys)) for the scalar slots, (len(xs), len(ys), 2) for V1."""
    space = field.space
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    lx, ly = space.line_x, space.line_y
    if field.slot == 0:
        spaces = [(lx.h1, ly.h1, field.coeffs)]
    elif field.slot == 2:
        spaces = [(lx.l2, ly.l2, field.coeffs)]
    else:
        ux, uy = space.split_v1(field.coeffs)
        spaces = [(lx.h1, ly.l2, ux), (lx.l2, ly.h1, uy)]

    out = []
    for sx, sy, c in spaces:
        C = np.asarray(c).reshape(sx.dim, sy.dim)
        out.append(sx.collocation(xs) @ C @ sy.collocation(ys).T)
    if field.slot == 1:
        return np.stack(out, axis=-1)
    return out[0]
