"""The 2D tensor-product de Rham complex V0 --curl--> V1 --div--> V2,
conforming or broken across a grid of patches.

Each slot is a tensor product of the two spaces of a line, h1 of degree
p+1 and l2 of degree p: V0 = h1 (x) h1, V1 = (h1 (x) l2) x (l2 (x) h1),
V2 = l2 (x) l2. `KINDS` is the one owner of this layout: a slot's
coefficients are its component blocks in KINDS order, each row-major (x
index major), and masses, mass solves, projections, values and moments
all work block by block (`TensorDeRhamSpace.blocks`). With Curl q =
(d_y q, -d_x q) and Div v = d_x v_x + d_y v_y, every 2D operator is a
Kronecker product (or block thereof) of the line matrices and is applied
as one, two products of line arrays a block: the space keeps no copy of
them, and no 2D operator is assembled. `solve_mass` is that product, by
mass inverses, masses, collocation matrices (`eval_field`) or eigenvectors.

`build_multipatch` is the one builder of the complex, over equal
axis-aligned patches; a single patch is the broken space whose conforming
projections are the identity, and two equal axes share one `DeRhamLine`.
The 2D projections are tensor products of each line's `DeRhamLine.P`;
the V1 projection acts on the normal-direction factor of each component
only.

Quadrature grids: a space carries two tensor Gauss grids built from its
lines. `grid` has the exact rule: Gauss with n points a cell is exact to
degree 2n-1, and n is chosen so that 2n-1 >= 3p+2, the largest degree per
direction of a product of three spline factors. The mass matrices and
the advection residual integrate on it, exactly. `data_grid` has the
elevated rule for callables, which are not splines: l2_project, forcing,
boundary data and l2_error. Values and moments on either grid are
sum-factorised: per cell, a (q x k) basis table meets the k coefficients
the cell touches, first along one direction and then along the other,
so their cost is linear in the number of cells, and on the exact grid
they allocate no grid-sized array when given one to write into.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod

import numpy as np

from .splines import DeRhamLine, LineGrid

# slot -> the (x kind, y kind) line spaces of each of its component blocks
KINDS = {0: (("h1", "h1"),),
         1: (("h1", "l2"), ("l2", "h1")),
         2: (("l2", "l2"),)}


@dataclass
class Field:
    """Coefficient vector tagged with its slot in the complex, as a run
    hands it out (RunResult.u) to eval_field and l2_error."""

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


class TensorGrid:
    """Tensor product of two line grids: points x (along x) and y, and
    the line grids gx, gy with their basis tables."""

    def __init__(self, gx: LineGrid, gy: LineGrid):
        self.gx, self.gy = gx, gy
        self.x, self.y = gx.pts, gy.pts

    def integrate(self, vals) -> float:
        """Quadrature of point values of shape (len(x), len(y))."""
        return float(self.gx.w @ vals @ self.gy.w)


class TensorDeRhamSpace:
    """The 2D complex over two 1D lines, with the jump penalization
    (I-Pc1)^T M1 (I-Pc1), Pc1 the conforming projection: its x block is
    J^T M_h1 J (x) M_l2 with J = I - P of the x line. On a line with a
    single patch the projection is the identity; with one patch in both
    directions the penalization is zero."""

    def __init__(self, line_x: DeRhamLine, line_y: DeRhamLine):
        self.line_x, self.line_y = line_x, line_y
        self.p = line_x.p
        if line_y.p != line_x.p:
            raise ValueError("mixed degrees between directions are not supported")
        self.periodic = (line_x.periodic, line_y.periodic)
        self.broken = line_x.h1.broken or line_y.h1.broken
        self.bounds = (line_x.interval, line_y.interval)

        # slot -> the (n_x, n_y) shape of each component block, and where
        # each block ends in the slot's coefficient vector
        self.shapes = {slot: [(line_x.spaces[kx].dim, line_y.spaces[ky].dim)
                              for kx, ky in kinds]
                       for slot, kinds in KINDS.items()}
        self._ends = {slot: np.cumsum([nx * ny for nx, ny in shapes]).tolist()
                      for slot, shapes in self.shapes.items()}
        self.n0, self.n1, self.n2 = map(self.dim, KINDS)

        self.grid = TensorGrid(line_x.grid, line_y.grid)
        self.data_grid = TensorGrid(line_x.data_grid, line_y.data_grid)

    # --- bookkeeping -----------------------------------------------------
    def dim(self, slot: int) -> int:
        return self._ends[slot][-1]

    def blocks(self, slot: int, c) -> list:
        """The component blocks of the slot's coefficients c (any array of
        the slot's size), in KINDS order, as (n_x, n_y) views."""
        c = np.asarray(c).reshape(-1)
        if c.size != self.dim(slot):
            raise ValueError(f"slot V{slot} needs {self.dim(slot)} coeffs, "
                             f"got {c.size}")
        return [c[end - nx * ny: end].reshape(nx, ny)
                for end, (nx, ny) in zip(self._ends[slot], self.shapes[slot])]

    # --- masses and exact mass solves -------------------------------------
    def mass(self, slot: int, c) -> np.ndarray:
        """M c on the slot, by the lines' masses as the factors."""
        return self.solve_mass(slot, c, (self.line_x.mass, self.line_y.mass))

    def solve_mass(self, slot: int, b, factors=None) -> np.ndarray:
        """M^-1 b on the slot, one Kronecker product F_x B F_y^T a component
        block B: by the lines' mass inverses `inv`, or by factors, the (x, y)
        pair of arrays by kind to use in their place (unchecked for NaN)."""
        fx, fy = factors or (self.line_x.inv, self.line_y.inv)
        return np.concatenate([(fx[kx] @ B @ fy[ky].T).ravel() for (kx, ky), B
                               in zip(KINDS[slot], self.blocks(slot, b), strict=True)])

    def penalize(self, c) -> np.ndarray:
        """The jump penalization applied to the V1 coefficients c, on the
        interface DOFs' rows of each block only (where JMJ lies): none,
        and exactly zero, on a space with no broken line."""
        out = np.zeros(self.n1)
        (cx, cy), (ox, oy) = self.blocks(1, c), self.blocks(1, out)
        lx, ly = self.line_x, self.line_y
        ox[lx.jumps] = lx.JMJ[lx.jumps] @ cx @ ly.mass["l2"]
        oy[:, ly.jumps] = lx.mass["l2"] @ (cy @ ly.JMJ[:, ly.jumps])
        return out

    # --- Dt = Div Pc1 and CP0 = Curl Pc0, and their transposes -------------
    def div(self, c) -> np.ndarray:
        """Dt c = D_x P_x C_x + C_y (D_y P_y)^T on the V1 blocks C."""
        cx, cy = self.blocks(1, c)
        return (self.line_x.DP @ cx + cy @ self.line_y.DP.T).ravel()

    def div_transpose(self, q, factors=None) -> np.ndarray:
        """Dt^T q = (F_x Q, Q F_y^T) on the V2 block Q, by F = (D P)^T or by
        factors, the (x, y) pair of line arrays to use in its place."""
        Fx, Fy = factors or (self.line_x.DP.T, self.line_y.DP.T)
        Q, = self.blocks(2, q)
        return np.concatenate([(Fx @ Q).ravel(), (Q @ Fy.T).ravel()])

    # P is the identity on a line whose h1 is not broken: skip it there
    def curl(self, w) -> np.ndarray:
        """CP0 w = (P_x W (D_y P_y)^T, -D_x P_x W P_y^T) on the V0 block W."""
        (W,), lx, ly = self.blocks(0, w), self.line_x, self.line_y
        PW, DW = lx.P @ W if lx.h1.broken else W, lx.DP @ W
        return np.concatenate([(PW @ ly.DP.T).ravel(),
                               (-(DW @ ly.P.T if ly.h1.broken else DW)).ravel()])

    def curl_transpose(self, v) -> np.ndarray:
        """CP0^T v = P_x^T V_x D_y P_y - (D_x P_x)^T V_y P_y on blocks V."""
        (vx, vy), lx, ly = self.blocks(1, v), self.line_x, self.line_y
        PV, DV = lx.P.T @ vx if lx.h1.broken else vx, lx.DP.T @ vy
        return (PV @ ly.DP - (DV @ ly.P if ly.h1.broken else DV)).ravel()

    # --- values and moments on a quadrature grid ---------------------------
    # grid defaults to the exact grid (see the module docstring); values
    # have shape (len(grid.x), len(grid.y)), one array per component.
    def grid_eval(self, slot: int, c, grid=None, out=None) -> list:
        """Values E_x C E_y^T of each block C of the coefficients c, into
        out (C-contiguous arrays) if given: along y, then along x."""
        g, vals = grid or self.grid, []
        for (kx, ky), C, o in zip(KINDS[slot], self.blocks(slot, c),
                                  [None] * 2 if out is None else out):
            tx, ty = g.gx.tables[kx], g.gy.tables[ky]
            mid = ty.scratch("values", (ty.n_points, len(C)))
            vals.append(tx.to_points(ty.to_points(C.T, mid).T, o))
        return vals

    def grid_moments(self, slot: int, vals, grid=None) -> np.ndarray:
        """The coefficient vector of the moments E_x^T W_x V W_y E_y of
        the point values V of each component, along x, then along y."""
        g, out = grid or self.grid, np.empty(self.dim(slot))
        for (kx, ky), V, B in zip(KINDS[slot], vals, self.blocks(slot, out),
                                  strict=True):
            tx, ty = g.gx.tables[kx], g.gy.tables[ky]
            mid = ty.scratch("moments", (V.shape[1], tx.dim))
            ty.moments(tx.moments(V, mid.T).T, B.T)
        return out

    # The same with the slot in the name: benchmarks/tracer.py patches
    # these to time the grid work, so the advection kernel calls them.
    grid_eval_v0 = partialmethod(grid_eval, 0)
    grid_eval_v1 = partialmethod(grid_eval, 1)
    grid_eval_v2 = partialmethod(grid_eval, 2)
    grid_moments_v0 = partialmethod(grid_moments, 0)
    grid_moments_v1 = partialmethod(grid_moments, 1)
    grid_moments_v2 = partialmethod(grid_moments, 2)


def build_multipatch(degree, n_patches, cells_per_patch,
                     bounds=((0.0, 1.0), (0.0, 1.0)),
                     periodic=(False, False)) -> TensorDeRhamSpace:
    """The complex over n_patches equal patches of cells_per_patch cells;
    each a count, or one per direction, as periodic may be one bool."""
    n, cells, per = ((v, v) if np.isscalar(v) else v
                     for v in (n_patches, cells_per_patch, periodic))
    args = [(degree, n[i], cells[i], tuple(map(float, bounds[i])), bool(per[i]))
            for i in (0, 1)]
    line_x = DeRhamLine(*args[0])
    return TensorDeRhamSpace(line_x, line_x if args[1] == args[0]
                             else DeRhamLine(*args[1]))


def sample(grid: TensorGrid, f, n: int) -> list:
    """The n components of the callable f(X, Y) on the grid, each broadcast
    to its shape (len(grid.x), len(grid.y)). The contract of every callable
    of (x, y): X = grid.x[:, None] is the column of x points, Y =
    grid.y[None, :] the row of y points, and f returns one component when
    n is 1 and n of them otherwise, each one that broadcasts to the grid
    (a scalar, row, column or full array), so a separable f evaluates on
    len(x) + len(y) points. Raises ValueError on a non-finite value."""
    shape = (len(grid.x), len(grid.y))
    out = f(grid.x[:, None], grid.y[None, :])
    vals = [np.broadcast_to(np.asarray(v, dtype=np.float64), shape)
            for v in ((out,) if n == 1 else out)]
    if len(vals) != n:
        raise ValueError(f"expected {n} components, got {len(vals)}")
    if not all(np.all(np.isfinite(v)) for v in vals):
        raise ValueError("data is not finite at quadrature points")
    return vals


def l2_project(space: TensorDeRhamSpace, slot: int, f) -> np.ndarray:
    """L2 projection of a callable f(X, Y) (see `sample`) onto the given
    slot, integrated on the data grid; for slot 1 f returns (u_x, u_y)."""
    if slot not in KINDS:
        raise ValueError(f"unknown slot {slot}")
    grid = space.data_grid
    rhs = space.grid_moments(slot, sample(grid, f, len(KINDS[slot])), grid)
    return space.solve_mass(slot, rhs)


def collocation(space: TensorDeRhamSpace, xs, ys) -> tuple:
    """The `solve_mass` factors that sample on the grid of the 1D axes xs and
    ys: the lines' sparse collocation matrices there, which hold no space."""
    return tuple({k: s.collocation(pts) for k, s in line.spaces.items()}
                 for line, pts in ((space.line_x, xs), (space.line_y, ys)))


def eval_field(field: Field, xs, ys):
    """Values of a field on the tensor grid of the 1D axes xs and ys: shape
    (len(xs), len(ys)) for the scalar slots, (len(xs), len(ys), 2) for V1."""
    s = field.space
    vals = s.solve_mass(field.slot, field.coeffs, collocation(s, xs, ys))
    vals = vals.reshape(-1, np.size(xs), np.size(ys))
    return vals[0] if len(vals) == 1 else np.stack(vals, axis=-1)
