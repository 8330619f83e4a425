"""The 2D tensor-product de Rham complex V0 --curl--> V1 --div--> V2,
conforming or broken across a grid of patches.

Each slot is a tensor product of the two spaces of a line, h1 of degree
p+1 and l2 of degree p: V0 = h1 (x) h1, V1 = (h1 (x) l2) x (l2 (x) h1),
V2 = l2 (x) l2. `KINDS` is the one owner of this layout: a slot's
coefficients are its component blocks in KINDS order, each row-major (x
index major), and masses, mass solves, projections, values and moments
all work block by block (`TensorDeRhamSpace.blocks`). With Curl q =
(d_y q, -d_x q) and Div v = d_x v_x + d_y v_y, every global matrix is a
Kronecker product (or block thereof) of the line matrices, so Div.Curl = 0
holds entrywise exactly.

A single patch is the broken space whose conforming projections are the
identity. Across a patch interface, conformity is restored by averaging
the two interface DOFs and correcting the p+1 nearest coefficients on
each side with one stencil, the one that preserves the polynomial moments
up to order p (`projection_stencil_1d`).
The 2D projections are tensor products of the 1D ones; the V1 projection
acts on the normal-direction factor of each component only.

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
from functools import partialmethod

import numpy as np
import scipy.sparse as sp

from .linalg import KroneckerSolver
from .splines import (Broken1D, DegenerateStencilError, DeRhamLine, LineGrid,
                      cell_quadrature)

# slot -> the (x kind, y kind) line spaces of each of its component blocks
KINDS = {0: (("h1", "h1"),),
         1: (("h1", "l2"), ("l2", "h1")),
         2: (("l2", "l2"),)}


def projection_stencil_1d(degree, n_cells=None) -> np.ndarray:
    """Interface-averaging stencil c_0..c_r of a broken space of the given
    (h1) degree, with r = degree and c_0 = 1/2.

    The coefficients act on the incoming side of the interface; the
    outgoing side uses c'_0 = c_0 and c'_i = -c_i (i > 0), which is what
    makes the operator a projection. c_1..c_r solve the square system that
    preserves the polynomial moments up to order degree-1. n_cells is the
    per-patch cell count (default r+1); the moment integrals run over the
    first min(n_cells, r+1) cells, which hold the system's basis functions.
    """
    r = degree
    n_cells = r + 1 if n_cells is None else min(n_cells, r + 1)
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


def _kron(slot, fx, fy) -> sp.csr_matrix:
    """The block-diagonal matrix on the slot whose block of kinds (kx, ky)
    is fx[kx] (x) fy[ky]; a single block skips block_diag's copy."""
    blocks = [sp.kron(fx[kx], fy[ky], format="csr") for kx, ky in KINDS[slot]]
    return blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr")


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

        # slot -> the (n_x, n_y) shape of each component block, and where
        # each block ends in the slot's coefficient vector
        self.shapes = {slot: [(line_x.spaces[kx].dim, line_y.spaces[ky].dim)
                              for kx, ky in kinds]
                       for slot, kinds in KINDS.items()}
        self._ends = {slot: np.cumsum([nx * ny for nx, ny in shapes]).tolist()
                      for slot, shapes in self.shapes.items()}
        self.n0, self.n1, self.n2 = map(self.dim, KINDS)

        Dx, Dy = line_x.D, line_y.D
        Ix, Iy = ({k: sp.identity(s.dim, format="csr") for k, s in
                   line.spaces.items()} for line in (line_x, line_y))

        self.Curl = sp.vstack(
            [sp.kron(Ix["h1"], Dy, format="csr"), -sp.kron(Dx, Iy["h1"], format="csr")],
            format="csr",
        )
        self.Div = sp.hstack(
            [sp.kron(Dx, Iy["l2"], format="csr"), sp.kron(Ix["l2"], Dy, format="csr")],
            format="csr",
        )

        self.M1 = _kron(1, line_x.mass, line_y.mass)
        self.M2 = _kron(2, line_x.mass, line_y.mass)
        self._mass_solvers = {
            slot: [KroneckerSolver([line_x.mass_factor(kx), line_y.mass_factor(ky)])
                   for kx, ky in kinds]
            for slot, kinds in KINDS.items()}

        self.grid = TensorGrid(line_x.grid, line_y.grid)
        self.data_grid = TensorGrid(line_x.data_grid, line_y.data_grid)

        self.Px = conforming_projection_1d(line_x.h1)
        self.Py = conforming_projection_1d(line_y.h1)
        proj_x, proj_y = {**Ix, "h1": self.Px}, {**Iy, "h1": self.Py}
        self.Pc0 = _kron(0, proj_x, proj_y)
        self.Pc1 = _kron(1, proj_x, proj_y)
        J = (sp.identity(self.n1, format="csr") - self.Pc1).tocsr()
        self.penalization = (J.T @ self.M1 @ J).tocsr()

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

    @property
    def area(self) -> float:
        (x0, x1), (y0, y1) = self.bounds
        return (x1 - x0) * (y1 - y0)

    # --- exact mass solves ------------------------------------------------
    def solve_mass(self, slot: int, b, solvers=None) -> np.ndarray:
        """M^-1 b on the slot, one Kronecker solve a component block: by
        the mass factors, or by the given solvers, one a block."""
        solvers = self._mass_solvers[slot] if solvers is None else solvers
        return np.concatenate([k.solve(B).ravel() for k, B in
                               zip(solvers, self.blocks(slot, b), strict=True)])

    # --- values and moments on a quadrature grid ---------------------------
    # grid defaults to the exact grid (see the module docstring); values
    # have shape (len(grid.x), len(grid.y)), one array per component.
    def grid_eval(self, slot: int, c, grid=None) -> list:
        """Values E_x C E_y^T of each block C of the coefficients c,
        sum-factorised: the cell-local products along y, then along x."""
        g = grid or self.grid
        return [g.gx.tables[kx].to_points(g.gy.tables[ky].to_points(C.T).T)
                for (kx, ky), C in zip(KINDS[slot], self.blocks(slot, c))]

    def grid_moments(self, slot: int, vals, grid=None) -> np.ndarray:
        """The coefficient vector of the moments E_x^T W_x V W_y E_y of
        the point values V of each component, along x, then along y."""
        g, out = grid or self.grid, np.empty(self.dim(slot))
        for (kx, ky), V, B in zip(KINDS[slot], vals, self.blocks(slot, out),
                                  strict=True):
            B[...] = g.gy.tables[ky].moments(g.gx.tables[kx].moments(V).T).T
        return out

    # The same with the slot in the name: benchmarks/tracer.py patches
    # these to time the grid work, so the advection kernel calls them.
    grid_eval_v0 = partialmethod(grid_eval, 0)
    grid_eval_v1 = partialmethod(grid_eval, 1)
    grid_eval_v2 = partialmethod(grid_eval, 2)
    grid_moments_v0 = partialmethod(grid_moments, 0)
    grid_moments_v1 = partialmethod(grid_moments, 1)
    grid_moments_v2 = partialmethod(grid_moments, 2)

    def constant_v1(self, cx: float, cy: float) -> np.ndarray:
        """Coefficients of a constant vector field (partition of unity)."""
        return np.concatenate([np.full(nx * ny, float(c)) for (nx, ny), c
                               in zip(self.shapes[1], (cx, cy))])


def sample(grid: TensorGrid, f, n: int) -> list:
    """The n components of the callable f(x, y) on the grid's mesh, each
    broadcast to the mesh's shape: f returns one array when n is 1 and n
    of them otherwise. Raises ValueError on a non-finite value."""
    X, Y = grid.mesh()
    out = f(X, Y)
    vals = [np.broadcast_to(np.asarray(v, dtype=np.float64), X.shape)
            for v in ((out,) if n == 1 else out)]
    if len(vals) != n:
        raise ValueError(f"expected {n} components, got {len(vals)}")
    if not all(np.all(np.isfinite(v)) for v in vals):
        raise ValueError("data is not finite at quadrature points")
    return vals


def l2_project(space: TensorDeRhamSpace, slot: int, f) -> Field:
    """L2 projection of a callable f(x, y) onto the given slot, integrated
    on the data grid.

    For slot 1 the callable must return the pair (u_x, u_y)."""
    if slot not in KINDS:
        raise ValueError(f"unknown slot {slot}")
    grid = space.data_grid
    rhs = space.grid_moments(slot, sample(grid, f, len(KINDS[slot])), grid)
    return Field(space, slot, space.solve_mass(slot, rhs))


class PointSampler:
    """Values of fields at the points of the tensor grid of the 1D axes
    xs and ys, from the sparse collocation matrices of the lines' spaces
    there (Ex, and EyT transposed)."""

    def __init__(self, space: TensorDeRhamSpace, xs, ys):
        self.Ex = {k: s.collocation(xs) for k, s in space.line_x.spaces.items()}
        self.EyT = {k: s.collocation(ys).T
                    for k, s in space.line_y.spaces.items()}

    def values(self, field: Field) -> list:
        """Ex C EyT for each component block C of the field: one
        (len(xs), len(ys)) array per component."""
        return [self.Ex[kx] @ C @ self.EyT[ky] for (kx, ky), C in
                zip(KINDS[field.slot], field.space.blocks(field.slot, field.coeffs))]


def eval_field(field: Field, xs, ys):
    """Values of a field on the tensor grid of the 1D axes xs and ys: shape
    (len(xs), len(ys)) for the scalar slots, (len(xs), len(ys), 2) for V1."""
    vals = PointSampler(field.space, xs, ys).values(field)
    return vals[0] if len(vals) == 1 else np.stack(vals, axis=-1)
