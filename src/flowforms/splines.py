"""Univariate B-spline spaces and the 1D building blocks of the 2D complex.

The 2D discrete de Rham sequence used by the solver factorizes into two
1D "lines": per direction we carry a degree-(p+1) space (clamped or
periodic, possibly broken across patches) together with its degree-p
derivative space, the derivative incidence matrix between them, and the
1D mass matrices. All global 2D operators are Kronecker products of
these 1D objects. A `DeRhamLine` owns every 1D array of its grid alone,
each in one form: the dense masses and their inverses, the conforming
projection and the dense products the operators and solvers are formed
from.

Conventions: uniform breakpoints; one knot vector a line, clamped (open)
on bounded directions, periodic wrap on a periodic single patch. The
basis values come from de Boor's recursion in numpy, in scipy's
arithmetic (`design_matrix`). A patch interface is a knot of
multiplicity degree+1, where the basis is discontinuous: a broken space
is the ordinary B-spline space on that knot vector, and a single patch
is its case without interfaces. The conforming projection averages the
two DOFs of an interface and corrects the p+1 nearest on each side by
the stencil that preserves the polynomial moments up to order p
(`projection_stencil_1d`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linalg import spd_inverse


class DegenerateStencilError(ValueError):
    """Moment system of the interface stencil is singular, or the stencil
    does not fit in the patches."""


class Broken1D:
    """The scalar B-spline space of one degree over n_patches equal
    patches of uniform cells: one knot vector, clamped at the ends, whose
    interior patch bounds are knots of multiplicity degree+1, so the
    space is discontinuous there and its DOFs run patch by patch. A
    periodic single patch has the uniform knots extended degree cells
    past both ends instead, with basis k identified with k mod dim."""

    def __init__(self, degree, n_patches, cells_per_patch, interval, periodic):
        self.check(degree, n_patches, cells_per_patch, interval, periodic)
        a, b = float(interval[0]), float(interval[1])
        self.degree = degree
        self.n_patches = n_patches
        self.cells_per_patch = cells_per_patch
        self.periodic = periodic
        self.wraps = periodic and n_patches == 1   # basis folds modulo dim
        self.interval = (a, b)
        self.patch_bounds = np.linspace(a, b, n_patches + 1)
        self.h = (self.patch_bounds[1] - a) / cells_per_patch
        self.breakpoints = np.append(np.linspace(
            self.patch_bounds[:-1], self.patch_bounds[1:], cells_per_patch,
            endpoint=False, axis=1).ravel(), b)
        if self.wraps:
            self.knots = a + self.h * np.arange(
                -degree, cells_per_patch + degree + 1)
            self.dim = cells_per_patch
        else:
            mult = np.ones(len(self.breakpoints), dtype=np.int64)
            mult[::cells_per_patch] = degree + 1
            self.knots = np.repeat(self.breakpoints, mult)
            self.dim = len(self.knots) - degree - 1
        self.offsets = np.arange(n_patches + 1) * (self.dim // n_patches)

    @staticmethod
    def check(degree, n_patches, cells_per_patch, interval, periodic):
        """Raise ValueError unless the arguments make a space: the interval
        is finite and nonempty, a periodic single patch has more cells than
        its degree, and a broken line two a patch (the interface stencil)."""
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if n_patches < 1 or cells_per_patch < 1:
            raise ValueError("need at least one patch and one cell a patch")
        a, b = interval
        if not b > a:
            raise ValueError(f"empty interval [{a}, {b}]")
        if not np.isfinite(b - a):
            raise ValueError(f"interval [{a}, {b}] is not finite")
        if periodic and n_patches == 1 and cells_per_patch <= degree:
            raise ValueError(
                f"a periodic patch of degree {degree} needs more than "
                f"{degree} cells, got {cells_per_patch}")
        if n_patches > 1 and cells_per_patch < 2:
            raise DegenerateStencilError(
                "a broken line needs at least 2 cells per patch, got 1")

    @property
    def broken(self) -> bool:
        return self.n_patches > 1

    def interfaces(self):
        """(last DOF of left patch, first DOF of right patch) per interior
        interface; includes the wrap pair when periodic and broken."""
        pairs = [(int(k) - 1, int(k)) for k in self.offsets[1:-1]]
        if self.periodic and self.broken:
            pairs.append((self.dim - 1, 0))
        return pairs

    def collocation(self, x) -> sp.csr_array:
        """Rows of basis values at the points x, shape (len(x), dim), by
        `design_matrix`; a point on a patch interface takes the right side."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        a, b = self.interval
        if self.wraps:
            E = design_matrix(a + np.mod(x - a, b - a), self.knots, self.degree)
            k = np.arange(E.shape[1])     # extended basis k is k mod dim
            fold = sp.csr_matrix((np.ones(len(k)), (k, k % self.dim)))
            return (E @ fold).tocsr()
        if np.any(x < a - 1e-12 * (b - a)) or np.any(x > b + 1e-12 * (b - a)):
            raise ValueError("evaluation point outside the space interval")
        return design_matrix(np.clip(x, a, b), self.knots, self.degree)

    def derivative_matrix(self) -> sp.csr_matrix:
        """Matrix D with: spline'(coeffs c) = spline of the space one
        degree lower with coefficients D c. Standard B-spline derivative
        formula; the one zero-span row at each interface is dropped."""
        d, n = self.degree, self.dim
        if d < 1:
            raise ValueError("derivative incidence needs degree >= 1")
        if self.wraps:
            rows, scale = np.arange(n), np.full(n, 1.0 / self.h)
        else:
            span = self.knots[d + 1: n + d] - self.knots[1: n]
            rows = np.nonzero(span)[0]
            scale = d / span[rows]
        m = len(rows)
        vals = np.column_stack([-scale, scale]).ravel()
        cols = np.column_stack([rows, (rows + 1) % n]).ravel()
        return sp.csr_matrix((vals, (np.repeat(np.arange(m), 2), cols)),
                             shape=(m, n))


def design_matrix(x, t, k) -> sp.csr_array:
    """The degree-k B-splines on the knots t at the points x in [t[k],
    t[len(t)-k-1]], each row storing its span's k+1 values, zeros included:
    de Boor's recursion (1972) over all points at once, in the arithmetic
    and order of scipy's `BSpline.design_matrix`, equal to it bit for bit."""
    n, rows = len(t) - k - 1, len(x)
    span = np.clip(np.searchsorted(t, x, "right") - 1, k, n - 1)
    h, x = np.ones((rows, 1)), x[:, None]
    for j in range(1, k + 1):
        xb = t[span[:, None] + np.arange(1, j + 1)]
        xa = t[span[:, None] + np.arange(1 - j, 1)]
        w = np.divide(h, xb - xa, out=np.zeros((rows, j)), where=xb != xa)
        h = np.zeros((rows, j + 1))
        h[:, :j] = w * (xb - x)    # w = 0 where xb == xa: exact zeros
        h[:, 1:] += w * (x - xa)
    cols = ((span - k)[:, None] + np.arange(k + 1)).astype(np.int32)
    ptr = np.arange(0, h.size + 1, k + 1, dtype=np.int32)
    return sp.csr_array((h.ravel(), cols.ravel(), ptr), shape=(rows, n))


def gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: (points, weights)."""
    if n < 1:
        raise ValueError(f"Gauss-Legendre rule needs n >= 1 points, got {n}")
    return np.polynomial.legendre.leggauss(n)


def cell_quadrature(breakpoints, n_per_cell):
    """Physical Gauss points and weights, concatenated cell by cell."""
    x, wx = gauss_legendre(n_per_cell)
    lo = np.asarray(breakpoints[:-1])
    hi = np.asarray(breakpoints[1:])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    w = (half[:, None] * wx[None, :]).ravel()
    return pts, w


def quad_rule_exact(p: int) -> int:
    # Gauss with n points per cell is exact to degree 2n-1. The mass and
    # mixed matrices integrate degree 2p+2 (p+3 points keep them as they
    # were); the advection integrands u.grad(v) w have degree at most
    # 3p+2 per direction, which needs n >= (3p+3)/2. Equal to p+3 for p <= 3.
    return max(p + 3, -(-(3 * p + 3) // 2))


def quad_rule_data(p: int) -> int:
    # elevated rule for data that is not a spline: L2 projections of
    # callables, forcing, boundary data and l2_error
    return int(np.ceil((3 * (p + 1) + 2) / 2)) + 1


def weighted_gram(Ea: sp.csr_matrix, w, Eb: sp.csr_matrix) -> sp.csr_matrix:
    """Ea^T diag(w) Eb, all sparse."""
    return (Ea.multiply(np.asarray(w)[:, None]).T @ Eb).tocsr()


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


def conforming_projection_1d(space: Broken1D) -> np.ndarray:
    """1D conforming projection on a broken degree-(p+1) space, dense; the
    identity on a single patch.

    Identity away from interfaces; at each interface the two coupled DOF
    columns are replaced by the averaging stencil c of the space's degree.
    Its integrals depend only on the cell count per patch, not on h, and
    it fits in the two adjacent patches, which `Broken1D.check` makes at
    least two cells wide."""
    P = np.identity(space.dim)
    interfaces = space.interfaces()
    if not interfaces:
        return P
    c = projection_stencil_1d(space.degree, n_cells=space.cells_per_patch)
    for L, R in interfaces:
        # column R: the first DOF of the right patch; column L: the last
        # DOF of the left patch
        P[[L, R], L] = P[[L, R], R] = 0.5
        for i in range(1, len(c)):
            P[R + i, R] = P[L - i, L] = c[i]
            P[L - i, R] = P[R + i, L] = -c[i]
    return P


class BasisTable:
    """Cell-local basis values of one Broken1D space on a cell-wise rule.

    On cell c of patch j the space has k_loc = degree+1 nonzero basis
    functions, with the consecutive global indices first[j, c] + a,
    a = 0..k_loc-1, taken modulo dim on a periodic line. As first is the
    patch offset plus the cell index, the coefficients of a cell are a
    window of k_loc rows of the coefficient array, once a periodic line's
    first `wrap` = degree rows are appended after its last; patch j's
    windows start at row j*span.

    vals[j, c, i, a] is basis function a of the cell at its point i, and
    wvals_t[j, c, a, i] that value times the point's weight. Both come
    from the collocation matrix E at the rule's points (cell by cell, as
    cell_quadrature orders them): a Gauss point lies inside its cell,
    so its row holds exactly the cell's k_loc nonzeros.
    """

    def __init__(self, space: Broken1D, E, w, n_per_cell, keep):
        self.dim = space.dim
        self.k_loc = space.degree + 1
        self.wrap = space.degree if space.wraps else 0
        self.patches = space.n_patches
        self.cells = space.cells_per_patch
        self.span = self.cells + self.k_loc - 1    # window rows per patch
        first = (space.offsets[:-1, None]
                 + np.arange(self.cells)[None, :]) % self.dim
        rows = np.repeat(np.arange(E.shape[0]), np.diff(E.indptr))
        local = (E.indices - first.ravel()[rows // n_per_cell]) % self.dim
        if np.any(local >= self.k_loc):
            raise ValueError("collocation matrix does not have the cell "
                             "structure of the space")
        self.n_points = E.shape[0]
        vals = np.zeros((E.shape[0], self.k_loc))
        vals[rows, local] = E.data
        shape = (self.patches, self.cells, n_per_cell, self.k_loc)
        self.vals = vals.reshape(shape)
        self.wvals_t = (np.asarray(w)[:, None] * vals).reshape(shape).swapaxes(
            -1, -2).copy()
        self._buffers = {} if keep else None  # (name, shape) -> array

    def scratch(self, name, shape):
        """An array of that name and shape to overwrite: on the exact grid a
        buffer made once and handed to every later call (a table serves one
        caller at once), as new arrays there page-fault every step; on the
        data grid (setup and l2_error only) a new array. A table both axes
        share keys its passes apart by m: points on x, DOFs (fewer) on y."""
        if self._buffers is None:
            return np.empty(shape)
        if (name, shape) not in self._buffers:
            self._buffers[name, shape] = np.empty(shape)
        return self._buffers[name, shape]

    def to_points(self, A: np.ndarray, out=None) -> np.ndarray:
        """E @ A for coefficient rows A of shape (dim, m): values at the
        rule's points, shape (points, m), into out or a new array, as one
        batched (q x k)(k x m) product over the cells."""
        m = A.shape[1]
        W = np.concatenate((A, A[: self.wrap]),     # contiguous, wrapped
                           out=self.scratch("rows", (self.dim + self.wrap, m)))
        s0, s1 = W.strides
        # view of W with windows[j, c] = W[j*span + c : j*span + c + k_loc]
        windows = np.ndarray((self.patches, self.cells, self.k_loc, m),
                             W.dtype, W, 0, (self.span * s0, s0, s0, s1))
        out = np.empty((self.n_points, m)) if out is None else out
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        np.matmul(self.vals, windows, out=out.reshape(self.vals.shape[:3] + (m,)))
        return out

    def moments(self, V: np.ndarray, out=None) -> np.ndarray:
        """E.T @ diag(w) @ V for point rows V of shape (points, m): shape
        (dim, m), into out or a new array, as the products, stored k-major
        (R[j, a] the (cells, m) slab of local basis a on patch j), and one
        add of a contiguous slab per local offset."""
        m = V.shape[1]
        R = self.scratch("products", (self.patches, self.k_loc, self.cells, m))
        np.matmul(self.wvals_t, V.reshape(self.patches, self.cells, -1, m),
                  out=R.transpose(0, 2, 1, 3))
        acc = self.scratch("sums", (self.patches, self.span, m))
        # a sum from 0.0, where -0.0 reads 0.0
        np.add(R[:, 0], 0.0, out=acc[:, : self.cells])
        acc[:, self.cells:] = 0.0
        for a in range(1, self.k_loc):
            acc[:, a: a + self.cells] += R[:, a]
        acc = acc.reshape(-1, m)
        acc[: self.wrap] += acc[self.dim:]
        out = np.empty((self.dim, m)) if out is None else out
        out[...] = acc[: self.dim]
        return out


class LineGrid:
    """A cell-wise Gauss rule on a line (points, weights) with the basis
    tables of the line's spaces on it, by kind ("h1", "l2")."""

    def __init__(self, pts, w, tables: dict):
        self.pts, self.w = pts, w
        self.tables = tables


class DeRhamLine:
    """The 1D de Rham pair of one direction: degree-(p+1) space, degree-p
    space, the derivative incidence between them, the mass matrices,
    its two quadrature grids, and every dense product of these that the
    operators and solvers read, each built once.

    Attributes
    ----------
    h1, l2 : Broken1D
        The degree-(p+1) and degree-p spaces, by kind in `spaces`.
    D : csr_matrix
        Derivative incidence, shape (l2.dim, h1.dim).
    mass, inv : dict
        Dense mass matrices and their inverses (`spd_inverse`), by kind.
    P : ndarray
        Conforming projection on h1; the identity on a single patch.
    DP, JMJ, Q : ndarray
        D P, J^T M_h1 J (J = I - P) and the interior product
        Q = M_l2^-1 B, B[a, c] = int l2_a * h1_c the mixed matrix.
    jumps : ndarray
        The DOFs of J's nonzero columns, the only rows and columns where
        JMJ is nonzero.
    grid : LineGrid
        The exact rule (`quad_rule_exact`): the mass matrices are
        assembled on it, and every spline integrand of the solver, the
        advection form included, is integrated on it exactly.
    data_grid : LineGrid
        The elevated rule (`quad_rule_data`) for data that is not a
        spline: L2 projections, forcing, boundary data and l2_error.
    E_h1, E_l2 : ndarray
        Dense collocation matrices of h1 and l2 at the data grid's
        points, for the 1D boundary integrals.
    """

    def __init__(self, p, n_patches, cells_per_patch, interval, periodic):
        self.p = p
        self.n_patches = n_patches
        self.cells_per_patch = cells_per_patch
        self.interval = (float(interval[0]), float(interval[1]))
        self.periodic = periodic
        self.h1 = Broken1D(p + 1, n_patches, cells_per_patch, interval, periodic)
        self.l2 = Broken1D(p, n_patches, cells_per_patch, interval, periodic)
        self.spaces = {"h1": self.h1, "l2": self.l2}
        self.D = self.h1.derivative_matrix()
        self.h = self.h1.h

        self.grid, E1, E0 = self._grid(quad_rule_exact(p), keep=True)
        w = self.grid.w
        self.mass = {"h1": weighted_gram(E1, w, E1).toarray(),
                     "l2": weighted_gram(E0, w, E0).toarray()}
        self.inv = {k: spd_inverse(M) for k, M in self.mass.items()}
        self.Q = self.inv["l2"] @ weighted_gram(E0, w, E1).toarray()

        self.data_grid, E1, E0 = self._grid(quad_rule_data(p), keep=False)
        self.E_h1, self.E_l2 = E1.toarray(), E0.toarray()

        self.P = conforming_projection_1d(self.h1)
        self.DP = self.D @ self.P
        J = np.identity(self.h1.dim) - self.P
        self.JMJ = J.T @ self.mass["h1"] @ J
        self.jumps = np.flatnonzero(J.any(axis=0))

    def _grid(self, n_per_cell, keep):
        """The grid of n_per_cell Gauss points a cell, its tables keeping
        their buffers if keep, and the collocation matrices of h1 and l2."""
        pts, w = cell_quadrature(self.h1.breakpoints, n_per_cell)
        E1 = self.h1.collocation(pts)
        E0 = self.l2.collocation(pts)
        tables = {"h1": BasisTable(self.h1, E1, w, n_per_cell, keep),
                  "l2": BasisTable(self.l2, E0, w, n_per_cell, keep)}
        return LineGrid(pts, w, tables), E1, E0
