"""Independent reference implementations backing the test suite.

Everything here is deliberately written the slow way: recursive B-spline
evaluation, dense matrices assembled by quadrature over the full 2D grid,
plain loops. The production package must agree with these within tight
tolerances, and none of its assembly, Kronecker, or solve machinery is
reused. Package objects are only read for their defining metadata
(degrees, patch and cell counts, intervals, periodicity): the 1D bases
are rebuilt from it, with one clamped knot vector a patch, not from the
package's knot vector. The conforming projection and flux matrices
enter oracle compositions as validated inputs; their own contract tests
live in test_multipatch / test_operators.

The references at the end are written against the package instead: a
plain conjugate gradient solver (the matrix-free check of the direct
pressure solve), the trilinear advection form by direct quadrature of
its integrands (the check of the assembled residual) with its
whole-boundary gradient assembled in 2D, the dual gradients,
the boundaryless dual curl, the interior products and the V0 mass
matrix that no solver path uses, the least-squares convergence order,
and the plain Picard iteration of the midpoint step (the fixed-point
check of the accelerated one), and the snapshot writer that formats each
value on its own (the byte-for-byte check of the text template of
runner.write_snapshot, which samples through the same PointSampler).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from flowforms.operators import weak_curl_with_tangential_bc
from flowforms.spaces import Field, coeffs_of, eval_field
from flowforms.stepper import StepFailure, StepReport, midpoint_sweep

EDGES = ("left", "right", "bottom", "top")


# --- quadrature -------------------------------------------------------------

def gauss_cells(breakpoints, n):
    """Gauss points/weights per cell of a breakpoint partition."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    pts, w = [], []
    bps = np.asarray(breakpoints, dtype=float)
    for a, b in zip(bps[:-1], bps[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts.append(mid + half * ref_x)
        w.append(half * ref_w)
    return np.concatenate(pts), np.concatenate(w)


# --- B-spline evaluation (Cox-de Boor recursion) ----------------------------

def bspline_tableau(knots, degree, x):
    """Values of all len(knots)-degree-1 B-splines at the points x.

    The last non-degenerate knot interval is treated as closed so that
    clamped bases are usable at the right endpoint."""
    t = np.asarray(knots, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nfun = len(t) - degree - 1
    top = t[-1]
    B = np.zeros((len(x), len(t) - 1))
    for j in range(len(t) - 1):
        if t[j] < t[j + 1]:
            inside = (x >= t[j]) & (x < t[j + 1])
            if t[j + 1] == top:
                inside |= x == top
            B[:, j] = inside.astype(float)
    for d in range(1, degree + 1):
        Bn = np.zeros((len(x), len(t) - d - 1))
        for j in range(len(t) - d - 1):
            left = t[j + d] - t[j]
            right = t[j + d + 1] - t[j + 1]
            if left > 0:
                Bn[:, j] += (x - t[j]) / left * B[:, j]
            if right > 0:
                Bn[:, j] += (t[j + d + 1] - x) / right * B[:, j + 1]
        B = Bn
    return B[:, :nfun]


def bspline_deriv_tableau(knots, degree, x):
    """First-derivative values of all B-splines at x (standard recursion:
    d/dx N_{j,d} built from the degree-(d-1) tableau)."""
    t = np.asarray(knots, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nfun = len(t) - degree - 1
    if degree == 0:
        return np.zeros((len(x), nfun))
    low = bspline_tableau(t, degree - 1, x)
    D = np.zeros((len(x), nfun))
    for j in range(nfun):
        left = t[j + degree] - t[j]
        right = t[j + degree + 1] - t[j + 1]
        if left > 0:
            D[:, j] += degree / left * low[:, j]
        if right > 0:
            D[:, j] -= degree / right * low[:, j + 1]
    return D


def _patch_basis(degree, n_cells, a, b, periodic, x, deriv=False):
    """Basis (or derivative) values at x of the clamped space of degree
    on n_cells uniform cells of [a, b], or of the periodic one, whose
    extended basis function k folds onto k mod n_cells."""
    tab = bspline_deriv_tableau if deriv else bspline_tableau
    if periodic:
        h = (b - a) / n_cells
        knots = a + h * np.arange(-degree, n_cells + degree + 1)
        ext = tab(knots, degree, a + np.mod(x - a, b - a))
        out = np.zeros((len(x), n_cells))
        for k in range(ext.shape[1]):
            out[:, k % n_cells] += ext[:, k]
        return out
    knots = np.concatenate([np.full(degree, a), np.linspace(a, b, n_cells + 1),
                            np.full(degree, b)])
    return tab(knots, degree, x)


def line_basis(line, x, deriv=False):
    """Dense basis values of a package Broken1D at the points x, built
    from the line's metadata alone (degree, patch and cell counts,
    interval, periodicity): one clamped space a patch, numbered patch by
    patch, or one periodic space on a periodic single patch.

    Points sitting exactly on an interior interface are assigned to the
    left patch; probe with offsets for two-sided traces."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, cells, degree = line.n_patches, line.cells_per_patch, line.degree
    bounds = np.linspace(line.interval[0], line.interval[1], n + 1)
    wrap = line.periodic and n == 1
    dim = cells if wrap else cells + degree
    out = np.zeros((len(x), n * dim))
    for k in range(n):
        a, b = bounds[k], bounds[k + 1]
        if wrap:
            sel = np.ones(len(x), dtype=bool)
        else:
            sel = ((x >= a) if k == 0 else (x > a)) & (x <= b)
        if np.any(sel):
            out[np.ix_(sel, k * dim + np.arange(dim))] = _patch_basis(
                degree, cells, a, b, wrap, x[sel], deriv=deriv)
    return out


# --- dense 2D complex -------------------------------------------------------

def row_outer(A, B):
    """Row-wise tensorization: C[(qx,qy), i*nb+j] = A[qx,i] * B[qy,j]."""
    na, nb = A.shape[1], B.shape[1]
    C = np.einsum("xi,yj->xyij", A, B)
    return C.reshape(A.shape[0] * B.shape[0], na * nb)


class DenseOracle:
    """Dense reference assembly of the discrete complex over a package
    space (conforming or broken), plus the dual/advection compositions.
    Quadrature: per-cell Gauss with 2p+4 points per direction, enough for
    every triple product appearing in the forms."""

    def __init__(self, space):
        self.space = space
        p = space.p
        lx, ly = space.line_x, space.line_y
        self.px, self.wx = gauss_cells(lx.h1.breakpoints, 2 * p + 4)
        self.py, self.wy = gauss_cells(ly.h1.breakpoints, 2 * p + 4)
        self.W = np.multiply.outer(self.wx, self.wy).ravel()

        Ex1 = line_basis(lx.h1, self.px)
        Ex0 = line_basis(lx.l2, self.px)
        Ey1 = line_basis(ly.h1, self.py)
        Ey0 = line_basis(ly.l2, self.py)
        dEx1 = line_basis(lx.h1, self.px, deriv=True)
        dEy1 = line_basis(ly.h1, self.py, deriv=True)

        self.E0 = row_outer(Ex1, Ey1)            # V0 values
        self.E1x = row_outer(Ex1, Ey0)           # V1 x-component
        self.E1y = row_outer(Ex0, Ey1)           # V1 y-component
        self.E2 = row_outer(Ex0, Ey0)            # V2 values

        W = self.W[:, None]
        self.M0 = self.E0.T @ (W * self.E0)
        self.M1x = self.E1x.T @ (W * self.E1x)
        self.M1y = self.E1y.T @ (W * self.E1y)
        n1x, n1y = self.M1x.shape[0], self.M1y.shape[0]
        self.n1x, self.n1y = n1x, n1y
        self.M1 = np.zeros((n1x + n1y, n1x + n1y))
        self.M1[:n1x, :n1x] = self.M1x
        self.M1[n1x:, n1x:] = self.M1y
        self.M2 = self.E2.T @ (W * self.E2)
        self.B1 = np.hstack([self.E2.T @ (W * self.E1x),
                             np.zeros((self.M2.shape[0], n1y))])
        self.B2 = np.hstack([np.zeros((self.M2.shape[0], n1x)),
                             self.E2.T @ (W * self.E1y)])

        # primal differentials: pointwise derivatives projected onto the
        # target slot (exact, the derivatives live there)
        DV = np.hstack([row_outer(dEx1, Ey0), row_outer(Ex0, dEy1)])
        self.Div = np.linalg.solve(self.M2, self.E2.T @ (W * DV))
        CVx = row_outer(Ex1, dEy1)
        CVy = -row_outer(dEx1, Ey1)
        self.Curl = np.vstack([
            np.linalg.solve(self.M1x, self.E1x.T @ (W * CVx)),
            np.linalg.solve(self.M1y, self.E1y.T @ (W * CVy)),
        ])

    # --- pointwise values on the quadrature grid ---------------------------
    def v0_values(self, c):
        return self.E0 @ np.asarray(c)

    def v2_values(self, c):
        return self.E2 @ np.asarray(c)

    def v1_values(self, u):
        u = np.asarray(u)
        return self.E1x @ u[: self.n1x], self.E1y @ u[self.n1x:]

    def integrate(self, vals):
        return float(np.dot(self.W, vals))

    # --- dual operators (dense algebra on validated projection inputs) -----
    def dt_matrix(self, Pc1):
        return self.Div @ Pc1

    def weak_grad(self, Pc1, q):
        rhs = -(self.dt_matrix(Pc1).T @ (self.M2 @ np.asarray(q)))
        return np.linalg.solve(self.M1, rhs)

    def weak_curl(self, Pc0, v):
        rhs = (self.Curl @ Pc0).T @ (self.M1 @ np.asarray(v))
        return np.linalg.solve(self.M0, rhs)

    def interior(self, u, k):
        B = self.B1 if k == 1 else self.B2
        return np.linalg.solve(self.M2, B @ np.asarray(u))

    def advection_form(self, Pc1, u, v, w, trial_edges=(), test_edges=()):
        """c_h(u, v, w) by direct quadrature: the advected slot (second)
        carries the dual gradient paired on `trial_edges`, the test
        slot (third) the one paired on `test_edges`."""
        acc = 0.0
        ux, uy = self.v1_values(u)
        for k in (1, 2):
            iv = self.interior(v, k)
            iw = self.interior(w, k)
            gv = self.weak_grad_full(Pc1, iv, trial_edges)
            gw = self.weak_grad_full(Pc1, iw, test_edges)
            gvx, gvy = self.v1_values(gv)
            gwx, gwy = self.v1_values(gw)
            ivv = self.v2_values(iv)
            iwv = self.v2_values(iw)
            integrand = (ux * (iwv * gvx - ivv * gwx)
                         + uy * (iwv * gvy - ivv * gwy))
            acc += 0.5 * self.integrate(integrand)
        return acc

    # --- boundary machinery -------------------------------------------------
    def edge_rule(self, edge, n=12):
        """1D quadrature along an edge plus trace-evaluation matrices.

        Returns (pts, w, trace) where trace maps slot names to dense
        matrices of values along the edge: 'v2', 'v0', 'flux' (the normal
        velocity component), 'tang' (the tangential component), and the
        outward normal sign convention (v.n = sign * flux component)."""
        s = self.space
        lx, ly = s.line_x, s.line_y
        (x0, x1), (y0, y1) = lx.interval, ly.interval
        axis = "x" if edge in ("left", "right") else "y"
        tline = ly if axis == "x" else lx
        pts, w = gauss_cells(tline.h1.breakpoints, n)
        if edge == "left":
            fixed, sign = x0, -1.0
        elif edge == "right":
            fixed, sign = x1, 1.0
        elif edge == "bottom":
            fixed, sign = y0, -1.0
        else:
            fixed, sign = y1, 1.0
        fx = np.array([fixed])
        if axis == "x":
            ex1 = line_basis(lx.h1, fx)
            ex0 = line_basis(lx.l2, fx)
            ey1 = line_basis(ly.h1, pts)
            ey0 = line_basis(ly.l2, pts)
            v2 = row_outer(ex0, ey0)
            v0 = row_outer(ex1, ey1)
            flux = np.hstack([row_outer(ex1, ey0),
                              np.zeros((len(pts), self.n1y))])
            tang = np.hstack([np.zeros((len(pts), self.n1x)),
                              row_outer(ex0, ey1)])
        else:
            ex1 = line_basis(lx.h1, pts)
            ex0 = line_basis(lx.l2, pts)
            ey1 = line_basis(ly.h1, fx)
            ey0 = line_basis(ly.l2, fx)
            v2 = row_outer(ex0, ey0)
            v0 = row_outer(ex1, ey1)
            flux = np.hstack([np.zeros((len(pts), self.n1x)),
                              row_outer(ex0, ey1)])
            tang = np.hstack([row_outer(ex1, ey0),
                              np.zeros((len(pts), self.n1y))])
        trace = {"v2": v2, "v0": v0, "flux": flux, "tang": tang}
        return pts, w, trace, sign

    @staticmethod
    def cross_sign(edge):
        """(v x n) = cross_sign * tangential component on the edge."""
        return {"left": 1.0, "right": -1.0, "bottom": -1.0, "top": 1.0}[edge]

    def boundary_pairing_v2(self, q, v):
        """Whole-boundary integral of q (v.n) by 1D quadrature."""
        acc = 0.0
        for edge in EDGES:
            pts, w, tr, sign = self.edge_rule(edge)
            acc += sign * np.dot(w, (tr["v2"] @ q) * (tr["flux"] @ v))
        return acc

    def weak_grad_full(self, Pc1, q, edges=EDGES):
        """Dual gradient with the trace pairing on the given edges (the
        whole boundary by default; none is the boundaryless gradient)."""
        rhs = -(self.dt_matrix(Pc1).T @ (self.M2 @ np.asarray(q)))
        for edge in edges:
            pts, w, tr, sign = self.edge_rule(edge)
            rhs = rhs + sign * (tr["flux"].T @ (w * (tr["v2"] @ q)))
        return np.linalg.solve(self.M1, rhs)


# --- references composed from package operators ------------------------------

class NumericalBreakdown(RuntimeError):
    """Non-finite values encountered inside an iterative solve."""


@dataclass
class LinearSolveReport:
    iterations: int
    residual: float  # relative 2-norm, recomputed from the returned iterate
    converged: bool


def cg_solve(A, b, tol: float = 1e-12, max_iter: int | None = None):
    """Conjugate gradients for SPD ``A`` (matrix or apply-callable).

    Returns (x, LinearSolveReport). The reported residual is the true
    relative residual ||b - A x|| / ||b|| recomputed from the iterate.
    """
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise NumericalBreakdown("non-finite right-hand side")
    apply_A = A if callable(A) else (lambda v: A @ v)
    if max_iter is None:
        max_iter = 10 * b.size

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), LinearSolveReport(0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = r @ r
    iterations = 0
    for k in range(max_iter):
        Ap = apply_A(p)
        pAp = p @ Ap
        if not np.isfinite(pAp):
            raise NumericalBreakdown("non-finite curvature in CG")
        if pAp <= 0.0:
            # SPD contract violated or stagnation on the kernel
            break
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = r @ r
        iterations = k + 1
        if not np.isfinite(rs_new):
            raise NumericalBreakdown("non-finite residual in CG")
        if np.sqrt(rs_new) <= tol * bnorm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new

    true_res = np.linalg.norm(b - apply_A(x)) / bnorm
    return x, LinearSolveReport(iterations, float(true_res), true_res <= tol)


def mass_v0(space):
    """The V0 mass matrix M_h1 (x) M_h1 of the lines, which no solver path
    assembles (solve_mass applies its inverse as a Kronecker product)."""
    return sp.kron(space.line_x.M_h1, space.line_y.M_h1, format="csr")


def mixed_matrix(space, k: int):
    """B_k[m, j] = int L2_m (Lambda_j)_k: the V2 moments of the k-th
    velocity component, from the 1D factors of the lines."""
    lx, ly, n2 = space.line_x, space.line_y, space.n2
    n1x, n1y = lx.h1.dim * ly.l2.dim, lx.l2.dim * ly.h1.dim
    if k == 1:
        blocks = [sp.kron(lx.B, ly.M_l2), sp.csr_matrix((n2, n1y))]
    else:
        blocks = [sp.csr_matrix((n2, n1x)), sp.kron(lx.M_l2, ly.B)]
    return sp.hstack(blocks, format="csr")


def walls(ctx):
    """The wall edges: u.n prescribed as the constant 0."""
    return [e for e, c in ctx.bc.items() if c.kind == "normal"
            and not callable(c.value) and float(c.value) == 0.0]


def weak_grad_full_sparse(ctx, q, edges=None):
    """Dual gradient by 2D sparse assembly and a 2D mass solve:
    M1 x = -(Div Pc1)^T M2 q + T q, where T pairs the flux and V2 end DOFs
    of each of the edges (default: every edge in bc; -1 lo, +1 hi) times
    the l2 mass along the edge."""
    s = ctx.space
    lx, ly = s.line_x, s.line_y
    edges = ctx.bc if edges is None else edges

    def ends(line, lo, hi):
        T = sp.lil_matrix((line.h1.dim, line.l2.dim))
        T[0, 0], T[-1, -1] = -float(lo in edges), float(hi in edges)
        return T

    T = sp.vstack([sp.kron(ends(lx, "left", "right"), ly.M_l2),
                   sp.kron(lx.M_l2, ends(ly, "bottom", "top"))], format="csr")
    qc = coeffs_of(q)
    return s.solve_mass(1, -(ctx.DtT @ (s.M2 @ qc)) + T @ qc)


def advection_form(ctx, u, v, w) -> float:
    """Trilinear form c_h(u, v, w), evaluated by direct quadrature of the
    two product integrands (independent composition from the residual).
    The advected slot v carries the whole-boundary gradient, the test
    slot w the gradient paired on the walls only, so the form is skew on
    walled domains and keeps the advective flux through open edges.
    It integrates on the elevated data grid, not on the exact grid the
    residual uses, so it also checks that rule."""
    s = ctx.space
    grid = s.data_grid
    uc, vc, wc = coeffs_of(u), coeffs_of(v), coeffs_of(w)
    uvx, uvy = s.grid_eval(1, uc, grid)
    total = 0.0
    for k in (1, 2):
        B = mixed_matrix(s, k)
        ikv = s.solve_mass(2, B @ vc)
        ikw = s.solve_mass(2, B @ wc)
        gvx, gvy = s.grid_eval(1, weak_grad_full_sparse(ctx, ikv), grid)
        gwx, gwy = s.grid_eval(
            1, weak_grad_full_sparse(ctx, ikw, walls(ctx)), grid)
        ikw_vals, = s.grid_eval(2, ikw, grid)
        ikv_vals, = s.grid_eval(2, ikv, grid)
        integrand = ikw_vals * (uvx * gvx + uvy * gvy) \
            - ikv_vals * (uvx * gwx + uvy * gwy)
        total += grid.integrate(integrand)
    return 0.5 * total


def weak_grad(ctx, q) -> Field:
    """Boundaryless dual gradient: M1 x = -(Div Pc1)^T M2 q."""
    qc = coeffs_of(q)
    x = ctx.space.solve_mass(1, -(ctx.DtT @ (ctx.space.M2 @ qc)))
    return Field(ctx.space, 1, x)


def weak_grad_with_pressure_bc(ctx, q) -> Field:
    """Dual gradient with flux BCs and Gamma_p data:
    M1 x = -(Div Pc1 Pn)^T M2 q + b,  b_j = int_{Gamma_p} p_b (Lambda_j . n)."""
    qc = coeffs_of(q)
    rhs = -(ctx.Pn @ (ctx.DtT @ (ctx.space.M2 @ qc))) + ctx.b_pressure
    return Field(ctx.space, 1, ctx.space.solve_mass(1, rhs))


def weak_curl(ctx, v) -> Field:
    """Boundaryless dual curl: M0 w = (Curl Pc0)^T M1 v."""
    vc = coeffs_of(v)
    w = ctx.space.solve_mass(0, ctx.CP0T @ (ctx.space.M1 @ vc))
    return Field(ctx.space, 0, w)


def interior_product(ctx, u, k: int) -> Field:
    """L2 projection of the k-th velocity component onto V2."""
    if k not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    B = mixed_matrix(ctx.space, k)
    return Field(ctx.space, 2, ctx.space.solve_mass(2, B @ coeffs_of(u)))


def convergence_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if hs.size != errors.size or hs.size < 2:
        raise ValueError("need at least two (h, error) pairs")
    if np.any(hs <= 0) or np.any(errors <= 0):
        raise ValueError("mesh sizes and errors must be positive")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def picard_step(ctx, u_n, cfg, dt=None, guess=None):
    """The midpoint step by plain Picard iteration from u^n: sweep from
    the last sweep output until it moves by less than picard_tol. Same
    signature, results and failures as stepper.cn_step, which reaches the
    same fixed point with Anderson mixing from its guess; this reference
    ignores the guess."""
    dt = cfg.dt if dt is None else dt
    un = coeffs_of(u_n).copy()
    u_new = un.copy()
    upd = np.inf
    for it in range(1, cfg.picard_max_iter + 1):
        if not np.isfinite(u_new).all() or np.abs(u_new).max() > 1e60:
            raise StepFailure(
                f"Picard iteration diverged after {it - 1} iterations")
        u_next, p = midpoint_sweep(ctx, cfg, un, u_new, dt)
        upd = float(np.linalg.norm(u_next - u_new))
        u_new = u_next
        if upd < cfg.picard_tol:
            return Field(ctx.space, 1, u_new), p, StepReport(it, upd, dt)
    raise StepFailure(
        f"no Picard convergence in {cfg.picard_max_iter} iterations "
        f"(last update {upd:.3e})")


def write_snapshot(ctx, u, p, t, path, grid=64):
    """Plain-text field dump on a uniform sampling grid, one eval_field
    call and one repr per value. Same signature and file as
    runner.write_snapshot."""
    s = ctx.space
    (x0, x1), (y0, y1) = s.line_x.interval, s.line_y.interval
    xs = np.linspace(x0, x1, grid)
    ys = np.linspace(y0, y1, grid)
    uc = u.coeffs if isinstance(u, Field) else np.asarray(u)
    uv = eval_field(Field(s, 1, uc), xs, ys)
    pv = eval_field(Field(s, 2, np.asarray(p)), xs, ys)
    om = weak_curl_with_tangential_bc(ctx, uc)
    ov = eval_field(om, xs, ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    with open(path, "w") as fh:
        fh.write(f"# t = {t!r}\n")
        fh.write(f"# grid = {grid} x {grid}\n")
        fh.write("# columns: x y u_x u_y p omega\n")
        cols = np.column_stack([X.ravel(), Y.ravel(),
                                uv[..., 0].ravel(), uv[..., 1].ravel(),
                                pv.ravel(), ov.ravel()])
        for row in cols:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    return path
