"""Discrete dual operators, the skew-symmetric advection form, viscous
form, and their boundary-aware variants.

The dual (weak) gradient and curl are the mass-solve adjoints of the
primal Div and Curl composed with the conforming projections,

    M1 (Gt q) = -(Div Pc1)^T M2 q,      M0 (Ct v) = (Curl Pc0)^T M1 v,

plus the boundary pairings of the context's boundary conditions. Without
boundary conditions (periodic domains, or a clamped space used for
identity checks) the pairings are empty and the operators reduce to the
plain L2 adjoints. Boundary integrals all reduce to 1D mass/moment
matrices along the edge, since spline trace DOFs carry the boundary
values. Viewed as an (x index, y index) array, each V0 or V1 block holds
an edge's trace DOFs in one slice: row 0 or -1 for the left and right
edges, column 0 or -1 for the bottom and top edges.

The space applies Dt = Div Pc1 and CP0 = Curl Pc0 through the lines' D P
and P. The interior product, the whole-boundary dual gradient and M2 Div
M1^-1 act along one axis only, as dense 1D factors per line, so the
advection residual needs no 2D mass solve. The line (`DeRhamLine`) owns
the arrays of its grid alone, such as the interior product Q; the
context keeps those its boundary conditions change (G, L and the Gamma_n
mask zn, which masks the h1 factor of the V1 blocks); `TensorPoissonSolver`
keeps those one dt changes, by gamma = dt*alpha/2 and theta = dt*nu/2:
the sweep's mass solve A^-1 (A = M1 + gamma * penalization), the pressure
solver on it and the viscous correction. The context caches the latest
(gamma, theta)'s; a zero penalization makes every gamma 0.

Boundary conventions (outward normals): u.n is -u_x on the left edge,
+u_x right, -u_y bottom, +u_y top; the scalar cross u x n = u_x n_y -
u_y n_x is +u_y left, -u_y right, -u_x bottom, +u_x top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .linalg import spd_inverse
from .spaces import KINDS, TensorDeRhamSpace, sample

EDGES = ("left", "right", "bottom", "top")
# edge -> (the line across it, the end of that line the edge sits on)
_EDGE_AXIS = {"left": ("x", 0), "right": ("x", -1),
              "bottom": ("y", 0), "top": ("y", -1)}


@dataclass
class EdgeBC:
    """Boundary condition on one edge.

    kind 'normal': u.n prescribed (edge belongs to Gamma_n), value is the
    normal velocity data. kind 'pressure': p prescribed (Gamma_p), value
    is the pressure data. Either may be a constant or a callable of the
    coordinate running along the edge.

    tangential: None (free), a constant/callable (whole edge in Gamma_t
    with that u x n data), or a nonempty list of (lo, hi, data) segments
    aligned with cell boundaries that do not overlap. A constant that is
    not finite raises ValueError; a callable is checked where it is sampled.
    """

    kind: str = "normal"
    value: object = 0.0
    tangential: object = None

    def __post_init__(self):
        if self.kind not in ("normal", "pressure"):
            raise ValueError(f"unknown boundary kind {self.kind!r}, "
                             "expected 'normal' or 'pressure'")
        tang = [] if self.tangential is None else [self.tangential]
        if self._segmented():
            if not self.tangential:
                raise ValueError("boundary tangential segment list is empty")
            for seg in self.tangential:
                if not (isinstance(seg, (list, tuple)) and len(seg) == 3):
                    raise ValueError(f"boundary tangential segment {seg!r} "
                                     "is not (lo, hi, data)")
            tang = [d for *_, d in self.tangential]
        for name, data in [("value", self.value),
                           *(("tangential", d) for d in tang)]:
            if not callable(data) and not np.isfinite(float(data)):
                raise ValueError(f"boundary {name} must be finite, got {data!r}")

    def _segmented(self) -> bool:
        return isinstance(self.tangential, (list, tuple))

    def segments(self, edge, breaks):
        """The (lo, hi, data) segments of Gamma_t on the edge, whose
        tangent line has the cell boundaries `breaks`. Raises ValueError
        on an empty, misaligned or overlapping segment."""
        if self.tangential is None:
            return []
        lo, hi = float(breaks[0]), float(breaks[-1])
        if not self._segmented():
            return [(lo, hi, self.tangential)]
        segs = [(float(a), float(b), d) for a, b, d in self.tangential]
        tol = 1e-9 * (hi - lo)
        for (a, b, _) in segs:
            if b <= a:
                raise ValueError(f"edge {edge}: empty tangential segment ({a}, {b})")
            for end in (a, b):
                if np.min(np.abs(breaks - end)) > tol:
                    raise ValueError(
                        f"edge {edge}: segment endpoint {end} is not aligned "
                        "with a cell boundary")
        ends = sorted((a, b) for a, b, _ in segs)
        for (a0, b0), (a1, b1) in zip(ends, ends[1:]):
            if a1 < b0 - tol:
                raise ValueError(f"edge {edge}: tangential segments ({a0}, {b0}) "
                                 f"and ({a1}, {b1}) overlap")
        return segs


def check_boundary(bc, periodic, breaks_x, breaks_y):
    """Check the boundary conditions bc (edge name -> EdgeBC; None or
    empty for none) of a domain whose x and y lines are periodic as the
    pair `periodic` says and have the cell boundaries breaks_x and
    breaks_y. A non-empty bc covers exactly the non-periodic edges.
    Returns edge -> its Gamma_t segments (`EdgeBC.segments`); raises
    ValueError on an unknown, missing or periodic edge or a bad segment."""
    bc = bc or {}
    unknown = set(bc) - set(EDGES)
    if unknown:
        raise ValueError(f"unknown boundary edges {sorted(unknown)}, "
                         f"expected some of {list(EDGES)}")
    if bc:
        needed = {e for e in EDGES if not periodic[_EDGE_AXIS[e][0] == "y"]}
        missing, extra = needed - set(bc), set(bc) - needed
        if missing:
            raise ValueError(
                f"boundary conditions missing for edges {sorted(missing)}")
        if extra:
            raise ValueError(
                f"boundary conditions given for periodic edges {sorted(extra)}")
    return {edge: cond.segments(edge, breaks_y if _EDGE_AXIS[edge][0] == "x"
                                else breaks_x)
            for edge, cond in bc.items()}


def _as_values(data, pts, edge):
    """The edge's constant or callable data at the points pts along it.
    Raises ValueError on a value that is not finite."""
    vals = (np.asarray(data(pts), dtype=np.float64) if callable(data)
            else float(data)) * np.ones_like(pts)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"edge {edge}: boundary data is not finite at "
                         "quadrature points")
    return vals


class OperatorContext:
    """Immutable bundle: space + boundary conditions + the operators that
    do not depend on dt, and one cached `TensorPoissonSolver` for those
    that do.

    bc is a dict edge-name -> EdgeBC covering every non-periodic edge, or
    None/empty for no boundary conditions: then every boundary term is
    zero and the Gamma_n mask zn is one everywhere. forcing is None or a
    callable f(X, Y) -> (f_x, f_y) as `spaces.sample` calls it.
    """

    def __init__(self, space: TensorDeRhamSpace, bc=None, forcing=None):
        self.space = space
        self.bc = dict(bc) if bc else {}
        segments = check_boundary(self.bc, space.periodic,
                                  space.line_x.h1.breakpoints,
                                  space.line_y.h1.breakpoints)

        self._assemble_boundary_terms(segments)
        self.G, self.L = zip(*map(self._line_factors, "xy"))

        self.f_vec = np.zeros(space.n1)
        if forcing is not None:
            g = space.data_grid
            fx, fy = space.blocks(1, space.grid_moments(
                1, sample(g, forcing, 2), g))
            self.f_vec = np.concatenate([(space.line_x.P.T @ fx).ravel(),
                                         (fy @ space.line_y.P).ravel()])  # Pc1^T
        # exact-grid arrays that advection_residual writes its values into
        self._grid_work = np.empty((4, len(space.grid.x), len(space.grid.y)))
        self._solver = None

    # --- 1D factors of the dual operators -----------------------------------
    def _line_factors(self, axis):
        """Dense factors of the x or y line, each acting along its own axis
        only: the whole-boundary dual gradient G = M_h1^-1 (T - (D P)^T
        M_l2) and L = (M_l2 D P - Tw^T) M_h1^-1. T pairs the h1 and l2 end
        DOFs of the line's edges in bc (-1 lo, +1 hi). Tw keeps its walls
        only: there L = -G^T makes c(u, v, v) = 0, and open edges keep
        their advective energy flux."""
        line = self.space.line_x if axis == "x" else self.space.line_y
        T, Tw = self._ends[axis], self._walls[axis]
        h1_inv, Ml2, DP = line.inv["h1"], line.mass["l2"], line.DP
        return h1_inv @ (T - DP.T @ Ml2), (Ml2 @ DP - Tw.T) @ h1_inv

    # --- boundary matrices and data vectors --------------------------------
    def _assemble_boundary_terms(self, segments):
        """One pass over the edges. An edge on end e of the line across it
        places its terms on the slice [e, :] (left, right) or [:, e]
        (bottom, top) of the (x index, y index) views of the V0 and V1
        blocks, and per line, the Gamma_n mask zn (0 on the h1 end DOF of
        a Gamma_n edge) and the end pairings of `_line_factors`, of all
        edges and of the walls: Gamma_n edges with the constant data 0."""
        s = self.space
        lines = {"x": s.line_x, "y": s.line_y}
        self.zn = {a: np.ones(ln.h1.dim) for a, ln in lines.items()}
        self._ends = {a: np.zeros((ln.h1.dim, ln.l2.dim))
                      for a, ln in lines.items()}
        self._walls = {a: np.zeros_like(T) for a, T in self._ends.items()}
        t_tang = np.zeros(s.n0)     # Gamma_t data against omega traces
        b_press = np.zeros(s.n1)    # Gamma_p data against v.n traces
        n_data = np.zeros(s.n1)     # Gamma_n flux DOFs of the u.n data
        v0, = s.blocks(0, t_tang)
        b_flux, n_flux = (dict(zip("xy", s.blocks(1, vec)))
                          for vec in (b_press, n_data))
        self.T1 = []

        for edge, cond in self.bc.items():
            axis, end = _EDGE_AXIS[edge]
            along = "y" if axis == "x" else "x"
            at = (end, slice(None)) if axis == "x" else (slice(None), end)
            sigma = 1.0 if end else -1.0    # the outward normal's sign
            tau = sigma * (1.0 if axis == "y" else -1.0)
            self._ends[axis][end, end] += sigma
            # boundary data on the data grid of the tangent line
            line = lines[along]
            pts, w = line.data_grid.pts, line.data_grid.w
            El2, Eh1 = line.E_l2, line.E_h1

            if cond.kind == "pressure":
                vals = _as_values(cond.value, pts, edge)
                b_flux[axis][at] += sigma * (El2.T @ (w * vals))
            else:
                self.zn[axis][end] = 0.0
                if not callable(cond.value) and float(cond.value) == 0.0:
                    self._walls[axis][end, end] += sigma
                # 1D L2 projection of the normal-velocity data
                vals = sigma * _as_values(cond.value, pts, edge)
                n_flux[axis][at] = line.inv["l2"] @ (El2.T @ (w * vals))

            free = np.ones(len(pts), dtype=bool)    # outside Gamma_t
            for (a, b, data) in segments[edge]:
                mask = (pts > a) & (pts < b)
                free &= ~mask
                # data is the v x n trace itself, already oriented
                vals = _as_values(data, pts[mask], edge)
                v0[at] += Eh1[mask].T @ (w[mask] * vals)
            # T1: (slice, V1 block, tau M) pairs v x n with omega off
            # Gamma_t; an edge wholly in Gamma_t has none
            if free.any():
                Mh1_free = Eh1[free].T @ (w[free, None] * Eh1[free])
                self.T1.append((at, "xy".index(along), tau * Mh1_free))
        self.t_tangential_data = t_tang
        self.b_pressure = b_press
        self.normal_data = n_data

    # --- the dt-dependent solvers --------------------------------------------
    def poisson_solver(self, gamma: float = 0.0, theta: float = 0.0):
        """The `TensorPoissonSolver` of gamma = dt*alpha/2 and theta =
        dt*nu/2, cached for the latest pair: a step asks for one, and under
        CFL control runner.run holds dt on rungs that change rarely. A zero
        penalization (one patch) maps every gamma to 0."""
        key = (float(gamma) if self.space.broken else 0.0, float(theta))
        if self._solver is None or (self._solver.gamma, self._solver.theta) != key:
            self._solver = TensorPoissonSolver(self, *key)
        return self._solver


class TensorPoissonSolver:
    """Everything one dt determines through gamma = dt*alpha/2 and theta =
    dt*nu/2, from the dense line arrays and the context's zn. Per line, the
    restricted h1 inverse Z (Z Mg Z + I - Z)^-1 Z, Mg = M_h1 + gamma * J^T
    M_h1 J, Z = diag(zn): with the l2 mass inverses, the Kronecker factors
    of A^-1 that `m1_solve` applies. The pressure system M2 Dt A^-1 Dt^T M2
    is Kx (x) My + Mx (x) Ky, K = M_l2 (D P) h1_inv (D P)^T M_l2, which two
    small generalized eigensolves diagonalize (fast diagonalization):
    `solve` and `viscous_correction` apply U (scale * (W b)), with W and U
    `solve_mass` factors and scale a vector of the slot.
    Without pressure boundary conditions its kernel is the constant
    pressure; the solver then acts as a pseudoinverse that zeroes the mean
    mode, so the velocity update stays exactly divergence-free."""

    def __init__(self, ctx: OperatorContext, gamma=0.0, theta=0.0):
        s = ctx.space
        self.ctx, self.gamma, self.theta = ctx, float(gamma), float(theta)
        self._viscous = None    # (W, scale, U) of viscous_correction
        # per line: the inverse of each kind, K's eigensystem and at theta != 0
        # viscous_correction's eigenvalues e, W = V^T (Mg or M_l2) and U = Z V
        factors, eigs, visc = [], [], []
        axes = [(s.line_x, ctx.zn["x"]), (s.line_y, ctx.zn["y"])]
        if s.line_y is s.line_x and np.array_equal(ctx.zn["x"], ctx.zn["y"]):
            axes = axes[:1]     # both axes have the same arrays: make them once
        for line, z in axes:
            M, Ml2, DP = line.mass["h1"], line.mass["l2"], line.DP
            Mg = z[:, None] * (M + gamma * line.JMJ) * z
            inv = spd_inverse(Mg + np.diag(1.0 - z)) * np.outer(z, z)
            K = Ml2 @ DP @ inv @ DP.T @ Ml2
            factors.append({"h1": inv, "l2": line.inv["l2"]})
            eigs.append(scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (Ml2 + Ml2.T)))
            if theta == 0.0:
                continue
            h1_inv, e, W, U = line.inv["h1"], {}, {}, {}
            A = Mg + theta * z[:, None] * (DP.T @ Ml2 @ DP) * z + np.diag(1.0 - z)
            C = z[:, None] * (M @ line.P @ h1_inv @ line.P.T @ M) * z
            S = Ml2 @ DP @ h1_inv @ DP.T @ Ml2
            for kind, K, B, factor, mask in (("h1", C, A, Mg, z),
                                             ("l2", S, Ml2, Ml2, 1.0)):
                e[kind], V = scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (B + B.T))
                U[kind], W[kind] = np.reshape(mask, (-1, 1)) * V, V.T @ factor
            visc.append((e, W, U))
        factors, eigs, visc = (v * (3 - len(axes)) for v in (factors, eigs, visc))
        (lam_x, phi_x), (lam_y, phi_y) = eigs
        denom = lam_x[:, None] + lam_y[None, :]
        self.singular = not any(c.kind == "pressure" for c in ctx.bc.values())
        if not self.singular and np.any(denom <= 0.0):
            raise FloatingPointError("pressure system not positive definite")
        # singular: a pseudoinverse that drops the constant-pressure modes
        drop = self.singular & (denom <= 1e-10 * float(lam_x.max() + lam_y.max()))
        inv_denom = np.where(drop, 0.0, 1.0 / np.where(drop, 1.0, denom))
        self._pressure = (({"l2": phi_x.T}, {"l2": phi_y.T}), inv_denom.ravel(),
                          ({"l2": phi_x}, {"l2": phi_y}))
        if visc:
            (ex, ey), W, U = zip(*visc)
            self._viscous = W, np.concatenate([1.0 / (1.0 + theta * np.outer(
                ex[kx], ey[ky])) for kx, ky in KINDS[1]], axis=None), U
        self.m1_solve = partial(s.solve_mass, 1, factors=factors)

    def matvec(self, q):
        """The system matrix applied through the composed operators."""
        s = self.ctx.space
        return s.mass(2, s.div(self.m1_solve(s.div_transpose(s.mass(2, q)))))

    def solve(self, b):
        """q of M2 Dt A^-1 Dt^T M2 q = b (the pseudoinverse where singular)."""
        s, (W, scale, U) = self.ctx.space, self._pressure
        return s.solve_mass(2, scale * s.solve_mass(2, b, W), U)

    def viscous_correction(self, f):
        """S^-1 A f on the velocities with zero Gamma_n flux, S = A + theta
        (V + Dt^T M2 Dt) less T1 and the x-y coupling: exact on one patch
        away from T1 (theta != 0). Its x block, A_x (x) M_l2 + theta C_x (x)
        S_y, with A_x = Mg + theta (D P)^T M_l2 D P, C_x = M_h1 P M_h1^-1 P^T
        M_h1 and S_y = M_l2 D P M_h1^-1 (D P)^T M_l2, is diagonalized by
        eigh(C_x, A_x) and eigh(S_y, M_l2); the y block mirrors it."""
        s, (W, scale, U) = self.ctx.space, self._viscous
        return s.solve_mass(1, scale * s.solve_mass(1, f, W), U)


# --- dual operators ---------------------------------------------------------

def weak_grad_full(ctx: OperatorContext, qc: np.ndarray) -> np.ndarray:
    """Full-generality dual gradient (trial slot of s_h), with the
    whole-boundary trace pairing: (G_x q, q G_y^T) on q as an
    (n_l2x, n_l2y) array, `div_transpose` by the line factors G."""
    return ctx.space.div_transpose(qc, ctx.G)


def weak_curl_with_tangential_bc(ctx: OperatorContext, v) -> np.ndarray:
    """Dual curl with tangential boundary data:
    M0 w = (Curl Pc0)^T M1 v - T1 v - t2."""
    s = ctx.space
    rhs = s.curl_transpose(s.mass(1, v)) - ctx.t_tangential_data
    (r,), vb = s.blocks(0, rhs), s.blocks(1, v)
    for at, k, M in ctx.T1:
        r[at] -= M @ vb[k][at]
    return s.solve_mass(0, rhs)


# --- advection --------------------------------------------------------------

def advection_residual(ctx: OperatorContext, u, v) -> np.ndarray:
    """Dual vector r with r_j = c_h(u, v, Lambda_j), assembled in two
    quadrature passes without any mass solve.

    Per component k, i_k v is Q_k along axis k, and block k of r is
    1/2 Q_k^T along axis k applied to A + L_x F_x + F_y L_y^T: A holds
    the V2 moments of u . Gt(i_k v), F the V1 moments of (i_k v) u.

    u is evaluated once and shared by both halves of the skew form. Both
    run on the exact grid: each integrand is a product of three spline
    factors of degree at most 3p+2 per direction on every cell, and Gauss
    with n points is exact to degree 2n-1 >= 3p+2 (`quad_rule_exact`).
    Values go into the context's grid arrays: a grid-sized transient can
    pass glibc's heap trim threshold and make every sweep page-fault."""
    s = ctx.space
    (Qx, Qy), (Lx, Ly) = (s.line_x.Q, s.line_y.Q), ctx.L
    uv, g = ctx._grid_work[:2], ctx._grid_work[2:]
    uvx, uvy = s.grid_eval_v1(u, out=uv)
    vx, vy = s.blocks(1, v)
    r = []
    for k, ikv in enumerate((Qx @ vx, vy @ Qy.T)):
        # (a) trial-slot gradient acting on i_k v
        gx, gy = s.grid_eval_v1(weak_grad_full(ctx, ikv), out=g)
        gx *= uvx
        gx += np.multiply(gy, uvy, out=gy)
        a, = s.blocks(2, s.grid_moments_v2([gx]))
        # (b) test-slot gradient, rewritten through adjointness
        w2, = s.grid_eval_v2(ikv, out=g[1:])
        fx, fy = s.blocks(1, s.grid_moments_v1(
            [np.multiply(w2, uvx, out=gx), np.multiply(w2, uvy, out=w2)]))
        a += Lx @ fx + fy @ Ly.T
        r.append(Qx.T @ a if k == 0 else a @ Qy)
    return 0.5 * np.concatenate([r[0].ravel(), r[1].ravel()])


# --- viscosity --------------------------------------------------------------

def viscous_residual(ctx: OperatorContext, u) -> np.ndarray:
    """Dual vector of the viscous term: (M1 Curl Pc0 - T1^T) (Ct_bc u)."""
    s = ctx.space
    omega = weak_curl_with_tangential_bc(ctx, u)
    r = s.mass(1, s.curl(omega))
    (W,), rb = s.blocks(0, omega), s.blocks(1, r)
    for at, k, M in ctx.T1:
        rb[k][at] -= M.T @ W[at]
    return r


def viscous_form(ctx: OperatorContext, u, v) -> float:
    """d_h(u, v) = (Ct_bc u, Ct_0 v)_M0: the boundary-aware curl on both
    sides, with the Gamma_t data on the trial side only. Its homogeneous
    part K^T M0^-1 K, K = (Curl Pc0)^T M1 - T1, is symmetric and positive
    semidefinite on every boundary."""
    return float(viscous_residual(ctx, u) @ v)
