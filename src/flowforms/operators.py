"""Discrete dual operators, the skew-symmetric advection form, viscous
form, and their boundary-aware variants.

The dual (weak) gradient and curl are the mass-solve adjoints of the
primal Div and Curl composed with the conforming projections,

    M1 (Gt q) = -(Div Pc1)^T M2 q,      M0 (Ct v) = (Curl Pc0)^T M1 v,

plus the boundary pairings of the context's boundary conditions. Without
boundary conditions (periodic domains, or a clamped space used for
identity checks) the pairings are empty and the operators reduce to the
plain L2 adjoints. Boundary integrals all reduce to 1D mass/moment
matrices placed on trace slices of the tensor layout, since spline trace
DOFs carry the boundary values.

The interior product, the whole-boundary dual gradient and M2 Div M1^-1
each act along one axis only: `OperatorContext` keeps them as dense 1D
factors per line, and the advection residual needs no 2D mass solve.

The solvers that change with dt, the sweep's mass solve A^-1 (A = M1 +
gamma * penalization, gamma = dt*alpha/2) and the pressure solver on it,
belong to `TensorPoissonSolver`; the context caches the latest gamma's.

Boundary conventions (outward normals): u.n is -u_x on the left edge,
+u_x right, -u_y bottom, +u_y top; the scalar cross u x n = u_x n_y -
u_y n_x is +u_y left, -u_y right, -u_x bottom, +u_x top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .linalg import KroneckerSolver, SPDInverse
from .spaces import Field, TensorDeRhamSpace, coeffs_of

EDGES = ("left", "right", "bottom", "top")
_EDGE_AXIS = {"left": ("x", "lo"), "right": ("x", "hi"),
              "bottom": ("y", "lo"), "top": ("y", "hi")}


@dataclass
class EdgeBC:
    """Boundary condition on one edge.

    kind 'normal': u.n prescribed (edge belongs to Gamma_n), value is the
    normal velocity data. kind 'pressure': p prescribed (Gamma_p), value
    is the pressure data. Either may be a constant or a callable of the
    coordinate running along the edge.

    tangential: None (free), a constant/callable (whole edge in Gamma_t
    with that u x n data), or a list of (lo, hi, data) segments aligned
    with cell boundaries that do not overlap.
    """

    kind: str = "normal"
    value: object = 0.0
    tangential: object = None

    def __post_init__(self):
        if self.kind not in ("normal", "pressure"):
            raise ValueError(f"unknown boundary kind {self.kind!r}, "
                             "expected 'normal' or 'pressure'")

    def segments(self, edge, breaks):
        """The (lo, hi, data) segments of Gamma_t on the edge, whose
        tangent line has the cell boundaries `breaks`. Raises ValueError
        on an empty, misaligned or overlapping segment."""
        if self.tangential is None:
            return []
        lo, hi = float(breaks[0]), float(breaks[-1])
        if not (isinstance(self.tangential, (list, tuple)) and self.tangential
                and isinstance(self.tangential[0], (list, tuple))):
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


def _as_values(data, pts):
    if callable(data):
        return np.asarray(data(pts), dtype=np.float64) * np.ones_like(pts)
    return float(data) * np.ones_like(pts)


class OperatorContext:
    """Immutable bundle: space + boundary conditions + the operators that
    do not depend on dt, and one cached `TensorPoissonSolver` for those
    that do.

    bc is a dict edge-name -> EdgeBC covering every non-periodic edge, or
    None/empty for no boundary conditions: then every boundary term is
    zero and Pn is the identity.
    """

    def __init__(self, space: TensorDeRhamSpace, bc=None, forcing=None):
        self.space = space
        per_x, per_y = space.periodic
        needed = [e for e in EDGES
                  if not (per_x if _EDGE_AXIS[e][0] == "x" else per_y)]
        bc = dict(bc) if bc else {}
        unknown = set(bc) - set(EDGES)
        if unknown:
            raise ValueError(f"unknown edge names: {sorted(unknown)}")
        if bc:
            missing = set(needed) - set(bc)
            extra = set(bc) - set(needed)
            if missing:
                raise ValueError(
                    f"boundary conditions missing for edges {sorted(missing)}")
            if extra:
                raise ValueError(
                    f"boundary conditions given for periodic edges {sorted(extra)}")
        self.bc = bc
        # Gamma_n masks per line: 0 on the h1 end DOF of an edge with
        # prescribed normal velocity, 1 elsewhere
        self.zn = {"x": np.ones(space.line_x.h1.dim),
                   "y": np.ones(space.line_y.h1.dim)}
        for edge, cond in bc.items():
            if cond.kind == "normal":
                axis, side = _EDGE_AXIS[edge]
                self.zn[axis][0 if side == "lo" else -1] = 0.0

        self.Dt = (space.Div @ space.Pc1).tocsr()      # Div_h
        self.DtT = self.Dt.T.tocsr()
        self.CP0 = (space.Curl @ space.Pc0).tocsr()
        self.CP0T = self.CP0.T.tocsr()

        # Pn = blockdiag(diag(zx) (x) I, I (x) diag(zy)), built from its diagonal
        self.Pn = sp.diags(np.concatenate([
            np.kron(self.zn["x"], np.ones(space.line_y.l2.dim)),
            np.kron(np.ones(space.line_x.l2.dim), self.zn["y"])]), format="csr")

        self._assemble_boundary_terms()
        self.Q, self.G, self.L, self.dense = zip(*map(
            self._line_factors, (space.line_x, space.line_y),
            (space.Px, space.Py), (self.zn["x"], self.zn["y"])))

        self.f_vec = np.zeros(space.n1)
        if forcing is not None:
            X, Y = space.data_grid.mesh()
            fx, fy = forcing(X, Y)
            fx = np.broadcast_to(np.asarray(fx, dtype=np.float64), X.shape)
            fy = np.broadcast_to(np.asarray(fy, dtype=np.float64), X.shape)
            self.f_vec = space.Pc1.T @ space.grid_moments_v1(
                fx, fy, space.data_grid)

        self._solver = None

    # --- index bookkeeping -------------------------------------------------
    def _edge_dofs(self, block, edge):
        """Global indices of the DOFs of one tensor block whose trace lives
        on the edge, ordered along the edge. The blocks are V0 ('v0') and
        the two V1 components ('v1x', 'v1y'). The V1 component normal to
        the edge carries the flux, the other one the tangential trace."""
        s = self.space
        nh1x, nl2x = s.line_x.h1.dim, s.line_x.l2.dim
        nh1y, nl2y = s.line_y.h1.dim, s.line_y.l2.dim
        offset, nx, ny = {"v0": (0, nh1x, nh1y), "v1x": (0, nh1x, nl2y),
                          "v1y": (s.n1x, nl2x, nh1y)}[block]
        axis, side = _EDGE_AXIS[edge]
        if axis == "x":
            a = 0 if side == "lo" else nx - 1
            return offset + a * ny + np.arange(ny)
        a = 0 if side == "lo" else ny - 1
        return offset + np.arange(nx) * ny + a

    # --- 1D factors of the dual operators -----------------------------------
    def _line_factors(self, line, P, z):
        """Dense factors of one line, each acting along its own axis only:
        the interior product Q = M_l2^-1 B, the whole-boundary dual
        gradient G = M_h1^-1 (T - (D P)^T M_l2), and L = M_l2 D P M_h1^-1.
        T pairs the h1 and l2 end DOFs of the line's two edges when bc
        covers them: -1 on the lo edge, +1 on the hi edge. Last, what
        `TensorPoissonSolver` builds each gamma's solvers from: the dense
        M_h1, J^T M_h1 J (J = I - P), M_l2 and D P, and the Gamma_n mask z."""
        h1_inv = line.mass_factor("h1").inv
        M = line.M_h1.toarray()
        J = np.identity(line.h1.dim) - P.toarray()
        Ml2 = line.M_l2.toarray()
        DP = (line.D @ P).toarray()
        T = np.zeros(DP.T.shape)
        if self.bc and not line.periodic:
            T[0, 0], T[-1, -1] = -1.0, 1.0
        Q = line.mass_factor("l2").solve(line.B.toarray())
        return (Q, h1_inv @ (T - DP.T @ Ml2), Ml2 @ DP @ h1_inv,
                (M, J.T @ M @ J, Ml2, DP, z))

    # --- boundary matrices and data vectors --------------------------------
    def _assemble_boundary_terms(self):
        s = self.space
        # (rows, cols, vals) triplet blocks of (v x n, omega) over the
        # boundary minus Gamma_t; duplicates sum
        Tt = []
        t_tang = np.zeros(s.n0)     # Gamma_t data against omega traces
        b_press = np.zeros(s.n1)    # Gamma_p data against v.n traces
        n_data = np.zeros(s.n1)     # Gamma_n flux DOFs of the u.n data

        for edge, cond in self.bc.items():
            axis, side = _EDGE_AXIS[edge]
            sigma = -1.0 if side == "lo" else 1.0
            tau = sigma * (1.0 if axis == "y" else -1.0)
            line = s.line_y if axis == "x" else s.line_x
            normal, cross = ("v1x", "v1y") if axis == "x" else ("v1y", "v1x")
            # boundary data on the data grid of the tangent line
            pts, w = line.data_grid.pts, line.data_grid.w
            El2, Eh1 = line.E_l2, line.E_h1

            fs = self._edge_dofs(normal, edge)
            if cond.kind == "pressure":
                vals = _as_values(cond.value, pts)
                b_press[fs] += sigma * (El2.T @ (w * vals))
            else:
                # 1D L2 projection of the normal-velocity data
                vals = sigma * _as_values(cond.value, pts)
                n_data[fs] = line.mass_factor("l2").solve(El2.T @ (w * vals))

            # tangential machinery: segments of Gamma_t on this edge
            segs = cond.segments(edge, line.h1.breakpoints)
            in_gt = np.zeros(len(pts), dtype=bool)
            v0s = self._edge_dofs("v0", edge)
            flux_other = self._edge_dofs(cross, edge)
            for (a, b, data) in segs:
                mask = (pts > a) & (pts < b)
                in_gt |= mask
                # data is the v x n trace itself, already oriented
                vals = _as_values(data, pts[mask])
                t_tang[v0s] += Eh1[mask].T @ (w[mask] * vals)
            # boundary-minus-Gamma_t pairing with the tangential velocity
            free = ~in_gt
            if np.any(free):
                Mh1_free = Eh1[free].T @ (w[free, None] * Eh1[free])
                nz = np.nonzero(Mh1_free)
                Tt.append((v0s[nz[0]], flux_other[nz[1]], tau * Mh1_free[nz]))

        rows, cols, vals = map(np.concatenate, zip(*Tt)) if Tt else ([], [], [])
        self.T_tangential = sp.coo_matrix((vals, (rows, cols)),
                                          shape=(s.n0, s.n1)).tocsr()
        self.t_tangential_data = t_tang
        self.b_pressure = b_press
        self.normal_data = n_data

    # --- the gamma-dependent solvers -----------------------------------------
    def poisson_solver(self, gamma: float = 0.0):
        """The `TensorPoissonSolver` of gamma = dt*alpha/2. One entry is
        cached, the latest gamma's: under CFL control every step has a
        new dt, so an older entry is never reused."""
        if self._solver is None or self._solver.gamma != float(gamma):
            self._solver = TensorPoissonSolver(self, gamma)
        return self._solver

    def m1_solver(self, gamma: float = 0.0):
        """Exact solver b -> Pn (Pn A Pn + I - Pn)^-1 Pn b for A = M1 +
        gamma * penalization on the velocities with zero Gamma_n flux:
        the `m1_solve` of `poisson_solver(gamma)`."""
        return self.poisson_solver(gamma).m1_solve


class TensorPoissonSolver:
    """Everything that depends on gamma = dt*alpha/2, from the context's
    dense line matrices. Per line, the restricted h1 inverse
    Z (Z Mg Z + I - Z)^-1 Z, Mg = M_h1 + gamma * J^T M_h1 J, Z = diag(zn):
    with the l2 mass inverses, the Kronecker factors of A^-1 that
    `m1_solve` applies. The pressure system M2 Dt A^-1 Dt^T M2 is
    Kx (x) My + Mx (x) Ky, K = M_l2 (D P) h1_inv (D P)^T M_l2, which two
    small generalized eigensolves diagonalize (fast diagonalization).
    Without pressure boundary conditions its kernel is the constant
    pressure; the solver then acts as a pseudoinverse that zeroes the mean
    mode, so the velocity update stays exactly divergence-free."""

    def __init__(self, ctx: OperatorContext, gamma=0.0):
        s = ctx.space
        self.ctx, self.gamma = ctx, float(gamma)
        h1_invs, eigs = [], []
        for M, JMJ, Ml2, DP, z in ctx.dense:
            inv = SPDInverse(z[:, None] * (M + gamma * JMJ) * z + np.diag(1.0 - z))
            inv.inv *= np.outer(z, z)
            K = Ml2 @ DP @ inv.inv @ DP.T @ Ml2
            h1_invs.append(inv)
            eigs.append(scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (Ml2 + Ml2.T)))
        (lam_x, self.Phi_x), (lam_y, self.Phi_y) = eigs
        denom = lam_x[:, None] + lam_y[None, :]
        self.singular = not any(c.kind == "pressure" for c in ctx.bc.values())
        if not self.singular and np.any(denom <= 0.0):
            raise FloatingPointError("pressure system not positive definite")
        # singular: a pseudoinverse that drops the constant-pressure modes
        drop = self.singular & (denom <= 1e-10 * float(lam_x.max() + lam_y.max()))
        self._inv_denom = np.where(drop, 0.0, 1.0 / np.where(drop, 1.0, denom))

        kx = KroneckerSolver([h1_invs[0], s.line_y.mass_factor("l2")])
        ky = KroneckerSolver([s.line_x.mass_factor("l2"), h1_invs[1]])

        def m1_solve(b):
            bx, by = s.split_v1(b)
            return np.concatenate([kx.solve(bx), ky.solve(by)])

        self.m1_solve = m1_solve

    def matvec(self, q):
        """The system matrix applied through the composed sparse operators."""
        ctx, s = self.ctx, self.ctx.space
        return s.M2 @ (ctx.Dt @ self.m1_solve(ctx.DtT @ (s.M2 @ q)))

    def solve(self, b):
        s = self.ctx.space
        B = np.asarray(b).reshape(s.line_x.l2.dim, s.line_y.l2.dim)
        Z = self.Phi_x.T @ B @ self.Phi_y
        Z *= self._inv_denom
        return (self.Phi_x @ Z @ self.Phi_y.T).ravel()


# --- dual operators ---------------------------------------------------------

def weak_grad_full(ctx: OperatorContext, qc: np.ndarray) -> np.ndarray:
    """Full-generality dual gradient (trial slot of s_h), with the
    whole-boundary trace pairing: (G_x q, q G_y^T) on q as an
    (n_l2x, n_l2y) array. Coefficient-level helper."""
    (Gx, Gy), s = ctx.G, ctx.space
    q = np.asarray(qc).reshape(s.line_x.l2.dim, s.line_y.l2.dim)
    return np.concatenate([(Gx @ q).ravel(), (q @ Gy.T).ravel()])


def weak_curl_with_tangential_bc(ctx: OperatorContext, v) -> Field:
    """Dual curl with tangential boundary data:
    M0 w = (Curl Pc0)^T M1 v - T1 v - t2."""
    vc = coeffs_of(v)
    rhs = (ctx.CP0T @ (ctx.space.M1 @ vc) - ctx.T_tangential @ vc
           - ctx.t_tangential_data)
    return Field(ctx.space, 0, ctx.space.solve_M0(rhs))


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
    with n points is exact to degree 2n-1 >= 3p+2 (`quad_rule_exact`)."""
    s = ctx.space
    (Qx, Qy), (Lx, Ly) = ctx.Q, ctx.L
    nl2x, nl2y = s.line_x.l2.dim, s.line_y.l2.dim
    uvx, uvy = s.grid_eval_v1(coeffs_of(u))
    vx, vy = s.split_v1(coeffs_of(v))
    r = []
    # Products are formed in place and released early, so at most four
    # grid arrays are alive at once: a larger transient peak can pass
    # glibc's heap trim threshold and make every sweep page-fault afresh.
    for k, ikv in enumerate((Qx @ vx.reshape(-1, nl2y),
                             vy.reshape(nl2x, -1) @ Qy.T)):
        # (a) trial-slot gradient acting on i_k v
        gx, gy = s.grid_eval_v1(weak_grad_full(ctx, ikv))
        gx *= uvx
        gx += np.multiply(gy, uvy, out=gy)
        a = s.grid_moments_v2(gx).reshape(nl2x, nl2y)
        del gx, gy
        # (b) test-slot gradient, rewritten through adjointness
        w2 = s.grid_eval_v2(ikv)
        fx, fy = s.split_v1(s.grid_moments_v1(
            w2 * uvx, np.multiply(w2, uvy, out=w2)))
        del w2
        a += Lx @ fx.reshape(-1, nl2y) + fy.reshape(nl2x, -1) @ Ly.T
        r.append(Qx.T @ a if k == 0 else a @ Qy)
    return 0.5 * np.concatenate([r[0].ravel(), r[1].ravel()])


# --- viscosity --------------------------------------------------------------

def viscous_residual(ctx: OperatorContext, u) -> np.ndarray:
    """Dual vector of the viscous term: M1 Curl Pc0 (Ct_bc u)."""
    omega = weak_curl_with_tangential_bc(ctx, u).coeffs
    return ctx.space.M1 @ (ctx.space.Curl @ (ctx.space.Pc0 @ omega))


def viscous_form(ctx: OperatorContext, u, v) -> float:
    """d_h(u, v): boundary-aware curl on the trial side, boundaryless on
    the test side (they coincide on periodic domains): the M0^-1 of the
    boundaryless curl cancels against the M0 of their pairing."""
    return float(viscous_residual(ctx, u) @ coeffs_of(v))
