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
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .linalg import KroneckerSolver, SPDInverse
from .spaces import KINDS, Field, TensorDeRhamSpace, coeffs_of, sample

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
        self.bc = dict(bc) if bc else {}
        segments = check_boundary(self.bc, space.periodic,
                                  space.line_x.h1.breakpoints,
                                  space.line_y.h1.breakpoints)

        self.Dt = (space.Div @ space.Pc1).tocsr()      # Div_h
        self.DtT = self.Dt.T.tocsr()
        self.CP0 = (space.Curl @ space.Pc0).tocsr()
        self.CP0T = self.CP0.T.tocsr()

        self._assemble_boundary_terms(segments)
        self.Q, self.G, self.L, self.dense = zip(*map(self._line_factors, "xy"))

        self.f_vec = np.zeros(space.n1)
        if forcing is not None:
            g = space.data_grid
            self.f_vec = space.Pc1.T @ space.grid_moments(
                1, sample(g, forcing, 2), g)

        self._solver = None

    # --- 1D factors of the dual operators -----------------------------------
    def _line_factors(self, axis):
        """Dense factors of the x or y line, each acting along its own axis
        only: the interior product Q = M_l2^-1 B, the whole-boundary dual
        gradient G = M_h1^-1 (T - (D P)^T M_l2) and L = (M_l2 D P - Tw^T)
        M_h1^-1. T pairs the h1 and l2 end DOFs of the line's edges in bc
        (-1 lo, +1 hi). Tw keeps its walls only: there L = -G^T makes
        c(u, v, v) = 0, and open edges keep their advective energy flux.
        Last, what `TensorPoissonSolver` builds each gamma's solvers from:
        the dense M_h1, J^T M_h1 J (J = I - P), M_l2, D P and the mask z."""
        s = self.space
        line, P = (s.line_x, s.Px) if axis == "x" else (s.line_y, s.Py)
        T, Tw, z = self._ends[axis], self._walls[axis], self.zn[axis]
        h1_inv = line.mass_factor("h1").inv
        M = line.M_h1.toarray()
        J = np.identity(line.h1.dim) - P.toarray()
        Ml2 = line.M_l2.toarray()
        DP = (line.D @ P).toarray()
        Q = line.mass_factor("l2").solve(line.B.toarray())
        return (Q, h1_inv @ (T - DP.T @ Ml2), (Ml2 @ DP - Tw.T) @ h1_inv,
                (M, J.T @ M @ J, Ml2, DP, z))

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
        pn = np.ones(s.n1)          # the diagonal of Pn
        v0, = s.blocks(0, t_tang)
        b_flux, n_flux, pn_flux = (dict(zip("xy", s.blocks(1, vec)))
                                   for vec in (b_press, n_data, pn))
        # (v x n, omega) over the boundary minus Gamma_t, per V1 block
        Tt = {a: sp.csr_matrix((s.n0, B.size)) for a, B in pn_flux.items()}

        for edge, cond in self.bc.items():
            axis, end = _EDGE_AXIS[edge]
            along = "y" if axis == "x" else "x"
            at = (end, slice(None)) if axis == "x" else (slice(None), end)
            sigma = 1.0 if end else -1.0    # the outward normal's sign
            tau = sigma * (1.0 if axis == "y" else -1.0)
            pair = np.zeros(self._ends[axis].shape)
            pair[end, end] = 1.0
            self._ends[axis] += sigma * pair
            # boundary data on the data grid of the tangent line
            line = lines[along]
            pts, w = line.data_grid.pts, line.data_grid.w
            El2, Eh1 = line.E_l2, line.E_h1

            if cond.kind == "pressure":
                vals = _as_values(cond.value, pts)
                b_flux[axis][at] += sigma * (El2.T @ (w * vals))
            else:
                self.zn[axis][end] = pn_flux[axis][at] = 0.0
                if not callable(cond.value) and float(cond.value) == 0.0:
                    self._walls[axis] += sigma * pair
                # 1D L2 projection of the normal-velocity data
                vals = sigma * _as_values(cond.value, pts)
                n_flux[axis][at] = line.mass_factor("l2").solve(El2.T @ (w * vals))

            free = np.ones(len(pts), dtype=bool)    # outside Gamma_t
            for (a, b, data) in segments[edge]:
                mask = (pts > a) & (pts < b)
                free &= ~mask
                # data is the v x n trace itself, already oriented
                vals = _as_values(data, pts[mask])
                v0[at] += Eh1[mask].T @ (w[mask] * vals)
            # boundary-minus-Gamma_t pairing with the tangential velocity
            if np.any(free):
                Mh1_free = Eh1[free].T @ (w[free, None] * Eh1[free])
                Tt[along] += (sp.kron(tau * pair, Mh1_free) if axis == "x"
                              else sp.kron(Mh1_free, tau * pair))

        self.T_tangential = sp.hstack([Tt["x"], Tt["y"]], format="csr")
        self.T_tangentialT = self.T_tangential.T.tocsr()
        self.Pn = sp.diags(pn, format="csr")
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
        factors, eigs = [], []    # per line: the inverse of each kind
        for (M, JMJ, Ml2, DP, z), line in zip(ctx.dense, (s.line_x, s.line_y)):
            inv = SPDInverse(z[:, None] * (M + gamma * JMJ) * z + np.diag(1.0 - z))
            inv.inv *= np.outer(z, z)
            K = Ml2 @ DP @ inv.inv @ DP.T @ Ml2
            factors.append({"h1": inv, "l2": line.mass_factor("l2")})
            eigs.append(scipy.linalg.eigh(0.5 * (K + K.T), 0.5 * (Ml2 + Ml2.T)))
        (lam_x, self.Phi_x), (lam_y, self.Phi_y) = eigs
        denom = lam_x[:, None] + lam_y[None, :]
        self.singular = not any(c.kind == "pressure" for c in ctx.bc.values())
        if not self.singular and np.any(denom <= 0.0):
            raise FloatingPointError("pressure system not positive definite")
        # singular: a pseudoinverse that drops the constant-pressure modes
        drop = self.singular & (denom <= 1e-10 * float(lam_x.max() + lam_y.max()))
        self._inv_denom = np.where(drop, 0.0, 1.0 / np.where(drop, 1.0, denom))

        fx, fy = factors
        self.m1_solve = partial(s.solve_mass, 1, solvers=[
            KroneckerSolver([fx[kx], fy[ky]]) for kx, ky in KINDS[1]])

    def matvec(self, q):
        """The system matrix applied through the composed sparse operators."""
        ctx, s = self.ctx, self.ctx.space
        return s.M2 @ (ctx.Dt @ self.m1_solve(ctx.DtT @ (s.M2 @ q)))

    def solve(self, b):
        B, = self.ctx.space.blocks(2, b)
        Z = self.Phi_x.T @ B @ self.Phi_y
        Z *= self._inv_denom
        return (self.Phi_x @ Z @ self.Phi_y.T).ravel()


# --- dual operators ---------------------------------------------------------

def weak_grad_full(ctx: OperatorContext, qc: np.ndarray) -> np.ndarray:
    """Full-generality dual gradient (trial slot of s_h), with the
    whole-boundary trace pairing: (G_x q, q G_y^T) on q as an
    (n_l2x, n_l2y) array. Coefficient-level helper."""
    Gx, Gy = ctx.G
    q, = ctx.space.blocks(2, qc)
    return np.concatenate([(Gx @ q).ravel(), (q @ Gy.T).ravel()])


def weak_curl_with_tangential_bc(ctx: OperatorContext, v) -> Field:
    """Dual curl with tangential boundary data:
    M0 w = (Curl Pc0)^T M1 v - T1 v - t2."""
    vc = coeffs_of(v)
    rhs = (ctx.CP0T @ (ctx.space.M1 @ vc) - ctx.T_tangential @ vc
           - ctx.t_tangential_data)
    return Field(ctx.space, 0, ctx.space.solve_mass(0, rhs))


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
    uvx, uvy = s.grid_eval_v1(coeffs_of(u))
    vx, vy = s.blocks(1, coeffs_of(v))
    r = []
    # Products are formed in place and released early, so at most four
    # grid arrays are alive at once: a larger transient peak can pass
    # glibc's heap trim threshold and make every sweep page-fault afresh.
    for k, ikv in enumerate((Qx @ vx, vy @ Qy.T)):
        # (a) trial-slot gradient acting on i_k v
        gx, gy = s.grid_eval_v1(weak_grad_full(ctx, ikv))
        gx *= uvx
        gx += np.multiply(gy, uvy, out=gy)
        a, = s.blocks(2, s.grid_moments_v2([gx]))
        del gx, gy
        # (b) test-slot gradient, rewritten through adjointness
        w2, = s.grid_eval_v2(ikv)
        fx, fy = s.blocks(1, s.grid_moments_v1(
            [w2 * uvx, np.multiply(w2, uvy, out=w2)]))
        del w2
        a += Lx @ fx + fy @ Ly.T
        r.append(Qx.T @ a if k == 0 else a @ Qy)
    return 0.5 * np.concatenate([r[0].ravel(), r[1].ravel()])


# --- viscosity --------------------------------------------------------------

def viscous_residual(ctx: OperatorContext, u) -> np.ndarray:
    """Dual vector of the viscous term: (M1 Curl Pc0 - T1^T) (Ct_bc u)."""
    omega = weak_curl_with_tangential_bc(ctx, u).coeffs
    return ctx.space.M1 @ (ctx.CP0 @ omega) - ctx.T_tangentialT @ omega


def viscous_form(ctx: OperatorContext, u, v) -> float:
    """d_h(u, v) = (Ct_bc u, Ct_0 v)_M0: the boundary-aware curl on both
    sides, with the Gamma_t data on the trial side only. Its homogeneous
    part K^T M0^-1 K, K = (Curl Pc0)^T M1 - T1, is symmetric and positive
    semidefinite on every boundary."""
    return float(viscous_residual(ctx, u) @ coeffs_of(v))
