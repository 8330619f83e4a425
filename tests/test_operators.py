"""Dual operators, boundary terms, advection and viscous forms.

The defining identities are checked against the dense quadrature oracle
in oracles.py, which shares no assembly code with the package.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DOMAIN, PI, context, rand_coeffs, space
from oracles import (DenseOracle, advection_form, interior_product,
                     mass_v0, walls, weak_curl, weak_grad,
                     weak_grad_with_pressure_bc)
from flowforms.cases import case_library
from flowforms.operators import (
    EdgeBC,
    OperatorContext,
    advection_residual,
    viscous_form,
    viscous_residual,
    weak_curl_with_tangential_bc,
    weak_grad_full,
)
from flowforms.spaces import Field, eval_field

_ORACLES = {}


def oracle(sp_):
    key = id(sp_)
    if key not in _ORACLES:
        _ORACLES[key] = DenseOracle(sp_)
    return _ORACLES[key]


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# --- boundaryless identities -------------------------------------------------

@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 1), (1, 4, 2)])
def test_weak_grad_of_constant_vanishes_periodic(p, nc, npat):
    ctx = context(p, nc, npat, "periodic")
    q = np.ones(ctx.space.n2)
    x = weak_grad(ctx, q).coeffs
    assert np.max(np.abs(x)) <= 1e-12


@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 1), (1, 4, 2)])
def test_weak_curl_of_constant_field_vanishes_periodic(p, nc, npat):
    ctx = context(p, nc, npat, "periodic")
    v = ctx.space.constant_v1(0.7, -1.3)
    w = weak_curl(ctx, v).coeffs
    assert np.max(np.abs(w)) <= 1e-12


@pytest.mark.parametrize("mode", ["periodic", "free"])
@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 1), (2, 4, 2)])
def test_weak_grad_adjointness(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    q = rand_coeffs(ctx.space, 2, seed=1)
    v = rand_coeffs(ctx.space, 1, seed=2)
    x = weak_grad(ctx, q).coeffs
    lhs = x @ (ctx.space.M1 @ v)
    rhs = -q @ (ctx.space.M2 @ (ctx.Dt @ v))
    assert rel(lhs, rhs) <= 1e-12


@pytest.mark.parametrize("mode", ["periodic", "free"])
@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 1), (2, 4, 2)])
def test_weak_curl_adjointness(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    v = rand_coeffs(ctx.space, 1, seed=3)
    phi = rand_coeffs(ctx.space, 0, seed=4)
    w = weak_curl(ctx, v).coeffs
    lhs = w @ (mass_v0(ctx.space) @ phi)
    rhs = (ctx.CP0 @ phi) @ (ctx.space.M1 @ v)
    assert rel(lhs, rhs) <= 1e-12


@pytest.mark.parametrize("mode", ["periodic", "free"])
@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 1), (3, 5, 1), (2, 4, 2)])
def test_dual_sequence_composes_to_zero(p, nc, npat, mode):
    # curl of a weak gradient vanishes for the boundaryless adjoints
    ctx = context(p, nc, npat, mode)
    q = rand_coeffs(ctx.space, 2, seed=5)
    g = weak_grad(ctx, q)
    w = weak_curl(ctx, g).coeffs
    assert np.max(np.abs(w)) <= 1e-11 * max(1.0, np.max(np.abs(q)))


def test_dual_sequence_composes_to_zero_walls():
    # all-normal homogeneous walls: Gamma_p empty, Gamma_t the whole
    # boundary, so the bc-modified curl of a weak gradient still vanishes
    ctx = context(2, 4, 1, "walls")
    q = rand_coeffs(ctx.space, 2, seed=6)
    g = weak_grad(ctx, q)
    w = weak_curl_with_tangential_bc(ctx, g).coeffs
    assert np.max(np.abs(w)) <= 1e-11


@pytest.mark.parametrize("p,nc,npat,mode", [
    (1, 2, 1, "free"), (2, 3, 1, "free"), (1, 4, 1, "periodic"),
    (1, 2, 2, "free"),
])
def test_weak_operators_match_dense_oracle(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    ora = oracle(ctx.space)
    Pc1 = ctx.space.Pc1.toarray()
    Pc0 = ctx.space.Pc0.toarray()
    q = rand_coeffs(ctx.space, 2, seed=7)
    v = rand_coeffs(ctx.space, 1, seed=8)
    g = weak_grad(ctx, q).coeffs
    g_ref = ora.weak_grad(Pc1, q)
    assert np.max(np.abs(g - g_ref) / np.maximum(1.0, np.abs(g_ref))) <= 1e-12
    w = weak_curl(ctx, v).coeffs
    w_ref = ora.weak_curl(Pc0, v)
    assert np.max(np.abs(w - w_ref) / np.maximum(1.0, np.abs(w_ref))) <= 1e-12
    for k in (1, 2):
        iw = interior_product(ctx, v, k).coeffs
        iw_ref = ora.interior(v, k)
        assert np.max(np.abs(iw - iw_ref)) <= 1e-12 * max(1.0, np.max(np.abs(iw_ref)))


# --- interior product --------------------------------------------------------

@pytest.mark.parametrize("p,nc,npat,mode", [(1, 4, 1, "periodic"), (2, 3, 2, "free")])
def test_interior_product_of_unit_fields(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    ex = ctx.space.constant_v1(1.0, 0.0)
    # first component of e_x projects to the constant 1 (partition of unity)
    c = interior_product(ctx, ex, 1).coeffs
    assert np.max(np.abs(c - 1.0)) <= 1e-13
    # second component is exactly zero: the y-block of e_x is untouched
    c = interior_product(ctx, ex, 2).coeffs
    assert np.max(np.abs(c)) <= 1e-14


def test_interior_product_moments_match_quadrature():
    ctx = context(2, 4, 1, "periodic")
    s = ctx.space
    u = rand_coeffs(s, 1, seed=9)
    ux_vals, uy_vals = s.grid_eval(1, u)
    for k, vals in ((1, ux_vals), (2, uy_vals)):
        w = interior_product(ctx, u, k).coeffs
        lhs = s.M2 @ w
        rhs = s.grid_moments(2, [vals])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_interior_product_rejects_bad_component():
    ctx = context(1, 4, 1, "periodic")
    u = ctx.space.constant_v1(1.0, 0.0)
    with pytest.raises(ValueError, match="component"):
        interior_product(ctx, u, 3)


# --- advection ---------------------------------------------------------------

@pytest.mark.parametrize("mode", ["periodic", "free"])
@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 1), (2, 4, 2)])
def test_advection_skew_symmetry(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    u = rand_coeffs(ctx.space, 1, seed=10)
    v = rand_coeffs(ctx.space, 1, seed=11)
    w = rand_coeffs(ctx.space, 1, seed=12)
    cvw = advection_form(ctx, u, v, w)
    cwv = advection_form(ctx, u, w, v)
    scale = max(1.0, abs(cvw))
    assert abs(cvw + cwv) <= 1e-12 * scale
    assert abs(advection_form(ctx, u, v, v)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_advection_skew_symmetry_random(seed):
    ctx = context(1, 2, 1, "free")
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, ctx.space.n1))
    c = advection_form(ctx, u, v, v)
    assert abs(c) <= 1e-12 * max(1.0, float(u @ u), float(v @ v))


@pytest.mark.parametrize("npat,nc", [(1, 4), (2, 2)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_advection_residual_is_skew_on_walls(p, npat, nc):
    # u.n = 0 on every edge: c(u, v, v) = 0 for any u and v, so the
    # advection does no work on the walled velocity
    ctx = context(p, nc, npat, "walls")
    rng = np.random.default_rng(p + 10 * npat)
    for _ in range(3):
        u, v = rng.standard_normal((2, ctx.space.n1))
        r = advection_residual(ctx, u, v)
        assert abs(r @ v) <= 1e-13 * np.linalg.norm(r) * np.linalg.norm(v)


@pytest.mark.parametrize("p,nc,npat,mode", [
    pytest.param(2, 4, 1, "periodic", id="periodic"),
    pytest.param(2, 4, 1, "free", id="free"),
    pytest.param(2, 4, 1, "mixed", id="mixed"),
    pytest.param(2, 2, 2, "mixed", id="broken-p2-mixed"),
    pytest.param(1, 2, 2, "walls", id="broken-p1-walls"),
    pytest.param(3, 2, 2, "mixed", id="broken-p3-mixed"),
])
def test_advection_residual_matches_form(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    u = rand_coeffs(ctx.space, 1, seed=13)
    v = rand_coeffs(ctx.space, 1, seed=14)
    r = advection_residual(ctx, u, v)
    for seed in (15, 16, 17):
        z = rand_coeffs(ctx.space, 1, seed=seed)
        lhs = float(r @ z)
        rhs = advection_form(ctx, u, v, z)
        assert rel(lhs, rhs) <= 1e-11


@pytest.mark.parametrize("p,nc,npat,mode", [
    (1, 3, 1, "periodic"), (2, 3, 1, "free"), (2, 2, 1, "mixed"),
    (1, 2, 2, "free"), (3, 2, 1, "free"), (3, 5, 1, "periodic"),
    (2, 2, 2, "periodic"),
])
def test_advection_form_matches_dense_oracle(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    ora = oracle(ctx.space)
    u = rand_coeffs(ctx.space, 1, seed=18)
    v = rand_coeffs(ctx.space, 1, seed=19)
    w = rand_coeffs(ctx.space, 1, seed=20)
    got = advection_form(ctx, u, v, w)
    ref = ora.advection_form(ctx.space.Pc1.toarray(), u, v, w,
                             trial_edges=list(ctx.bc), test_edges=walls(ctx))
    assert rel(got, ref) <= 1e-11
    # the residual integrates on the minimal exact grid, the two above on
    # finer rules: all three agree only if that grid is exact
    assert rel(float(advection_residual(ctx, u, v) @ w), ref) <= 1e-11


@pytest.mark.parametrize("npat", [1, 2])
def test_advection_conserves_momentum_for_solenoidal_fields(npat):
    # c(u, u, e_i) = 0 when Div(Pc1 u) = 0; curls of potentials qualify
    ctx = context(2, 4, npat, "periodic")
    s = ctx.space
    psi = rand_coeffs(s, 0, seed=21)
    u = s.Curl @ (s.Pc0 @ psi)
    assert np.max(np.abs(ctx.Dt @ u)) <= 1e-12 * max(1.0, np.max(np.abs(u)))
    r = advection_residual(ctx, u, u)
    scale = max(1.0, float(u @ u))
    for e in (s.constant_v1(1.0, 0.0), s.constant_v1(0.0, 1.0)):
        assert abs(r @ e) <= 1e-11 * scale


# --- viscosity ---------------------------------------------------------------

@pytest.mark.parametrize("p,nc,npat", [(1, 4, 1), (2, 4, 2)])
def test_viscous_form_nonnegative_and_symmetric(p, nc, npat):
    ctx = context(p, nc, npat, "periodic")
    u = rand_coeffs(ctx.space, 1, seed=22)
    v = rand_coeffs(ctx.space, 1, seed=23)
    duu = viscous_form(ctx, u, u)
    assert duu >= -1e-14
    assert rel(viscous_form(ctx, u, v), viscous_form(ctx, v, u)) <= 1e-12


VISCOUS_BOUNDARY = {
    "free-slip box": (DOMAIN, {e: EdgeBC("normal", 0.0) for e in
                               ("left", "right", "bottom", "top")}),
    "gamma_p channel": (DOMAIN, {"left": EdgeBC("normal", 0.0),
                                 "right": EdgeBC("normal", 0.0),
                                 "bottom": EdgeBC("pressure", 0.0),
                                 "top": EdgeBC("pressure", 0.0)}),
    "blasius": (((-1.0, 1.0), (0.0, 0.5)), case_library("blasius").boundary),
}


@pytest.mark.parametrize("npat,nc", [(1, 8), (2, 4)])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("setup", list(VISCOUS_BOUNDARY))
def test_viscous_form_is_symmetric_positive_semidefinite_on_walls(setup, p,
                                                                 npat, nc):
    # edges outside Gamma_t: the boundary-aware curl on both sides of d_h
    bounds, bc = VISCOUS_BOUNDARY[setup]
    ctx = OperatorContext(space(p, nc, npat, periodic=False, bounds=bounds),
                          bc=bc)
    r0 = viscous_residual(ctx, np.zeros(ctx.space.n1))
    D = np.column_stack([viscous_residual(ctx, e) - r0
                         for e in np.identity(ctx.space.n1)])
    lam = np.linalg.eigvalsh(0.5 * (D + D.T))
    assert lam[0] >= -1e-10 * lam[-1], (lam[0], lam[-1])
    assert np.max(np.abs(D - D.T)) <= 1e-12 * lam[-1]


def test_viscous_form_annihilates_weak_gradients():
    ctx = context(2, 4, 1, "periodic")
    q = rand_coeffs(ctx.space, 2, seed=24)
    v = rand_coeffs(ctx.space, 1, seed=25)
    g = weak_grad(ctx, q)
    assert abs(viscous_form(ctx, g, v)) <= 1e-11 * max(1.0, np.max(np.abs(v)))


@pytest.mark.parametrize("mode", ["periodic", "mixed"])
def test_viscous_residual_is_form_gradient(mode):
    ctx = context(2, 4, 1, mode)
    u = rand_coeffs(ctx.space, 1, seed=26)
    r = viscous_residual(ctx, u)
    for seed in (27, 28):
        v = rand_coeffs(ctx.space, 1, seed=seed)
        assert rel(float(r @ v), viscous_form(ctx, u, v)) <= 1e-12


def test_viscous_energy_converges_to_enstrophy():
    # u = (1 - 2 cos 2x sin 2y, 1 + 2 cos 2y sin 2x) has curl 8 cos2x cos2y,
    # so the exact enstrophy over (0, pi)^2 is 16 pi^3 ... check refinement
    from flowforms.spaces import l2_project

    exact = 64.0 * (PI / 2.0) ** 2

    def u_fun(x, y):
        return (1.0 - 2.0 * np.cos(2 * x) * np.sin(2 * y),
                1.0 + 2.0 * np.cos(2 * y) * np.sin(2 * x))

    errs = []
    for nc in (8, 16):
        ctx = context(2, nc, 1, "periodic")
        u = l2_project(ctx.space, 1, u_fun)
        errs.append(abs(viscous_form(ctx, u, u) - exact) / exact)
    assert errs[0] <= 1e-2
    assert errs[1] <= errs[0] / 4.0


# --- normal-flux projector ---------------------------------------------------

def _flux_dof_count(sp_, edges):
    nl2x, nl2y = sp_.line_x.l2.dim, sp_.line_y.l2.dim
    return sum(nl2y if e in ("left", "right") else nl2x for e in edges)


def test_normal_projector_idempotent_and_counts():
    ctx = context(2, 4, 1, "walls")
    Pn = ctx.Pn
    assert (Pn @ Pn - Pn).nnz == 0
    diag = Pn.diagonal()
    assert set(np.unique(diag)) <= {0.0, 1.0}
    expected = _flux_dof_count(ctx.space, ("left", "right", "bottom", "top"))
    assert int(np.sum(diag == 0.0)) == expected

    ctx_m = context(2, 4, 1, "mixed")
    diag_m = ctx_m.Pn.diagonal()
    expected_m = _flux_dof_count(ctx_m.space, ("left", "right", "bottom"))
    assert int(np.sum(diag_m == 0.0)) == expected_m


def test_normal_projector_is_identity_without_flux_edges():
    sp_ = space(2, 4, 1, periodic=False)
    bc = {e: EdgeBC(kind="pressure", value=0.0) for e in
          ("left", "right", "bottom", "top")}
    ctx = OperatorContext(sp_, bc=bc)
    import scipy.sparse as sp
    assert (ctx.Pn - sp.identity(sp_.n1, format="csr")).nnz == 0


def test_normal_projector_zeroes_normal_traces_pointwise():
    ctx = context(2, 4, 1, "mixed")
    s = ctx.space
    v = rand_coeffs(s, 1, seed=29)
    w = Field(s, 1, ctx.Pn @ v)
    (x0, x1), (y0, y1) = DOMAIN
    ys = np.linspace(y0 + 0.1, y1 - 0.1, 7)
    xs = np.linspace(x0 + 0.1, x1 - 0.1, 7)
    left = eval_field(w, np.array([x0]), ys)
    right = eval_field(w, np.array([x1]), ys)
    bottom = eval_field(w, xs, np.array([y0]))
    assert np.max(np.abs(left[..., 0])) <= 1e-13
    assert np.max(np.abs(right[..., 0])) <= 1e-13
    assert np.max(np.abs(bottom[..., 1])) <= 1e-13
    # top edge carries a pressure condition: the flux trace is untouched
    top_w = eval_field(w, xs, np.array([y1]))[..., 1]
    top_v = eval_field(Field(s, 1, v), xs, np.array([y1]))[..., 1]
    assert np.max(np.abs(top_w - top_v)) <= 1e-13
    assert np.max(np.abs(top_v)) > 1e-3


# --- boundary-aware gradient -------------------------------------------------

def _pressure_ctx(p=2, nc=4):
    bc = {
        "left": EdgeBC(kind="normal", value=0.0, tangential=0.0),
        "right": EdgeBC(kind="normal", value=0.0, tangential=0.0),
        "bottom": EdgeBC(kind="pressure", value=lambda x: np.sin(x)),
        "top": EdgeBC(kind="pressure", value=lambda x: 1.0 + 0.5 * np.cos(x)),
    }
    return OperatorContext(space(p, nc, 1, periodic=False), bc=bc)


def test_pressure_gradient_periodic_context_is_plain_gradient():
    ctx = context(2, 4, 1, "periodic")
    q = rand_coeffs(ctx.space, 2, seed=28)
    a = weak_grad_with_pressure_bc(ctx, q).coeffs
    b = weak_grad(ctx, q).coeffs
    assert np.array_equal(a, b)


def test_pressure_gradient_range_is_flux_constrained():
    # x = grad_p q pairs to zero with (I - Pn) v: the b vector lives on
    # Gamma_p flux DOFs and Dn^T carries the projector
    ctx = _pressure_ctx()
    s = ctx.space
    q = rand_coeffs(s, 2, seed=30)
    x = weak_grad_with_pressure_bc(ctx, q).coeffs
    for seed in (31, 32):
        v = rand_coeffs(s, 1, seed=seed)
        comp = (v - ctx.Pn @ v) @ (s.M1 @ x)
        assert abs(comp) <= 1e-12 * max(1.0, abs(v @ (s.M1 @ x)))


def test_pressure_gradient_defining_identity():
    ctx = _pressure_ctx()
    s = ctx.space
    ora = oracle(s)
    q = rand_coeffs(s, 2, seed=33)
    for seed in (34, 35):
        v = rand_coeffs(s, 1, seed=seed)
        x = weak_grad_with_pressure_bc(ctx, q).coeffs
        lhs = x @ (s.M1 @ v)
        rhs = -q @ (s.M2 @ (ctx.Dt @ (ctx.Pn @ v)))
        for edge, data in (("bottom", ctx.bc["bottom"].value),
                           ("top", ctx.bc["top"].value)):
            pts, w, tr, sign = ora.edge_rule(edge)
            rhs += sign * float(np.dot(w, data(pts) * (tr["flux"] @ v)))
        assert rel(lhs, rhs) <= 1e-11


@pytest.mark.parametrize("p,nc,npat,mode", [
    pytest.param(2, 4, 1, "mixed", id="mixed"),
    pytest.param(2, 2, 2, "mixed", id="broken-p2-mixed"),
    pytest.param(1, 2, 2, "walls", id="broken-p1-walls"),
])
def test_full_gradient_defining_identity(p, nc, npat, mode):
    ctx = context(p, nc, npat, mode)
    s = ctx.space
    ora = oracle(s)
    q = rand_coeffs(s, 2, seed=36)
    x = weak_grad_full(ctx, q)
    for seed in (37, 38):
        v = rand_coeffs(s, 1, seed=seed)
        lhs = x @ (s.M1 @ v)
        rhs = -q @ (s.M2 @ (ctx.Dt @ v)) + ora.boundary_pairing_v2(q, v)
        assert rel(lhs, rhs) <= 1e-11


# --- boundary-aware curl -----------------------------------------------------

def _tangential_ctx(p=2, nc=3):
    # right edge: whole-edge tangential data; bottom: data on the first
    # third only (cell-aligned for nc=3 on (0, pi)); left and top free
    bc = {
        "left": EdgeBC(kind="normal", value=0.0),
        "right": EdgeBC(kind="normal", value=0.0, tangential=0.3),
        "bottom": EdgeBC(kind="normal", value=0.0,
                         tangential=[(0.0, PI / 3.0, 1.0)]),
        "top": EdgeBC(kind="pressure", value=0.0),
    }
    return OperatorContext(space(p, nc, 1, periodic=False), bc=bc)


def test_tangential_curl_defining_identity():
    ctx = _tangential_ctx()
    s = ctx.space
    ora = oracle(s)
    v = rand_coeffs(s, 1, seed=39)
    w = weak_curl_with_tangential_bc(ctx, v).coeffs
    for seed in (40, 41):
        phi = rand_coeffs(s, 0, seed=seed)
        lhs = w @ (mass_v0(s) @ phi)
        rhs = (ctx.CP0 @ phi) @ (s.M1 @ v)
        for edge in ("left", "right", "bottom", "top"):
            pts, wq, tr, _ = ora.edge_rule(edge)
            cross = ora.cross_sign(edge)
            vxn = cross * (tr["tang"] @ v)
            phiv = tr["v0"] @ phi
            if edge == "right":
                rhs -= float(np.dot(wq, 0.3 * phiv))
            elif edge == "bottom":
                data = pts < PI / 3.0
                rhs -= float(np.dot(wq[data], 1.0 * phiv[data]))
                rhs -= float(np.dot(wq[~data], vxn[~data] * phiv[~data]))
            else:
                rhs -= float(np.dot(wq, vxn * phiv))
        assert rel(lhs, rhs) <= 1e-11


def test_tangential_curl_periodic_context_is_plain_curl():
    ctx = context(2, 4, 1, "periodic")
    v = rand_coeffs(ctx.space, 1, seed=42)
    a = weak_curl_with_tangential_bc(ctx, v).coeffs
    b = weak_curl(ctx, v).coeffs
    assert np.array_equal(a, b)


def _tangential_trace_indices(s):
    # tangential-component trace DOFs on each edge (clamped end splines
    # are interpolatory, so zeroing these kills the trace exactly)
    nh1x, nl2x = s.line_x.h1.dim, s.line_x.l2.dim
    nh1y, nl2y = s.line_y.h1.dim, s.line_y.l2.dim
    n1x = nh1x * nl2y
    idx = [n1x + 0 * nh1y + np.arange(nh1y),
           n1x + (nl2x - 1) * nh1y + np.arange(nh1y),
           np.arange(nh1x) * nl2y + 0,
           np.arange(nh1x) * nl2y + (nl2y - 1)]
    return np.unique(np.concatenate(idx))


def test_tangential_curl_reduces_for_zero_trace_fields():
    # Gamma_t empty and v x n = 0 on the boundary: the bc-modified curl
    # coincides with the boundaryless one
    sp_ = space(2, 4, 1, periodic=False)
    bc = {e: EdgeBC(kind="normal", value=0.0) for e in
          ("left", "right", "bottom", "top")}
    ctx = OperatorContext(sp_, bc=bc)
    v = rand_coeffs(sp_, 1, seed=43)
    v[_tangential_trace_indices(sp_)] = 0.0
    a = weak_curl_with_tangential_bc(ctx, v).coeffs
    b = weak_curl(ctx, v).coeffs
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_lid_data_vector_matches_edge_quadrature():
    sp_ = space(2, 4, 1, periodic=False)
    bc = {
        "left": EdgeBC(kind="normal", value=0.0, tangential=0.0),
        "right": EdgeBC(kind="normal", value=0.0, tangential=0.0),
        "bottom": EdgeBC(kind="normal", value=0.0, tangential=0.0),
        "top": EdgeBC(kind="normal", value=0.0, tangential=1.0),
    }
    ctx = OperatorContext(sp_, bc=bc)
    ora = oracle(sp_)
    pts, w, tr, _ = ora.edge_rule("top")
    expected = tr["v0"].T @ w
    assert np.max(np.abs(ctx.t_tangential_data - expected)) <= 1e-12


# --- boundary terms against edge quadrature ---------------------------------

def _edge_segments(cond, tline):
    """(lo, hi, data) pieces of Gamma_t on an edge, read from the raw
    tangential setting."""
    tang = cond.tangential
    if tang is None:
        return []
    if isinstance(tang, (list, tuple)):
        return list(tang)
    return [(*tline.interval, tang)]


def _edge_data(data, pts):
    return np.broadcast_to(data(pts) if callable(data) else float(data),
                           pts.shape)


def oracle_boundary_terms(ctx):
    """T_tangential, t_tangential_data, b_pressure, normal_data and the
    diagonal of Pn, from the dense oracle's 12-point Gauss rule along each
    edge and its trace matrices."""
    s = ctx.space
    ora = oracle(s)
    T, t = np.zeros((s.n0, s.n1)), np.zeros(s.n0)
    b, n, pn = np.zeros(s.n1), np.zeros(s.n1), np.ones(s.n1)
    for edge, cond in ctx.bc.items():
        pts, w, tr, sign = ora.edge_rule(edge)
        tline = s.line_y if edge in ("left", "right") else s.line_x
        data = _edge_data(cond.value, pts)
        if cond.kind == "pressure":
            b += sign * (tr["flux"].T @ (w * data))
        else:
            # the flux trace is the L2 projection of the u.n data on the
            # edge, through the flux DOFs whose trace is not zero there
            on = np.any(tr["flux"] != 0.0, axis=0)
            F = tr["flux"][:, on]
            n[on] = np.linalg.solve(F.T @ (w[:, None] * F),
                                    F.T @ (w * sign * data))
            pn[on] = 0.0
        free = np.ones(len(pts), dtype=bool)
        for lo, hi, d in _edge_segments(cond, tline):
            seg = (pts > lo) & (pts < hi)
            free &= ~seg
            t += tr["v0"][seg].T @ (w[seg] * _edge_data(d, pts[seg]))
        T += ora.cross_sign(edge) * (
            tr["v0"][free].T @ (w[free, None] * tr["tang"][free]))
    return T, t, b, n, pn


@pytest.mark.parametrize("npat,nc", [(1, 4), (2, 2)])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["lid_driven_cavity", "poiseuille", "blasius"])
def test_boundary_terms_match_edge_quadrature(name, p, npat, nc):
    # the cavity lid, the Poiseuille pressure edges and the Blasius
    # inflow, open edges and partial plate segment
    case = case_library(name)
    x0, x1, y0, y1 = case.domain
    ctx = OperatorContext(space(p, nc, npat, periodic=False,
                                bounds=((x0, x1), (y0, y1))), bc=case.boundary)
    T, t, b, n, pn = oracle_boundary_terms(ctx)
    got = (ctx.T_tangential.toarray(), ctx.t_tangential_data, ctx.b_pressure,
           ctx.normal_data, ctx.Pn.diagonal())
    for label, a, ref in zip(("T_tangential", "t_tangential_data", "b_pressure",
                              "normal_data", "Pn"), got, (T, t, b, n, pn)):
        assert np.max(np.abs(a - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), label
    if name == "blasius":
        # the free part of the bottom edge and the open edges pair
        assert np.max(np.abs(T)) > 1e-3


# --- context validation and forcing ------------------------------------------

def test_context_rejects_unknown_edge():
    with pytest.raises(ValueError, match="unknown boundary edges"):
        OperatorContext(space(1, 4, 1, periodic=False),
                        bc={"north": EdgeBC()})


def test_context_rejects_missing_edges():
    with pytest.raises(ValueError, match="missing"):
        OperatorContext(space(1, 4, 1, periodic=False),
                        bc={"left": EdgeBC()})


def test_context_rejects_bc_on_periodic_edges():
    bc = {e: EdgeBC() for e in ("left", "right", "bottom", "top")}
    with pytest.raises(ValueError, match="periodic"):
        OperatorContext(space(1, 4, 1, periodic=True), bc=bc)


def test_context_rejects_unknown_kind():
    # the kind is checked when the EdgeBC is made, before any context
    bc = {e: EdgeBC() for e in ("left", "right", "bottom")}
    with pytest.raises(ValueError, match="kind"):
        bc["top"] = EdgeBC(kind="slip")
        OperatorContext(space(1, 4, 1, periodic=False), bc=bc)


def test_context_rejects_empty_tangential_segment():
    bc = {e: EdgeBC() for e in ("left", "right", "bottom")}
    bc["top"] = EdgeBC(tangential=[(1.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="empty"):
        OperatorContext(space(1, 4, 1, periodic=False), bc=bc)


def test_context_rejects_misaligned_segment():
    bc = {e: EdgeBC() for e in ("left", "right", "bottom")}
    bc["top"] = EdgeBC(tangential=[(0.0, 0.4, 1.0)])
    with pytest.raises(ValueError, match="aligned"):
        OperatorContext(space(1, 4, 1, periodic=False), bc=bc)


def test_context_rejects_overlapping_segments():
    # cell boundaries at multiples of pi/4; given out of order on purpose
    bc = {e: EdgeBC() for e in ("left", "right", "bottom")}
    bc["top"] = EdgeBC(tangential=[(PI / 4, 3 * PI / 4, 1.0),
                                   (0.0, PI / 2, 1.0)])
    with pytest.raises(ValueError, match="edge top: .* overlap"):
        OperatorContext(space(1, 4, 1, periodic=False), bc=bc)


@pytest.mark.parametrize("npat", [1, 2])
def test_forcing_vector_pairs_exactly_with_constants(npat):
    sp_ = space(2, 4, npat, periodic=True)
    ctx = OperatorContext(sp_, forcing=lambda X, Y: (2.0, -3.0))
    area = sp_.area
    assert rel(float(ctx.f_vec @ sp_.constant_v1(1.0, 0.0)), 2.0 * area) <= 1e-12
    assert rel(float(ctx.f_vec @ sp_.constant_v1(0.0, 1.0)), -3.0 * area) <= 1e-12


def test_context_rejects_non_finite_forcing():
    # a NaN in the forcing would otherwise reach the first solve
    with pytest.raises(ValueError, match="not finite"):
        OperatorContext(space(2, 4, 1, periodic=True),
                        forcing=lambda X, Y: (np.where(X > 1.0, np.nan, 0.0),
                                              0.0))


def test_m1_solve_with_penalization():
    sp_ = space(2, 4, 2, periodic=True)
    ctx = OperatorContext(sp_)
    gamma = 7.5
    b = rand_coeffs(sp_, 1, seed=46)
    m1_solve = ctx.poisson_solver(gamma).m1_solve
    x = m1_solve(b)
    A = sp_.M1 + gamma * sp_.penalization
    assert np.max(np.abs(A @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))
    assert ctx.poisson_solver(gamma).m1_solve is m1_solve
    x0 = ctx.poisson_solver(0.0).m1_solve(b)
    assert np.max(np.abs(sp_.M1 @ x0 - b)) <= 1e-10
