"""Quadrature, the SPD inverse and Kronecker solve contracts, and the CG
reference solver the tests build on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowforms.linalg import (
    FactorizationError,
    KroneckerSolver,
    spd_inverse,
)
from flowforms.splines import DeRhamLine, gauss_legendre
from oracles import NumericalBreakdown, cg_solve, line_gram


# --- Gauss-Legendre ---------------------------------------------------------

def test_gauss_rejects_zero_points():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gauss_one_point_is_midpoint_rule():
    points, weights = gauss_legendre(1)
    assert points == pytest.approx([0.0], abs=1e-15)
    assert weights == pytest.approx([2.0], abs=1e-15)


def test_gauss_two_point_closed_form():
    points, weights = gauss_legendre(2)
    assert np.sort(points) == pytest.approx(
        [-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_five_points_integrate_x8():
    points, weights = gauss_legendre(5)
    val = float(weights @ points**8)
    assert abs(val - 2.0 / 9.0) <= 1e-14


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_weights_sum_to_two(n):
    assert abs(gauss_legendre(n)[1].sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_gauss_monomial_exactness(n):
    # a rule of n points is exact for degrees up to 2n - 1
    points, weights = gauss_legendre(n)
    for d in range(2 * n):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        got = float(weights @ points**d)
        assert got == pytest.approx(exact, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
)
def test_gauss_random_polynomials(n, coeffs):
    deg = len(coeffs) - 1
    if deg > 2 * n - 1:
        coeffs = coeffs[: 2 * n]
    poly = np.polynomial.Polynomial(coeffs)
    points, weights = gauss_legendre(n)
    got = float(weights @ poly(points))
    exact = float(poly.integ()(1.0) - poly.integ()(-1.0))
    assert got == pytest.approx(exact, abs=1e-12 * (1 + abs(exact)))


# --- conjugate gradients ----------------------------------------------------

def test_cg_identity_converges_in_one_iteration(rng):
    b = rng.standard_normal(17)
    x, rep = cg_solve(np.eye(17), b)
    assert np.allclose(x, b, atol=1e-14)
    assert rep.iterations == 1
    assert rep.converged


def test_cg_diagonal_system():
    x, rep = cg_solve(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert rep.converged


def test_cg_random_spd_matches_dense_solve(rng):
    R = rng.standard_normal((50, 50))
    A = R.T @ R + np.eye(50)
    b = rng.standard_normal(50)
    x, rep = cg_solve(A, b, tol=1e-13, max_iter=5000)
    assert rep.converged
    assert np.linalg.norm(x - np.linalg.solve(A, b)) <= 1e-10 * np.linalg.norm(b)


def test_cg_report_residual_is_true_residual(rng):
    R = rng.standard_normal((30, 30))
    A = R.T @ R + np.eye(30)
    b = rng.standard_normal(30)
    x, rep = cg_solve(A, b, tol=1e-10)
    recomputed = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert rep.residual == pytest.approx(recomputed, rel=1e-12)
    if rep.converged:
        assert rep.residual <= 1e-10


def test_cg_callable_operator(rng):
    d = np.arange(1.0, 21.0)
    b = rng.standard_normal(20)
    x, rep = cg_solve(lambda v: d * v, b, tol=1e-13)
    assert np.allclose(d * x, b, atol=1e-11)
    assert rep.converged


def test_cg_nonfinite_rhs_breaks():
    with pytest.raises(NumericalBreakdown):
        cg_solve(np.eye(3), np.array([1.0, np.nan, 0.0]))


def test_cg_nonfinite_operator_breaks():
    b = np.ones(4)
    with pytest.raises(NumericalBreakdown):
        cg_solve(lambda v: np.full_like(v, np.inf), b)


def test_cg_zero_rhs_short_circuits():
    x, rep = cg_solve(np.eye(5), np.zeros(5))
    assert np.all(x == 0.0)
    assert rep.converged and rep.iterations == 0


def test_cg_iteration_cap_reports_nonconverged(rng):
    # Hilbert-type ill conditioning: one iteration cannot converge
    n = 12
    A = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    A += np.eye(n) * 1e-10
    b = rng.standard_normal(n)
    x, rep = cg_solve(A, b, tol=1e-14, max_iter=1)
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.residual == pytest.approx(
        np.linalg.norm(b - A @ x) / np.linalg.norm(b), rel=1e-12)


# --- SPD inverse ----------------------------------------------------------------

def test_banded_identity_roundtrip(rng):
    b = rng.standard_normal(9)
    assert np.allclose(spd_inverse(np.eye(9)) @ b, b, atol=1e-14)


def _linear_spline_mass(n_cells, h):
    # hat-function Gram matrix on a uniform clamped grid
    n = n_cells + 1
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = h * (2.0 / 3.0 if 0 < i < n - 1 else 1.0 / 3.0)
        if i + 1 < n:
            M[i, i + 1] = M[i + 1, i] = h / 6.0
    return M


def test_banded_solve_matches_dense_on_spline_mass(rng):
    h = 0.125
    M = _linear_spline_mass(8, h)
    assert M[1, 0] == pytest.approx(h / 6.0)
    assert M[1, 1] == pytest.approx(4.0 * h / 6.0)
    b = rng.standard_normal(M.shape[0])
    x = spd_inverse(M) @ b
    assert np.linalg.norm(x - np.linalg.solve(M, b)) <= 1e-12
    assert np.linalg.norm(M @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_banded_rejects_non_spd():
    with pytest.raises(FactorizationError):
        spd_inverse(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(FactorizationError):
        spd_inverse(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 7, 40])
def test_spd_inverse_is_exactly_symmetric(rng, n):
    # the Cholesky solve alone leaves the inverse symmetric to roundoff
    R = rng.standard_normal((n, n))
    inv = spd_inverse(R @ R.T + n * np.eye(n))
    assert np.array_equal(inv, inv.T)
    assert np.allclose(inv @ (R @ R.T + n * np.eye(n)), np.eye(n), atol=1e-12)


_LINES = [(p, n_patches, periodic)
          for p in range(4) for n_patches, periodic in
          ((1, False), (1, True), (2, False), (2, True))]


@pytest.mark.parametrize("p, n_patches, periodic", _LINES)
def test_spd_inverse_of_derham_line_masses(rng, p, n_patches, periodic):
    line = DeRhamLine(p, n_patches, 6 // n_patches + p, (0.0, 2.0), periodic)
    for which in ("h1", "l2"):
        M, inv = line.mass[which], line.inv[which]
        assert np.array_equal(M, line_gram(line, which, which).toarray())
        assert np.array_equal(inv, inv.T)
        B = rng.standard_normal((M.shape[0], 3))
        ref = np.linalg.solve(M, B)
        assert np.linalg.norm(inv @ B - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solves_reject_non_finite_input(bad):
    M = _linear_spline_mass(4, 0.25)
    K = KroneckerSolver(spd_inverse(M), spd_inverse(M))
    B = np.ones((M.shape[0], M.shape[0]))
    B[1, 3] = bad
    with pytest.raises(ValueError):
        K.solve(B)
    with pytest.raises(ValueError):
        K.solve(B.ravel())


def test_kronecker_solve_keeps_the_input_shape(rng):
    Mx = _linear_spline_mass(4, 0.25)
    My = _linear_spline_mass(6, 1.0 / 6.0)
    K = KroneckerSolver(spd_inverse(Mx), spd_inverse(My))
    B = rng.standard_normal((Mx.shape[0], My.shape[0]))
    X = K.solve(B)
    x = K.solve(B.ravel())
    assert X.shape == B.shape
    assert x.shape == (B.size,)
    assert np.array_equal(X.ravel(), x)
    assert np.allclose(Mx @ X @ My.T, B, atol=1e-12)


def test_kronecker_pair_matches_cg(rng):
    Mx = _linear_spline_mass(5, 0.2)
    My = _linear_spline_mass(7, 0.125)
    K = np.kron(Mx, My)
    b = rng.standard_normal(K.shape[0])
    x_kron = KroneckerSolver(spd_inverse(Mx), spd_inverse(My)).solve(b)
    x_cg, rep = cg_solve(K, b, tol=1e-14, max_iter=10000)
    assert rep.converged
    assert np.linalg.norm(x_kron - x_cg) <= 1e-11 * np.linalg.norm(x_cg)


def test_kronecker_matches_assembled_solve(rng):
    Mx = _linear_spline_mass(4, 0.25)
    My = _linear_spline_mass(6, 1.0 / 6.0)
    K = np.kron(Mx, My)
    b = rng.standard_normal(K.shape[0])
    x = KroneckerSolver(spd_inverse(Mx), spd_inverse(My)).solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
