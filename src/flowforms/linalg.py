"""Banded and Kronecker linear algebra plus Gauss quadrature.

Everything downstream (spline assembly, weak operators, the time stepper)
goes through the primitives in this module: Gauss-Legendre rules and
exact direct factorizations for the (banded or cyclic) 1D mass matrices
that appear as Kronecker factors of every 2D mass matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class FactorizationError(RuntimeError):
    """Direct factorization hit a non-SPD pivot."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray
    order: int  # number of points; exact for polynomials up to degree 2*order-1


def gauss_legendre(n: int) -> QuadratureRule:
    if n < 1:
        raise ValueError(f"Gauss-Legendre rule needs n >= 1 points, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(points=x, weights=w, order=n)


def _to_dense_sym(M) -> np.ndarray:
    if sp.issparse(M):
        M = M.toarray()
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return M


def _bandwidth(M: np.ndarray) -> int:
    nz = np.nonzero(M)
    if nz[0].size == 0:
        return 0
    return int(np.max(np.abs(nz[0] - nz[1])))


class BandedCholesky:
    """Cholesky factorization of an SPD banded matrix (upper-band storage)."""

    def __init__(self, M):
        M = _to_dense_sym(M)
        self.n = M.shape[0]
        k = _bandwidth(M)
        ab = np.zeros((k + 1, self.n))
        for d in range(k + 1):
            ab[k - d, d:] = np.diagonal(M, offset=d)
        try:
            self._cb = scipy.linalg.cholesky_banded(ab, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationError(f"banded Cholesky failed: {exc}") from exc

    def solve(self, B):
        return scipy.linalg.cho_solve_banded((self._cb, False), B)


class DenseCholesky:
    """Dense Cholesky; used for cyclic (periodic) 1D mass matrices."""

    def __init__(self, M):
        M = _to_dense_sym(M)
        self.n = M.shape[0]
        try:
            self._cf = scipy.linalg.cho_factor(M, lower=False)
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationError(f"Cholesky failed: {exc}") from exc

    def solve(self, B):
        return scipy.linalg.cho_solve(self._cf, B)


def sym_factor(M):
    """Factor an SPD matrix, banded if the sparsity allows it."""
    Md = _to_dense_sym(M)
    k = _bandwidth(Md)
    if k < Md.shape[0] - 1:
        return BandedCholesky(Md)
    return DenseCholesky(Md)


class KroneckerSolver:
    """Solves (A_1 (x) A_2) x = b given per-factor factorizations.

    Row-major vec convention: (A (x) B) vec(C) = vec(A C B^T), so the
    first factor acts along axis 0 of the reshaped right-hand side.
    """

    def __init__(self, factors):
        self.factors = list(factors)
        self.dims = tuple(f.n for f in self.factors)
        self.size = int(np.prod(self.dims))

    def solve(self, b):
        b = np.asarray(b, dtype=np.float64)
        vec_in = b.ndim == 1
        X = b.reshape(self.dims)
        for axis, f in enumerate(self.factors):
            X = f.solve(X.swapaxes(0, axis)).swapaxes(0, axis)
        return X.reshape(-1) if vec_in else X
