"""Kronecker linear algebra: the explicit inverses of the 1D mass
matrices (clamped, periodic or broken) that appear as Kronecker factors
of every 2D mass matrix, and the reference solve by a pair of them: the
spaces write each 2D mass solve or product out as its two matrix products.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class FactorizationError(RuntimeError):
    """Cholesky factorization hit a non-SPD pivot."""


def spd_inverse(M) -> np.ndarray:
    """The explicit inverse of the SPD array M, formed from its Cholesky
    factor and symmetrised; raises FactorizationError if M is not SPD.

    The 1D mass matrices are small (a few hundred rows at most), and
    LAPACK's pbtrs/potrs solve them one right-hand-side column at a time
    with BLAS-2 kernels: a product with the stored inverse is several
    times faster than either, on clamped (banded) and periodic (cyclic)
    lines alike."""
    M = np.asarray(M, dtype=np.float64)
    try:
        cf = scipy.linalg.cho_factor(M, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"Cholesky failed: {exc}") from exc
    inv = scipy.linalg.cho_solve(cf, np.eye(M.shape[0]))
    return 0.5 * (inv + inv.T)


class KroneckerSolver:
    """Solves (A_x (x) A_y) x = b given the inverse arrays inv_x, inv_y
    of the two factors; handed the factors themselves, it applies them.
    No solver path uses it: it is the reference that tests hold
    `TensorDeRhamSpace.solve_mass` to, and benchmarks/tracer.py hooks it.

    Row-major vec convention: (A (x) B) vec(C) = vec(A C B^T), so the
    solve is A_x^-1 C A_y^-T on the right-hand side reshaped to
    (n_x, n_y): two GEMMs."""

    def __init__(self, inv_x, inv_y):
        self.inv_x, self.inv_y = inv_x, inv_y
        self.dims = (inv_x.shape[0], inv_y.shape[0])

    def solve(self, b):
        """The solution in the shape of b, a vector or an (n_x, n_y)
        array; raises ValueError on non-finite input."""
        b = np.asarray_chkfinite(b, dtype=np.float64)
        X = self.inv_x @ b.reshape(self.dims) @ self.inv_y.T
        return X.reshape(b.shape)
