"""1D spline spaces, derivative incidence, broken lines, de Rham pairs."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowforms.splines import (
    Broken1D,
    DegenerateStencilError,
    DeRhamLine,
    cell_quadrature,
)

UNIT = (0.0, 1.0)
PATCHES = (1, 3)   # the single-space tests run on one and on three patches


def spline_values(space, c, x):
    return space.collocation(np.atleast_1d(x)) @ np.asarray(c)


def off_interfaces(space, x, gap=1e-3):
    """The points of x at least gap away from every interior patch bound."""
    bounds = space.patch_bounds[1:-1]
    return x[np.all(np.abs(x[:, None] - bounds[None, :]) > gap, axis=1)]


# --- space construction -------------------------------------------------------

def test_dims_clamped_and_periodic():
    for n in PATCHES:
        assert Broken1D(0, n, 4, UNIT, False).dim == 4 * n
        assert Broken1D(2, n, 4, UNIT, False).dim == 6 * n
        assert Broken1D(1, n, 8, UNIT, True).dim == (8 if n == 1 else 9 * n)


@pytest.mark.parametrize("bad", [
    (-1, 1, 4, UNIT, False),
    (2, 1, 0, UNIT, False),
    (2, 1, 4, (1.0, 1.0), False),
    (2, 1, 2, UNIT, True),
    (2, 0, 4, UNIT, False),
    (2, 1, 4, (1.0, 0.0), True),
])
def test_invalid_spaces_rejected(bad):
    with pytest.raises(ValueError):
        Broken1D(*bad)


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("periodic", [False, True])
def test_broken_line_needs_two_cells_per_patch(degree, periodic):
    # the interface stencil of radius degree does not fit in one cell
    with pytest.raises(DegenerateStencilError, match="2 cells per patch"):
        Broken1D(degree, 2, 1, UNIT, periodic)
    Broken1D(degree, 2, 2, UNIT, periodic)
    Broken1D(degree, 1, 1, UNIT, False)


def test_partition_of_unity_at_random_points(rng):
    for n in PATCHES:
        for periodic in (False, True):
            space = Broken1D(2, n, 8, (0.0, 2.0), periodic)
            x = rng.uniform(0.0, 2.0, size=100)
            E = space.collocation(x).toarray()
            assert np.abs(E.sum(axis=1) - 1.0).max() <= 1e-13
            assert E.min() >= -1e-14


def test_clamped_endpoints_are_interpolatory():
    for n in PATCHES:
        space = Broken1D(3, n, 5, UNIT, False)
        E = space.collocation([0.0, 1.0]).toarray()
        assert E[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert E[1, -1] == pytest.approx(1.0, abs=1e-14)
        assert E.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-14)


def test_collocation_rejects_outside_points():
    for n in PATCHES:
        space = Broken1D(2, n, 4, UNIT, False)
        with pytest.raises(ValueError):
            space.collocation([1.001])
        with pytest.raises(ValueError):
            space.collocation([-0.001])


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(0, 4),
    n_patches=st.sampled_from(PATCHES),
    n_cells=st.integers(1, 10),
    periodic=st.booleans(),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_basis_partition_of_unity_property(degree, n_patches, n_cells,
                                           periodic, ts):
    assume(n_cells > (1 if n_patches > 1 else degree if periodic else 0))
    space = Broken1D(degree, n_patches, n_cells, (-1.0, 3.0), periodic)
    x = -1.0 + 4.0 * np.asarray(ts)
    E = space.collocation(x).toarray()
    assert np.abs(E.sum(axis=1) - 1.0).max() <= 1e-13
    assert E.min() >= -1e-14


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n_patches", [1, 2, 3])
@pytest.mark.parametrize("degree", range(7))
def test_collocation_is_scipys_design_matrix_bit_for_bit(degree, n_patches,
                                                         periodic):
    # the same csr_array as scipy's BSpline.design_matrix, explicit zeros
    # and signs of zero included: directly on a clamped or broken line, and
    # through collocation's fold on a wrapped periodic patch; at every
    # breakpoint, both ends and random points
    from scipy.interpolate import BSpline
    rng = np.random.default_rng(degree)
    for cells in (2, 3, 7, 16):
        if periodic and n_patches == 1 and cells <= degree:
            continue
        space = Broken1D(degree, n_patches, cells, (-0.4, 1.3), periodic)
        a, b = space.interval
        x = np.concatenate([space.breakpoints, [a, b], rng.uniform(a, b, 40)])
        got = space.collocation(x)
        if space.wraps:
            E = BSpline.design_matrix(a + np.mod(x - a, b - a), space.knots,
                                      degree)
            k = np.arange(E.shape[1])
            want = E @ sp.csr_matrix((np.ones(len(k)), (k, k % space.dim)))
        else:
            want = BSpline.design_matrix(x, space.knots, degree)
            assert got.nnz == len(x) * (degree + 1)
        assert type(got) is sp.csr_array and got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name
        assert np.array_equal(np.signbit(got.data), np.signbit(want.data))


def test_broken_knots_repeat_each_interface():
    line = Broken1D(2, 3, 2, (0.0, 3.0), False)
    assert list(line.knots) == ([0.0] * 3 + [0.5] + [1.0] * 3 + [1.5]
                                + [2.0] * 3 + [2.5] + [3.0] * 3)
    assert len(line.knots) == line.dim + line.degree + 1


# --- derivative incidence -----------------------------------------------------

def test_derivative_of_constant_vanishes():
    for n in PATCHES:
        for periodic in (False, True):
            space = Broken1D(3, n, 6, (0.0, 2.0), periodic)
            D = space.derivative_matrix()
            assert np.abs(D @ np.ones(space.dim)).max() == 0.0


def test_derivative_degree_one_is_bidiagonal():
    space = Broken1D(1, 1, 5, UNIT, False)
    h = 0.2
    D = space.derivative_matrix().toarray()
    assert D.shape == (5, 6)
    expect = np.zeros_like(D)
    for i in range(5):
        expect[i, i] = -1.0 / h
        expect[i, i + 1] = 1.0 / h
    assert np.abs(D - expect).max() <= 1e-12


@pytest.mark.parametrize("periodic", [False, True])
def test_derivative_matches_finite_differences(periodic, rng):
    for n in PATCHES:
        space = Broken1D(3, n, 6, (0.0, 2.0), periodic)
        target = Broken1D(2, n, 6, (0.0, 2.0), periodic)
        D = space.derivative_matrix()
        assert D.shape == (target.dim, space.dim)
        c = rng.standard_normal(space.dim)
        dc = D @ c
        eps = 1e-6
        x = off_interfaces(space, rng.uniform(0.1, 1.9, size=50))
        fd = (spline_values(space, c, x + eps)
              - spline_values(space, c, x - eps)) / (2 * eps)
        exact = spline_values(target, dc, x)
        assert np.abs(fd - exact).max() <= 1e-6


def test_derivative_rejects_degree_zero():
    with pytest.raises(ValueError):
        Broken1D(0, 1, 4, UNIT, False).derivative_matrix()


def test_derivative_exactness_against_dense_tableau(rng):
    # derivative of the evaluated spline equals evaluation in the target
    # space at machine precision (not just FD accuracy)
    from oracles import line_basis

    for n in PATCHES:
        space = Broken1D(2, n, 7, UNIT, True)
        target = Broken1D(1, n, 7, UNIT, True)
        D = space.derivative_matrix()
        c = rng.standard_normal(space.dim)
        x = off_interfaces(space, rng.uniform(0.0, 1.0, 40))
        # analytic derivative via the lower-degree tableau of the same knots
        dE = line_basis(space, x, deriv=True)
        lhs = dE @ c
        rhs = spline_values(target, D @ c, x)
        assert np.abs(lhs - rhs).max() <= 1e-11


# --- quadrature over breakpoints ------------------------------------------------

def test_cell_quadrature_weight_sum_and_exactness():
    bp = np.array([0.0, 0.25, 0.5, 1.0])
    pts, w = cell_quadrature(bp, 3)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert float(w @ pts**5) == pytest.approx(1.0 / 6.0, abs=1e-14)


# --- broken 1D lines ------------------------------------------------------------

def test_broken_dims_and_offsets():
    line = Broken1D(2, 3, 2, (0.0, 3.0), False)
    assert line.dim == 12
    assert list(line.offsets) == [0, 4, 8, 12]
    assert line.broken
    assert not Broken1D(2, 1, 4, (0.0, 1.0), False).broken


def test_broken_interfaces_clamped_and_periodic():
    line = Broken1D(2, 3, 2, (0.0, 3.0), False)
    assert line.interfaces() == [(3, 4), (7, 8)]
    wrap = Broken1D(1, 2, 3, (0.0, 1.0), True)
    assert wrap.interfaces() == [(3, 4), (7, 0)]


def test_broken_collocation_sides_at_interface():
    line = Broken1D(2, 2, 2, (0.0, 2.0), False)
    at = line.collocation([1.0]).toarray()[0]
    # interface points belong to the right patch
    assert np.abs(at[: line.offsets[1]]).max() == 0.0
    assert at[line.offsets[1]] == pytest.approx(1.0, abs=1e-14)
    left = line.collocation([1.0 - 1e-12]).toarray()[0]
    assert np.abs(left[line.offsets[1]:]).max() == 0.0


def test_broken_quadrature_covers_interval():
    line = Broken1D(2, 3, 4, (0.0, 2.0), False)
    pts, w = cell_quadrature(line.breakpoints, 4)
    assert w.sum() == pytest.approx(2.0, abs=1e-13)
    assert pts.min() > 0.0 and pts.max() < 2.0


def test_broken_derivative_kills_patchwise_constants():
    line = Broken1D(2, 3, 2, (0.0, 1.0), False)
    D = line.derivative_matrix()
    c = np.concatenate([np.full(4, 1.0), np.full(4, -2.0), np.full(4, 0.5)])
    assert np.abs(D @ c).max() == 0.0


# --- 1D de Rham pairs -------------------------------------------------------------

def test_derham_line_shapes_and_symmetry():
    line = DeRhamLine(2, 2, 3, (0.0, 1.0), False)
    assert line.h1.degree == 3 and line.l2.degree == 2
    assert line.D.shape == (line.l2.dim, line.h1.dim)
    assert line.Q.shape == (line.l2.dim, line.h1.dim)
    for M in line.mass.values():
        assert np.abs(M - M.T).max() <= 1e-14


def test_derham_line_mass_factor_solves(rng):
    line = DeRhamLine(3, 1, 5, (0.0, np.pi), True)
    for which, M in line.mass.items():
        b = rng.standard_normal(M.shape[0])
        x = line.inv[which] @ b
        assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_derham_line_cell_size():
    line = DeRhamLine(1, 4, 5, (0.0, 2.0), False)
    assert line.h == pytest.approx(2.0 / 20.0, abs=1e-15)
