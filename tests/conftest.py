"""Shared fixtures: cached spaces/contexts and random-field helpers.

Spaces and contexts are immutable after construction, so they are memoized
across tests; rebuilding the broken p=3 complexes dominates suite runtime
otherwise.
"""

import functools

import numpy as np
import pytest

from flowforms.operators import EdgeBC, OperatorContext
from flowforms.spaces import Field, build_multipatch

PI = np.pi
DOMAIN = ((0.0, PI), (0.0, PI))


@functools.lru_cache(maxsize=None)
def space(p, n_cells, n_patches=1, periodic=True, bounds=DOMAIN):
    return build_multipatch(p, n_patches, n_cells, bounds, periodic=periodic)


def _walls_bc():
    z = dict(tangential=0.0)
    return {e: EdgeBC("normal", 0.0, **z)
            for e in ("left", "right", "bottom", "top")}


def _mixed_bc():
    return {
        "left": EdgeBC("normal", 0.0, tangential=0.0),
        "right": EdgeBC("normal", 0.0, tangential=0.0),
        "bottom": EdgeBC("normal", 0.0, tangential=0.0),
        "top": EdgeBC("pressure", 0.0, tangential=0.0),
    }


@functools.lru_cache(maxsize=None)
def context(p, n_cells, n_patches=1, mode="periodic", bounds=DOMAIN):
    """Cached OperatorContext.

    mode: 'periodic'  periodic space, no boundary
          'free'      clamped space, boundaryless operator algebra
          'walls'     clamped, u.n = 0 on all four edges
          'mixed'     clamped, three normal walls plus a pressure edge
    """
    periodic = mode == "periodic"
    sp_ = space(p, n_cells, n_patches, periodic, bounds)
    if mode in ("periodic", "free"):
        return OperatorContext(sp_)
    bc = _walls_bc() if mode == "walls" else _mixed_bc()
    return OperatorContext(sp_, bc=bc)


def rand_field(sp_, slot, seed):
    rng = np.random.default_rng(seed)
    return Field(sp_, slot, rng.standard_normal(sp_.dim(slot)))


def rand_coeffs(sp_, slot, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(sp_.dim(slot))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
