"""The one builder of the discrete complex: a TensorDeRhamSpace over a grid
of equal axis-aligned patches. One patch per direction gives the conforming
space; more patches give the broken space with its conforming projections
and jump penalization (see spaces.py).
"""

from __future__ import annotations

import numpy as np

from .spaces import TensorDeRhamSpace
from .splines import DeRhamLine


def build_multipatch(degree, n_patches, cells_per_patch,
                     bounds=((0.0, 1.0), (0.0, 1.0)),
                     periodic=(False, False)) -> TensorDeRhamSpace:
    npx, npy = (n_patches, n_patches) if np.isscalar(n_patches) else n_patches
    ncx, ncy = ((cells_per_patch, cells_per_patch) if np.isscalar(cells_per_patch)
                else cells_per_patch)
    if isinstance(periodic, bool):
        periodic = (periodic, periodic)
    line_x = DeRhamLine(degree, npx, ncx, bounds[0], periodic[0])
    line_y = DeRhamLine(degree, npy, ncy, bounds[1], periodic[1])
    return TensorDeRhamSpace(line_x, line_y)
