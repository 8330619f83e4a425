"""Structure-preserving solver for the 2D incompressible Navier-Stokes
equations on tensor-product spline spaces: one space class
(TensorDeRhamSpace, conforming or broken across patches), one config
object (SimulationConfig) and one midpoint sweep (midpoint_sweep)."""

from .linalg import spd_inverse
from .splines import (Broken1D, DeRhamLine, gauss_legendre,
                      projection_stencil_1d)
from .spaces import (Field, TensorDeRhamSpace, build_multipatch, eval_field,
                     l2_project)
from .operators import (EdgeBC, OperatorContext, advection_residual,
                        viscous_form, viscous_residual,
                        weak_curl_with_tangential_bc)
from .stepper import (StepFailure, StepReport, cn_step, initialize,
                      leray_project, midpoint_sweep, project)
from .diagnostics import DiagnosticsRecord, l2_error, measure
from .cases import CaseDefinition, case_library
from .config import SimulationConfig, load_config
from .runner import RunResult, build_simulation, cfl_dt, convergence_study, run

__version__ = "0.1.0"
