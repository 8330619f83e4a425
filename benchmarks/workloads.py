"""The fixed workloads of the flowforms benchmark.

Every case is deterministic: a workload always computes the same thing,
whatever the benchmark seed (see NOTES.md for why each one was chosen).
Tolerances were fixed from the values the seed commit produces on these
exact sizes (each entry gives that value): about ten times the seed value
for quantities at roundoff, whose last digits any reordering of sums can
move, and 1% over it for the discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # SimulationConfig fields; t_final is steps * dt
    steps: int
    checks: dict          # check name -> tolerance, see worker.check_run


WORKLOADS = {w.name: w for w in (
    # Advection-bound: one periodic patch, nu=0, no penalty, no output.
    Workload(
        "tg_advect",
        dict(case="taylor_green", degree=2, n_patches=(1, 1),
             n_cells=(64, 64), dt=1e-3, nu=0.0),
        steps=20,
        checks=dict(
            div_l2=2e-12,            # seed 2.07e-13
            momentum_drift=3.5e-14,  # seed 3.55e-15
            energy_drift=1.6e-14,    # seed 1.62e-15, relative (nu=0)
            # against the exact solution; seed 2.4242e-5, +1%. This is
            # discretisation error, so roundoff cannot move it by 1%.
            l2_error=2.4242e-5 * 1.01,
        )),
    # Picard-bound: walls on all sides, small DOF count, defaults nu=1e-2
    # and alpha=100. dt=5e-3 diverges in step 1. Picard sweeps fall from
    # 55 in step 1 to 12 in step 20, 462 in all.
    Workload(
        "cavity_picard",
        dict(case="lid_driven_cavity", degree=2, n_patches=(2, 2),
             n_cells=(16, 16), dt=2e-3),
        steps=20,
        checks=dict(
            div_l2=9e-13,            # seed 8.76e-14
        )),
    # Output beside compute: a 64x64 text snapshot every 5th step. At
    # 12x12 cells per patch the steps are so short that per-call overhead
    # makes run-to-run spread twice as wide; 24x24 keeps it within bounds.
    Workload(
        "dsl_output",
        dict(case="double_shear_layer", degree=3, n_patches=(2, 2),
             n_cells=(24, 24), dt=2e-3, snapshot_cadence=5,
             snapshot_grid=64),
        steps=25,
        checks=dict(
            div_l2=4e-13,            # seed 3.79e-14
            momentum_drift=1.2e-15,  # seed 1.14e-16
        )),
)}
