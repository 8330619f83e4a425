"""Whole runs through runner.run: every library case with its own
defaults, and fixed runs whose final diagnostics are pinned."""
import numpy as np
import pytest

from flowforms import runner
from flowforms.cases import case_library
from flowforms.config import SimulationConfig
from flowforms.runner import run
from flowforms.spaces import Field
from flowforms.stepper import StepReport

# Short end times for the smoke runs: three steps of the cases with a
# fixed dt; the CFL-controlled cavity needs 0.1, because a bound that is
# too large only makes it fail after the first steps.
SMOKE_T_FINAL = dict(taylor_green=3e-4, poiseuille=3e-3,
                     lid_driven_cavity=0.1, blasius=0.05,
                     double_shear_layer=0.05)


@pytest.mark.parametrize("name", case_library())
def test_every_case_runs_with_its_defaults(name, tmp_path):
    # default grid (8x8 cells) and stepper settings; three of the cases
    # default to dt=None (CFL control)
    t_final = SMOKE_T_FINAL[name]
    res = run(SimulationConfig(case=name, t_final=t_final,
                               output_dir=str(tmp_path)))
    assert not res.failed
    assert res.t == pytest.approx(t_final, rel=1e-12)
    assert max(r.div_l2 for r in res.records) <= 1e-12


# Final diagnostics row after 5 steps at p=2, recorded from the solver
# before the space, config and sweep were unified: (case, patches, cells
# per patch, dt) -> (Picard iterations of each step, final record values).
# The cavity row was re-recorded when the sweep began to invert the mass
# on the velocities with zero Gamma_n flux (see the pressure-robustness
# and walled energy tests in test_stepper.py).
GOLDEN = {
    ("taylor_green", (1, 1), (8, 8), 1e-3): ((4, 4, 4, 4, 4), dict(
        time=0.005, energy=19.73910298584064,
        mom_x=9.869604401089358, mom_y=9.869604401089356,
        div_l2=1.6197122458699203e-15, jump_energy=0.0,
        enstrophy_term=157.913608119791)),
    ("lid_driven_cavity", (2, 2), (4, 4), 2e-3): ((7, 7, 7, 7, 6), dict(
        time=0.01, energy=0.000643679532055514,
        mom_x=1.4354836763708079e-16, mom_y=-6.535028594656378e-17,
        div_l2=2.000760056822102e-15, jump_energy=8.79461289873947e-09,
        enstrophy_term=-11.099379194616155)),
    ("poiseuille", (2, 2), (4, 4), 1e-3): ((9, 9, 9, 9, 9), dict(
        time=0.005, energy=0.0011579659222851317,
        mom_x=-1.7805579186277166e-18, mom_y=-0.1503940801510305,
        div_l2=9.107822583794419e-15, jump_energy=1.348150961071065e-32,
        enstrophy_term=0.016409908944432956)),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: k[0])
def test_final_diagnostics_match_recorded_values(key, tmp_path):
    case, n_patches, n_cells, dt = key
    iters, want = GOLDEN[key]
    res = run(SimulationConfig(case=case, degree=2, n_patches=n_patches,
                               n_cells=n_cells, dt=dt, t_final=5 * dt,
                               output_dir=str(tmp_path)))
    assert res.steps == 5 and not res.failed
    assert [r.picard_iterations for r in res.records[1:]] == list(iters)
    last = res.records[-1]
    got = dict(time=last.time, energy=last.energy, mom_x=last.momentum[0],
               mom_y=last.momentum[1], div_l2=last.div_l2,
               jump_energy=last.jump_energy,
               enstrophy_term=last.enstrophy_term)
    # nonzero values to rel 1e-12; values at roundoff level to abs 1e-13
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-13), name


def test_fixed_dt_run_takes_t_final_over_dt_steps(tmp_path, monkeypatch):
    # 74 steps of 0.1 sum to a few ulps below 7.4; that gap must not
    # become a 75th sliver step (and an extra diagnostics row)
    def step(ctx, u, cfg, dt):
        return (Field(ctx.space, 1, u.coeffs + dt), np.zeros(ctx.space.n2),
                StepReport(1, 0.0, dt))

    monkeypatch.setattr(runner, "cn_step", step)
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=0.1, t_final=7.4, output_dir=str(tmp_path)))
    assert res.steps == 74 and not res.failed and not res.steady
    assert len(res.records) == 75
