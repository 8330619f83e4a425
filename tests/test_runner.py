"""Whole runs through runner.run: every library case with its own
defaults, and fixed runs whose final diagnostics are pinned."""
import numpy as np
import pytest

from oracles import picard_step
from flowforms import runner
from flowforms.cases import case_library
from flowforms.config import SimulationConfig
from flowforms.runner import run
from flowforms.spaces import Field
from flowforms.stepper import StepFailure, StepReport

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
# per patch, dt) -> (sweeps of each step, final record values). The
# cavity row was re-recorded when the sweep began to invert the mass on
# the velocities with zero Gamma_n flux (see the pressure-robustness and
# walled energy tests in test_stepper.py). The cavity and Poiseuille rows
# were re-recorded again when cn_step began Anderson mixing (values moved
# by at most 3.7e-9 and 2.8e-8 relative). The old Poiseuille row carried
# plain Picard's own error at the default picard_tol: the solution at
# picard_tol = 1e-12 lies 2.7e-8 from it in enstrophy_term and 3e-11
# from the new row.
GOLDEN = {
    ("taylor_green", (1, 1), (8, 8), 1e-3): ((4, 4, 4, 4, 4), dict(
        time=0.005, energy=19.73910298584064,
        mom_x=9.869604401089358, mom_y=9.869604401089356,
        div_l2=1.6197122458699203e-15, jump_energy=0.0,
        enstrophy_term=157.913608119791)),
    ("lid_driven_cavity", (2, 2), (4, 4), 2e-3): ((6, 6, 5, 5, 5), dict(
        time=0.01, energy=0.0006436795321278369,
        mom_x=1.43982048506075e-16, mom_y=-6.502502529481813e-17,
        div_l2=1.6384627594503368e-15, jump_energy=8.794612866580149e-09,
        enstrophy_term=-11.09937919504293)),
    ("poiseuille", (2, 2), (4, 4), 1e-3): ((6, 6, 6, 6, 6), dict(
        time=0.005, energy=0.0011579659215638272,
        mom_x=1.0172611611413587e-17, mom_y=-0.15039408006046034,
        div_l2=6.942835535903789e-15, jump_energy=4.574083617919685e-33,
        enstrophy_term=0.0164099084927887)),
}


def golden_config(key, tmp_path, **kwargs):
    case, n_patches, n_cells, dt = key
    return SimulationConfig(case=case, degree=2, n_patches=n_patches,
                            n_cells=n_cells, dt=dt, t_final=5 * dt,
                            output_dir=str(tmp_path), **kwargs)


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: k[0])
def test_anderson_reaches_the_plain_picard_fixed_point(key, tmp_path,
                                                       monkeypatch):
    # at a tight tolerance both iterations land on the same midpoint
    # solution, whatever path they take to it
    cfg = golden_config(key, tmp_path, picard_tol=1e-12)
    mixed = run(cfg).u.coeffs
    monkeypatch.setattr(runner, "cn_step", picard_step)
    plain = run(cfg).u.coeffs
    assert np.linalg.norm(mixed - plain) <= 1e-11 * np.linalg.norm(plain)


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: k[0])
def test_final_diagnostics_match_recorded_values(key, tmp_path):
    iters, want = GOLDEN[key]
    res = run(golden_config(key, tmp_path))
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


def test_halved_retries_are_counted(tmp_path, monkeypatch):
    # every other first attempt fails and is retried at half dt
    calls = []

    def step(ctx, u, cfg, dt):
        calls.append(dt)
        if len(calls) % 3 == 1:
            raise StepFailure("stub")
        return (Field(ctx.space, 1, u.coeffs + dt), np.zeros(ctx.space.n2),
                StepReport(1, 0.0, dt))

    monkeypatch.setattr(runner, "cn_step", step)
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=0.1, t_final=0.6, output_dir=str(tmp_path)))
    assert not res.failed and res.t == pytest.approx(0.6, rel=1e-12)
    assert calls[:3] == [0.1, 0.05, 0.1]
    assert res.steps == 2 * res.retries == 8


def test_cavity_takes_steps_plain_picard_cannot(tmp_path):
    # plain Picard diverges in step 1 and in its halved retry here
    res = run(SimulationConfig(case="lid_driven_cavity", degree=2,
                               n_patches=(2, 2), n_cells=(16, 16), dt=5e-3,
                               t_final=4 * 5e-3, output_dir=str(tmp_path)))
    assert res.steps == 4 and not res.failed and res.retries == 0
    assert max(r.div_l2 for r in res.records) <= 1e-12
