"""Whole runs through runner.run: every library case with its own
defaults, fixed runs whose final diagnostics are pinned, and the checks
and order column of a refinement study."""
import os
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import picard_step
from flowforms import operators, runner
from flowforms.cases import case_library
from flowforms.config import SimulationConfig
from flowforms.runner import build_simulation, run, write_snapshot
from flowforms.spaces import Field
from flowforms.stepper import (StepFailure, StepReport, cn_step,
                               initialize)

# Short end times for the smoke runs: three steps of the cases with a
# fixed dt; the CFL-controlled cavity needs 0.1, because a bound that is
# too large only makes it fail after the first steps.
SMOKE_T_FINAL = dict(taylor_green=3e-4, poiseuille=0.3,
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
# from the new row. All three were re-recorded when run() began to start
# each step after the first from the extrapolated velocity (one sweep
# fewer a step; values moved by at most 2.1e-9 relative, after the
# fixed-point test below passed at its 1e-11 bound). The cavity row was
# re-recorded once more when the advection form became skew on walls, after
# the c(u, v, v) = 0 and walled energy tests passed and the advection
# oracle took the new form (energy moved by 2.5e-7 relative, the
# enstrophy term by 6.1e-7). All three were re-recorded when run() began
# to start each step from the adaptive-order extrapolation of predict
# (a sweep fewer in the later steps; values above roundoff moved by at
# most 4.2e-9 relative, after the fixed-point test below passed at its 1e-11
# bound). The cavity and Poiseuille rows were re-recorded when cn_step
# began to precondition each sweep's update by the viscous operator (fewer
# sweeps; the cavity energy moved by 4e-12 relative and Poiseuille's
# enstrophy term by 4.3e-9, inside picard_tol, after the fixed-point test
# below passed unedited).
GOLDEN = {
    ("taylor_green", (1, 1), (8, 8), 1e-3): ((4, 3, 3, 2, 1), dict(
        time=0.005, energy=19.739102985840585,
        mom_x=9.869604401089358, mom_y=9.869604401089356,
        div_l2=1.78269906054206e-15, jump_energy=0.0,
        enstrophy_term=157.91360811979035)),
    ("lid_driven_cavity", (2, 2), (4, 4), 2e-3): ((4, 4, 4, 3, 3), dict(
        time=0.01, energy=0.0006436796906836702,
        mom_x=2.688821387764051e-17, mom_y=-1.1275702593849246e-17,
        div_l2=3.0493958400999584e-16, jump_energy=8.797606669720348e-09,
        enstrophy_term=-11.099385933775102)),
    ("poiseuille", (2, 2), (4, 4), 1e-3): ((2, 2, 2, 2, 2), dict(
        time=0.005, energy=0.001157965921564977,
        mom_x=2.6853204716314378e-18, mom_y=-0.15039408006059057,
        div_l2=1.4628706258153967e-15, jump_energy=7.162051980690033e-34,
        enstrophy_term=0.016409908493358265)),
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


def recording_step(dts):
    """A stub cn_step that records each dt and adds it to the velocity."""
    def step(ctx, u, cfg, dt, guess=None):
        dts.append(dt)
        return u + dt, np.zeros(ctx.space.n2), StepReport(1, 0.0)
    return step


def stub_run(tmp_path, monkeypatch, dt, t_final):
    dts = []
    monkeypatch.setattr(runner, "cn_step", recording_step(dts))
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=dt, t_final=t_final,
                               output_dir=str(tmp_path)))
    return res, dts


def test_run_hands_out_the_velocity_as_a_field(tmp_path):
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=1e-3, t_final=2e-3, output_dir=str(tmp_path)))
    assert type(res.u) is Field and res.u.slot == 1
    assert res.u.coeffs.shape == (res.u.space.n1,)
    assert type(res.p) is np.ndarray and res.p.shape == (res.u.space.n2,)


def test_fixed_dt_run_takes_t_final_over_dt_steps(tmp_path, monkeypatch):
    # 74 steps of 0.1 sum to a few ulps below 7.4; that gap must not
    # become a 75th sliver step (and an extra diagnostics row)
    res, dts = stub_run(tmp_path, monkeypatch, 0.1, 7.4)
    assert res.steps == 74 and not res.failed and not res.steady
    assert len(res.records) == 75
    assert dts == [0.1] * 74


@pytest.mark.parametrize("t_final,steps", [(0.02, 10), (0.04, 20)])
def test_fixed_dt_steps_all_take_dt(t_final, steps, tmp_path, monkeypatch):
    # here the time left before the last step, t_final - t, falls a few
    # ulps short of dt: that step takes dt all the same, so that one
    # gamma = dt*alpha/2 serves the whole run
    res, dts = stub_run(tmp_path, monkeypatch, 2e-3, t_final)
    assert res.steps == steps and dts == [2e-3] * steps
    assert res.t == pytest.approx(t_final, rel=1e-14)


def test_fixed_dt_run_ends_with_a_short_step(tmp_path, monkeypatch):
    res, dts = stub_run(tmp_path, monkeypatch, 0.3, 1.0)
    assert res.steps == 4 and dts[:3] == [0.3] * 3
    assert dts[3] == pytest.approx(0.1, rel=1e-12)
    assert res.t == pytest.approx(1.0, rel=1e-15)


def test_fixed_dt_run_builds_the_solvers_twice(tmp_path, monkeypatch):
    # (gamma, theta) = (0, 0) for the initial Leray projection, then one
    # dt * (alpha, nu) / 2 for every step of a fixed-dt viscous run, on
    # broken spaces and on one patch, which maps gamma to 0 and keeps theta
    builds = []

    class Recording(operators.TensorPoissonSolver):
        def __init__(self, ctx, gamma=0.0, theta=0.0):
            builds.append((gamma, theta))
            super().__init__(ctx, gamma, theta)

    monkeypatch.setattr(operators, "TensorPoissonSolver", Recording)
    for n_patches in ((2, 2), (1, 1)):
        builds.clear()
        cfg = SimulationConfig(case="lid_driven_cavity", degree=2,
                               n_patches=n_patches, n_cells=(4, 4), dt=2e-3,
                               t_final=0.02, output_dir=str(tmp_path))
        res = run(cfg)
        rcfg = cfg.resolve()[0]
        gamma = 0.5 * 2e-3 * rcfg.alpha if n_patches == (2, 2) else 0.0
        assert res.steps == 10 and not res.failed and rcfg.nu > 0.0
        assert builds == [(0.0, 0.0), (gamma, 0.5 * 2e-3 * rcfg.nu)], n_patches


def test_halved_retries_are_counted(tmp_path, monkeypatch):
    # every other first attempt fails and is retried at half dt
    calls = []

    def step(ctx, u, cfg, dt, guess=None):
        calls.append(dt)
        if len(calls) % 3 == 1:
            raise StepFailure("stub")
        return u + dt, np.zeros(ctx.space.n2), StepReport(1, 0.0)

    monkeypatch.setattr(runner, "cn_step", step)
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=0.1, t_final=0.6, output_dir=str(tmp_path)))
    assert not res.failed and res.t == pytest.approx(0.6, rel=1e-12)
    assert calls[:3] == [0.1, 0.05, 0.1]
    assert res.steps == 2 * res.retries == 8


def test_later_steps_start_from_the_quintic_through_the_last_states(
        tmp_path, monkeypatch):
    # a stub trajectory that is quintic in t, with attempts as in the retry
    # test above, so steps alternate between dt/2 and dt: step 1 and
    # every halved retry start from u^n (guess None), step 2 from the
    # linear extrapolation, and once the history can score order 5 (seven
    # states) the rule takes it and the guess is the quintic at t + dt
    rng = np.random.default_rng(7)
    coef = []      # u^0, then the t, ..., t^5 coefficient vectors
    t_now = [0.0]
    calls = []     # (step, u^n, dt, guess) of every attempt

    def quintic(t):
        return sum(t ** j * c for j, c in enumerate(coef))

    def step(ctx, u, cfg, dt, guess=None):
        if not coef:
            coef.append(u.copy())
            coef.extend(rng.standard_normal((5, u.size)))
        calls.append((len(t_now), u, dt, guess))
        if len(calls) % 3 == 1:
            raise StepFailure("stub")
        t_now.append(t_now[-1] + dt)
        return quintic(t_now[-1]), np.zeros(ctx.space.n2), StepReport(1, 0.0)

    monkeypatch.setattr(runner, "cn_step", step)
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=0.1, t_final=0.9, output_dir=str(tmp_path)))
    assert not res.failed and res.retries == 6 and res.steps == 12
    quintic_starts = 0
    for k, (n, un, dt, guess) in enumerate(calls, 1):
        t = t_now[n - 1]
        if n == 1 or k % 3 == 2:
            assert guess is None, k
        elif n == 2:
            # the last step took half of dt
            np.testing.assert_allclose(guess, un + 2.0 * (un - coef[0]),
                                       rtol=1e-12)
        elif n >= 7:
            want = quintic(t + dt)
            assert (np.linalg.norm(guess - want)
                    <= 1e-12 * np.linalg.norm(want)), k
            quintic_starts += 1
    assert quintic_starts == 6


def test_alternating_increments_drop_below_order_3(tmp_path, monkeypatch):
    # increments (-1)^n dt: the extrapolations of order 0, 1, ..., 5
    # miss u^n by 1, 2, ..., 32 increments, so from step 3 on the rule
    # takes order 0 and every step starts from u^n
    guesses = []

    def step(ctx, u, cfg, dt, guess=None):
        guesses.append(guess)
        sign = (-1) ** len(guesses)
        return u + sign * dt, np.zeros(ctx.space.n2), StepReport(1, 0.0)

    monkeypatch.setattr(runner, "cn_step", step)
    res = run(SimulationConfig(case="taylor_green", degree=1, n_cells=(4, 4),
                               dt=0.1, t_final=0.8, output_dir=str(tmp_path)))
    assert res.steps == 8 and not res.failed
    assert guesses[0] is None and guesses[1] is not None
    assert all(g is None for g in guesses[2:])


@pytest.mark.parametrize("case", ["lid_driven_cavity", "blasius"])
def test_every_guess_keeps_the_divergence_and_the_flux_of_u_n(
        case, tmp_path, monkeypatch):
    # walled runs: the weights of every extrapolation sum to one, so
    # each guess has Dt x = Dt u^n to roundoff (Dt has entries of 1/h)
    # and the Gamma_n flux DOFs of u^n (nonzero inflow data on the
    # Blasius edge) bit for bit
    starts = []

    def recording(ctx, u, cfg, dt, guess=None):
        starts.append((ctx, u, guess))
        return cn_step(ctx, u, cfg, dt=dt, guess=guess)

    monkeypatch.setattr(runner, "cn_step", recording)
    res = run(SimulationConfig(case=case, degree=2, n_patches=(2, 2),
                               n_cells=(4, 4), dt=2e-3, t_final=16e-3,
                               output_dir=str(tmp_path)))
    assert res.steps == 8 and not res.failed
    guessed = [(ctx, un, x) for ctx, un, x in starts if x is not None]
    assert len(guessed) == 7
    for ctx, un, x in guessed:
        flux = oracles.normal_projector(ctx).diagonal() == 0
        assert flux.any() and np.array_equal(x[flux], un[flux])
        assert (np.linalg.norm(ctx.space.div(x - un))
                <= 1e-12 * np.linalg.norm(un))
    if case == "blasius":
        assert np.abs(un[flux]).max() > 0


@pytest.mark.parametrize("case, kwargs", [
    ("taylor_green", dict(nu=0.0, n_cells=(16, 16), dt=1e-3)),
    ("lid_driven_cavity", dict(n_cells=(8, 8), dt=2e-3))])
def test_divergence_does_not_build_up_over_a_long_run(case, kwargs, tmp_path):
    # every sweep projects onto Dt u = 0, so the roundoff divergence of
    # u^n is not carried into the next step: after 300 steps div_l2 is
    # where it was at step 30. A sweep that kept Dt u^n instead lets it
    # grow to 1.1e-13 and 5.9e-14 here.
    res = run(SimulationConfig(case=case, degree=2, t_final=300 * kwargs["dt"],
                               output_dir=str(tmp_path), **kwargs))
    div = [r.div_l2 for r in res.records]
    assert res.steps == 300 and not res.failed
    assert div[-1] <= 1e-14 and div[-1] <= 2.0 * div[30], (div[30], div[-1])


def test_one_sweep_steps_keep_the_inviscid_energy(tmp_path):
    # nu = 0, so each step's fixed point keeps the energy; from step 6 on
    # a step's one sweep starts within picard_tol of it, and the relative
    # drift over 100 steps is 4.3e-15 (1.5e-13 with the predictor's order
    # capped at 3, whose guesses land further off)
    res = run(SimulationConfig(case="taylor_green", degree=2, nu=0.0,
                               n_cells=(16, 16), dt=1e-3, t_final=0.1,
                               output_dir=str(tmp_path)))
    e0 = res.records[0].energy
    assert res.steps == 100 and not res.failed
    assert all(r.picard_iterations == 1 for r in res.records[6:])
    assert max(abs(r.energy - e0) for r in res.records) <= 1e-13 * e0


def test_extrapolated_start_saves_sweeps(tmp_path, monkeypatch):
    key = ("taylor_green", (1, 1), (8, 8), 1e-3)
    res = run(golden_config(key, tmp_path))

    def from_un(ctx, u, cfg, dt, guess=None):
        return cn_step(ctx, u, cfg, dt=dt)

    monkeypatch.setattr(runner, "cn_step", from_un)
    ref = run(golden_config(key, tmp_path))
    sweeps = sum(r.picard_iterations for r in res.records[1:])
    assert sweeps < sum(r.picard_iterations for r in ref.records[1:])
    assert (np.linalg.norm(res.u.coeffs - ref.u.coeffs)
            <= 1e-9 * np.linalg.norm(ref.u.coeffs))


def test_snapshots_match_the_reference_writer(tmp_path, monkeypatch):
    # periodic, walled and Gamma_p runs in one process, each on its own
    # space and grid and with three snapshots, byte for byte against the
    # writer that formats every value on its own
    pairs = []

    def both(ctx, u, p, t, path, grid):
        pairs.append((write_snapshot(ctx, u, p, t, path, grid),
                      oracles.write_snapshot(ctx, u, p, t, path + ".ref",
                                             grid)))
        return pairs[-1][0]

    monkeypatch.setattr(runner, "write_snapshot", both)
    for case, grid in (("taylor_green", 16), ("lid_driven_cavity", 12),
                       ("poiseuille", 9)):
        res = run(SimulationConfig(
            case=case, degree=2, n_patches=(2, 2), n_cells=(4, 4), dt=1e-3,
            t_final=2e-3, snapshot_cadence=1, snapshot_grid=grid,
            output_dir=str(tmp_path / case)))
        assert len(res.snapshot_paths) == 3
    assert len(pairs) == 9
    for new, ref in pairs:
        with open(new, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read(), new


def test_snapshots_of_one_space_on_two_grids(tmp_path):
    ctx, case, cfg = build_simulation(SimulationConfig(
        case="lid_driven_cavity", degree=3, n_patches=(2, 1), n_cells=(3, 5),
        dt=1e-3))
    u = initialize(ctx, case.initial)
    u1, p, _ = cn_step(ctx, u, cfg, cfg.dt)
    for k, (state, pres, grid) in enumerate(
            ((u, np.zeros(ctx.space.n2), 8), (u1, p, 11), (u1, p, 8))):
        new = write_snapshot(ctx, state, pres, 0.5 * k,
                             str(tmp_path / f"new{k}"), grid)
        ref = oracles.write_snapshot(ctx, state, pres, 0.5 * k,
                                     str(tmp_path / f"ref{k}"), grid)
        with open(new, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read(), grid


def test_cavity_takes_steps_plain_picard_cannot(tmp_path):
    # plain Picard diverges in step 1 and in its halved retry here
    res = run(SimulationConfig(case="lid_driven_cavity", degree=2,
                               n_patches=(2, 2), n_cells=(16, 16), dt=5e-3,
                               t_final=4 * 5e-3, output_dir=str(tmp_path)))
    assert res.steps == 4 and not res.failed and res.retries == 0
    assert max(r.div_l2 for r in res.records) <= 1e-12


def test_poiseuille_takes_stiff_viscous_steps(tmp_path):
    # at nu = 1 and dt = 0.1 the explicit viscous part of the sweep
    # expands; without the viscous correction of cn_step this run failed
    # in step 2
    res = run(SimulationConfig(case="poiseuille", degree=2, n_cells=(8, 8),
                               dt=0.1, t_final=1.0, output_dir=str(tmp_path)))
    assert res.steps == 10 and not res.failed and res.retries == 0
    assert max(r.div_l2 for r in res.records) <= 1e-12


def test_cfl_dt_lies_on_a_rung_below_the_bound(tmp_path, monkeypatch):
    # each CFL step takes DT_MAX over a whole power of DT_RATIO, the
    # largest not above cfl_dt's bound, so few solvers are built
    bounds, dts, gammas = [], [], []
    cfl_dt = runner.cfl_dt

    def bound(ctx, u, cfg):
        bounds.append(cfl_dt(ctx, u, cfg))
        return bounds[-1]

    def step(ctx, u, cfg, dt, guess=None):
        dts.append(dt)
        return cn_step(ctx, u, cfg, dt=dt, guess=guess)

    class Recording(operators.TensorPoissonSolver):
        def __init__(self, ctx, gamma=0.0, theta=0.0):
            gammas.append(gamma)
            super().__init__(ctx, gamma, theta)

    monkeypatch.setattr(runner, "cfl_dt", bound)
    monkeypatch.setattr(runner, "cn_step", step)
    monkeypatch.setattr(operators, "TensorPoissonSolver", Recording)
    cfg = SimulationConfig(case="lid_driven_cavity", degree=2,
                           n_patches=(2, 2), n_cells=(4, 4), t_final=0.1,
                           output_dir=str(tmp_path))
    res = run(cfg)
    dt_max = runner.DT_MAX
    assert not res.failed and res.retries == 0 and len(dts) > 10
    # the last step may be shortened to land on t_final
    for b, dt in zip(bounds[:-1], dts[:-1]):
        k = np.log(dt_max / dt) / np.log(runner.DT_RATIO)
        assert abs(k - round(k)) <= 1e-9 and round(k) >= 0
        assert dt <= b < dt * runner.DT_RATIO
    # one build for the initial projection, at most one a rung after it
    assert len(gammas) <= len(set(dts)) + 1 < len(dts) // 2
    assert runner.rung(dt_max) == dt_max


# --- refinement studies --------------------------------------------------------

@pytest.mark.parametrize("case, n_patches, meshes, message", [
    ("taylor_green", (2, 2), [8, 9],
     "--meshes: 9 cells is not divisible by the patch counts 2,2"),
    ("lid_driven_cavity", (1, 1), [4, 8],
     "case 'lid_driven_cavity' has no exact solution"),
    ("taylor_green", (1, 1), [8, 2],
     "a periodic patch of degree 2 needs at least 4 cells, got 2"),
], ids=["indivisible-mesh", "no-exact-solution", "rejected-grid"])
def test_invalid_study_raises_before_any_run(case, n_patches, meshes,
                                             message, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(runner, "run", lambda cfg: calls.append(cfg))
    cfg = SimulationConfig(case=case, n_patches=n_patches,
                           output_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError) as err:
        runner.convergence_study(cfg, meshes, [2],
                                 out_path=str(tmp_path / "csv" / "c.csv"))
    assert str(err.value) == message
    assert calls == []
    assert list(tmp_path.iterdir()) == []


BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")

# Picard sweeps (at most) and TensorPoissonSolver builds of the
# benchmark's three workloads, of the CI's CFL cavity and of Poiseuille
# 8^2 at dt = 0.1, whose states near steady take low predictor orders
# (a fixed order 5 takes 184 sweeps there). A build is one solver; the
# context keeps it while gamma, and so dt on the CFL ladder, stays the
# same.
PINNED_RUNS = {"tg_advect": (29, 1), "cavity_picard": (92, 2),
               "dsl_output": (40, 2), "cfl_cavity": (177, 9),
               "poiseuille": (126, 2)}


def test_workloads_keep_their_sweeps_and_solver_builds(tmp_path,
                                                       monkeypatch):
    # the workload configs as benchmarks/worker.py builds them, with
    # t_final = steps * dt
    monkeypatch.syspath_prepend(BENCHMARKS)
    import worker
    from workloads import WORKLOADS

    configs = {name: worker.sim_config(
        {"config": w.config, "steps": w.steps}, str(tmp_path / name))
        for name, w in WORKLOADS.items()}
    configs["cfl_cavity"] = SimulationConfig(
        case="lid_driven_cavity", n_patches=(2, 2), n_cells=(8, 8),
        t_final=0.1, output_dir=str(tmp_path / "cfl_cavity"))
    configs["poiseuille"] = SimulationConfig(
        case="poiseuille", degree=2, n_cells=(8, 8), dt=0.1, t_final=3.0,
        output_dir=str(tmp_path / "poiseuille"))
    builds = []
    init = operators.TensorPoissonSolver.__init__

    def counted(self, ctx, gamma=0.0, theta=0.0):
        builds.append(gamma)
        init(self, ctx, gamma, theta)

    monkeypatch.setattr(operators.TensorPoissonSolver, "__init__", counted)
    assert list(configs) == list(PINNED_RUNS)
    for name, cfg in configs.items():
        builds.clear()
        res = run(cfg)
        sweeps = sum(r.picard_iterations for r in res.records[1:])
        most, n_builds = PINNED_RUNS[name]
        assert not res.failed and res.retries == 0, name
        assert sweeps <= most and len(builds) == n_builds, (name, sweeps,
                                                            len(builds))


def test_study_grids_are_resolved_in_run_order():
    grids, case = runner.study_grids(
        SimulationConfig(case="taylor_green", n_patches=(2, 1),
                         snapshot_cadence=5), [8, 16], [1, 2])
    assert case.name == "taylor_green"
    assert [(g.degree, g.n_cells) for g in grids] == [
        (1, (4, 8)), (1, (8, 16)), (2, (4, 8)), (2, (8, 16))]
    # resolved: the case's values fill what the config leaves unset
    assert all(g.nu == 0.0 and g.dt == 1e-4 and g.snapshot_cadence == 0
               for g in grids)


def test_study_orders_restart_per_degree_and_skip_failed_runs(monkeypatch):
    # a run's error is h^(degree + 1) up to a constant; the degree-2 run
    # on 8 cells fails
    def stub_run(cfg):
        n = cfg.n_cells[0]
        return SimpleNamespace(failed=(cfg.degree, n) == (2, 8), t=0.0,
                               u=SimpleNamespace(space=None,
                                                 err=n ** -(cfg.degree + 1)))

    monkeypatch.setattr(runner, "run", stub_run)
    monkeypatch.setattr(runner, "l2_error", lambda space, u, f: u.err)
    rows = runner.convergence_study(SimulationConfig(case="taylor_green"),
                                    [4, 8, 16], [1, 2])
    assert [(deg, n) for deg, n, *_ in rows] == [
        (1, 4), (1, 8), (1, 16), (2, 4), (2, 8), (2, 16)]
    orders = [order for *_, order in rows]
    assert np.isnan(orders[0]) and np.isnan(orders[3])
    assert orders[1] == pytest.approx(2.0) and orders[2] == pytest.approx(2.0)
    assert np.isnan(rows[4][3]) and np.isnan(orders[4])
    assert np.isnan(orders[5])       # next to the failed run
