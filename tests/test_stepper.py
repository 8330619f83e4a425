"""Stepper settings, the midpoint sweep (pressure solve and velocity
update), midpoint stepping."""
import re
import weakref

import numpy as np
import pytest

from conftest import PI, context, rand_coeffs, space
from oracles import (assembled, cg_solve, constant_v1, normal_projector,
                     picard_step)
from flowforms import stepper
from flowforms.cases import case_library
from flowforms.config import SimulationConfig
from flowforms.operators import (
    EdgeBC,
    OperatorContext,
    advection_residual,
    viscous_form,
    viscous_residual,
    weak_curl_with_tangential_bc,
)
from flowforms.runner import build_simulation
from flowforms.spaces import Field, eval_field, l2_project
from flowforms.stepper import (
    StepFailure,
    cn_step,
    initialize,
    leray_project,
    midpoint_sweep,
    set_normal_data,
)

TG = case_library("taylor_green")


def energy(s, u):
    return 0.5 * float(u @ (assembled(s).M1 @ u))


def momentum(s, u):
    Mu = assembled(s).M1 @ u
    return np.array([constant_v1(s, 1.0, 0.0) @ Mu,
                     constant_v1(s, 0.0, 1.0) @ Mu])


def stepper_cfg(**kwargs):
    """Resolved config with the given stepper settings; dt defaults to 1e-3
    and nu, alpha to zero (the case defaults would add a penalty)."""
    return SimulationConfig(**{"dt": 1e-3, "nu": 0.0, "alpha": 0.0,
                               **kwargs}).resolve()[0]


def tg_state(ctx):
    return initialize(ctx, TG.initial)


def sweep_pressure(ctx, u, cfg):
    """Pressure of one midpoint sweep at the state u (u^n = iterate = u)."""
    return midpoint_sweep(ctx, cfg, u, u, cfg.dt)[1]


def pressure_residual(solver, p, b):
    """Relative residual of a pressure solve, through the solver's own
    composed-operator matvec."""
    return np.linalg.norm(solver.matvec(p) - b) / np.linalg.norm(b)


# --- configuration validation ------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(dt=0.0), "dt"),
    (dict(picard_tol=-1.0), "picard_tol"),
    (dict(nu=-0.1), "nu"),
    (dict(alpha=-5.0), "alpha"),
    (dict(degree=-1), "degree"),
    (dict(domain=(1.0, 0.0, 0.0, 1.0)), "empty interval"),
    (dict(t_final=0.0), "t_final"),
    (dict(t_final=-1.0), "t_final"),
    (dict(snapshot_cadence=-1), "snapshot_cadence"),
    (dict(snapshot_grid=0), "snapshot_grid"),
    (dict(degree=None), "degree"),
    (dict(n_patches=(0, 1)), "n_patches"),
    (dict(n_cells=(4, 0)), "n_cells"),
    # NaN passes every ordered comparison's negation, inf every bound below
    (dict(dt=np.nan), "^dt must be positive and finite"),
    (dict(dt=np.inf), "^dt must be positive and finite"),
    (dict(degree=np.nan), "degree must be an integer >= 0"),
    (dict(t_final=np.nan), "t_final must be positive and finite"),
    (dict(t_final=np.inf), "t_final must be positive and finite"),
    (dict(picard_tol=np.nan), "picard_tol must be positive and finite"),
    (dict(snapshot_cadence=np.nan), "snapshot_cadence must be an integer"),
    (dict(picard_tol=np.inf), "picard_tol must be positive and finite"),
    (dict(nu=np.nan), "nu must be nonnegative and finite"),
    (dict(nu=np.inf), "nu must be nonnegative and finite"),
    (dict(alpha=np.nan), "alpha must be nonnegative and finite"),
    (dict(alpha=-np.inf), "alpha must be nonnegative and finite"),
    # a non-integer count from the Python API (a file's parser is int);
    # a bool is an Integral too
    (dict(snapshot_grid=np.inf), "^snapshot_grid must be an integer >= 1$"),
    (dict(snapshot_cadence=2.5), "^snapshot_cadence must be an integer >= 0$"),
    (dict(snapshot_cadence=True), "^snapshot_cadence must be an integer >= 0$"),
    (dict(degree=2.0), "^degree must be an integer >= 0$"),
    (dict(n_cells=(4.5, 4)), "^n_cells must be integers >= 1$"),
    (dict(n_patches=(True, 1)), "^n_patches must be integers >= 1$"),
])
def test_stepper_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SimulationConfig(**kwargs).resolve()


def test_stepper_config_defaults_are_valid():
    cfg, _ = SimulationConfig().resolve()
    assert cfg.dt > 0 and cfg.picard_tol > 0


# --- pressure solve inside the sweep -----------------------------------------

@pytest.mark.parametrize("mode", ["periodic", "mixed"])
def test_pressure_of_rest_state_is_zero(mode):
    ctx = context(2, 4, 1, mode)
    p = sweep_pressure(ctx, np.zeros(ctx.space.n1), stepper_cfg())
    assert np.max(np.abs(p)) <= 1e-12


def test_pressure_of_uniform_flow_is_zero():
    ctx = context(2, 4, 1, "periodic")
    u = constant_v1(ctx.space, 1.4, -0.6)
    p = sweep_pressure(ctx, u, stepper_cfg())
    assert np.max(np.abs(p)) <= 1e-11


@pytest.mark.parametrize("mode,gamma", [("mixed", 0.0), ("periodic", 0.0)])
def test_pressure_system_is_symmetric(mode, gamma):
    ctx = context(2, 4, 1, mode)
    solver = ctx.poisson_solver(gamma)
    q = rand_coeffs(ctx.space, 2, seed=1)
    r = rand_coeffs(ctx.space, 2, seed=2)
    lhs = float(q @ solver.matvec(r))
    rhs = float(r @ solver.matvec(q))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_pressure_system_symmetric_with_penalization():
    ctx = OperatorContext(space(2, 4, 2, periodic=True))
    solver = ctx.poisson_solver(3.7)
    q = rand_coeffs(ctx.space, 2, seed=3)
    r = rand_coeffs(ctx.space, 2, seed=4)
    lhs = float(q @ solver.matvec(r))
    rhs = float(r @ solver.matvec(q))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_solver_caches_keep_only_the_latest_gamma():
    # under error control each new dt rung brings a new gamma = dt*alpha/2
    ctx = OperatorContext(space(2, 4, 2, periodic=True))
    first = weakref.ref(ctx.poisson_solver(1.0))
    first_m1 = weakref.ref(ctx.poisson_solver(1.0).m1_solve)
    for gamma in (2.0, 3.0):
        ctx.poisson_solver(gamma)
    assert first() is None and first_m1() is None
    assert ctx.poisson_solver(3.0) is ctx.poisson_solver(3.0)


def test_zero_penalization_maps_every_gamma_to_zero():
    # one patch: the penalization is zero, so every sweep of a run reuses
    # the solver that initialize built; 2x2 patches: gamma is a new solver
    one = OperatorContext(space(2, 4, 1, periodic=True))
    solver = one.poisson_solver(0.0)
    assert one.poisson_solver(0.5) is solver and solver.gamma == 0.0
    two = OperatorContext(space(2, 4, 2, periodic=True))
    solver = two.poisson_solver(0.0)
    assert two.poisson_solver(0.5) is not solver
    assert two.poisson_solver(0.5).gamma == 0.5


@pytest.mark.parametrize("which,gamma", [
    ("mixed", 0.0), ("periodic", 0.0), ("broken", 3.7)])
def test_pressure_solve_residual_through_matvec(which, gamma):
    ctx = (OperatorContext(space(2, 4, 2, periodic=True)) if which == "broken"
           else context(2, 4, 1, which))
    solver = ctx.poisson_solver(gamma)
    b = rand_coeffs(ctx.space, 2, seed=5)
    if solver.singular:
        # the symmetric system's range is orthogonal to its constant kernel
        ones = np.ones(ctx.space.n2)
        b = b - ones * (ones @ b) / (ones @ ones)
    assert pressure_residual(solver, solver.solve(b), b) <= 1e-12


def test_singular_pressure_solve_returns_zero_mean():
    # nc=8: on 4 cells the wavenumber-2 advection aliases to a curl and
    # the pressure degenerates to zero
    ctx = context(2, 8, 1, "periodic")
    s = ctx.space
    u = tg_state(ctx)
    p = sweep_pressure(ctx, u, stepper_cfg())
    m1_solve = ctx.poisson_solver().m1_solve
    b = assembled(s).M2 @ s.div(m1_solve(advection_residual(ctx, u, u)))
    assert pressure_residual(ctx.poisson_solver(), p, b) <= 1e-12
    mean = float(np.ones(ctx.space.n2) @ (assembled(ctx.space).M2 @ p))
    assert abs(mean) <= 1e-11 * max(1.0, np.max(np.abs(p)))
    assert np.max(np.abs(p)) > 1e-3


def test_direct_and_cg_pressure_agree():
    # reference: matrix-free CG on the solver's own operator; the system
    # is singular, so CG runs on the mean-free right-hand side and its
    # result is shifted to zero (M2-weighted) mean like the direct solve
    ctx = context(2, 4, 1, "periodic")
    s = ctx.space
    u = tg_state(ctx)
    p_dir = sweep_pressure(ctx, u, stepper_cfg())
    m1_solve = ctx.poisson_solver().m1_solve
    b = assembled(s).M2 @ s.div(m1_solve(advection_residual(ctx, u, u)))
    ones = np.ones(s.n2)
    p_cg, rep = cg_solve(ctx.poisson_solver().matvec,
                         b - ones * (ones @ b) / (ones @ ones), tol=1e-13)
    p_cg -= ones * (ones @ (assembled(s).M2 @ p_cg)) / (ones @ (assembled(s).M2 @ ones))
    assert rep.converged
    assert np.max(np.abs(p_dir - p_cg)) <= 1e-9 * max(1.0, np.max(np.abs(p_dir)))


# --- velocity update of the sweep ---------------------------------------------

def test_velocity_update_keeps_divergence_free():
    ctx = context(2, 4, 1, "periodic")
    cfg = stepper_cfg(dt=1e-3, nu=0.01)
    u_n = tg_state(ctx)
    u_it = leray_project(ctx, rand_coeffs(ctx.space, 1, seed=6))
    u1, _ = midpoint_sweep(ctx, cfg, u_n, u_it, cfg.dt)
    assert np.max(np.abs(ctx.space.div(u1))) <= 1e-10 * max(1.0, np.max(np.abs(u1)))


def test_velocity_update_momentum_with_penalization():
    # the implicit penalty solve keeps momentum: constants are conforming,
    # so e^T (M1 + gamma Pen) = e^T M1
    ctx = OperatorContext(space(2, 4, 2, periodic=True))
    cfg = stepper_cfg(dt=1e-3, nu=0.02, alpha=50.0)
    u_n = initialize(ctx, TG.initial)
    u_it = leray_project(ctx, rand_coeffs(ctx.space, 1, seed=7))
    u1, _ = midpoint_sweep(ctx, cfg, u_n, u_it, cfg.dt)
    drift = momentum(ctx.space, u1) - momentum(ctx.space, u_n)
    assert np.max(np.abs(drift)) <= 1e-11 * max(1.0, np.max(np.abs(u_n)))


def test_velocity_update_satisfies_momentum_equation():
    # re-multiplying by M1 recovers the assembled midpoint equation on the
    # velocities with zero Gamma_n flux: one periodic patch at alpha = 0,
    # and 2x2 Poiseuille patches, where the penalty alpha Pen u^n and the
    # pressure data b enter the sweep
    poiseuille, _, pcfg = build_simulation(SimulationConfig(
        case="poiseuille", degree=2, n_patches=(2, 2), n_cells=(4, 4),
        alpha=50.0, dt=1e-3))
    u_p = leray_project(poiseuille, set_normal_data(
        poiseuille, rand_coeffs(poiseuille.space, 1, seed=25)))
    periodic = context(2, 4, 1, "periodic")
    for ctx, cfg, u_n in ((periodic, stepper_cfg(dt=1e-6, nu=0.05),
                           tg_state(periodic)),
                          (poiseuille, pcfg, u_p)):
        u1, p = midpoint_sweep(ctx, cfg, u_n, u_n, cfg.dt)
        M = assembled(ctx.space)
        R = (advection_residual(ctx, u_n, u_n)
             + cfg.nu * viscous_residual(ctx, u_n))
        lhs = (M.M1 @ ((u1 - u_n) / cfg.dt)
               + cfg.alpha * M.penalization @ (0.5 * (u1 + u_n))
               + R - ctx.f_vec + ctx.b_pressure)
        rhs = ctx.space.div_transpose(M.M2 @ p)
        free = normal_projector(ctx).diagonal() != 0.0
        assert (np.max(np.abs(lhs - rhs)[free])
                <= 1e-9 * max(1.0, np.max(np.abs(R))))


# --- midpoint step -----------------------------------------------------------

def test_cn_step_of_rest_state_converges_immediately():
    ctx = context(2, 4, 1, "periodic")
    cfg = stepper_cfg(dt=1e-3, picard_tol=1e-12)
    u1, p, rep = cn_step(ctx, np.zeros(ctx.space.n1), cfg, cfg.dt)
    assert rep.picard_iterations == 1
    assert np.max(np.abs(u1)) == 0.0
    assert np.max(np.abs(p)) <= 1e-13


def test_cn_step_from_its_own_solution_takes_one_sweep():
    # the guess only moves where the iteration starts: started at the
    # fixed point, the step stops after the sweep that confirms it
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=1e-2, picard_tol=1e-12)
    u = tg_state(ctx)
    u1, p1, rep1 = cn_step(ctx, u, cfg, cfg.dt)
    u2, p2, rep2 = cn_step(ctx, u, cfg, cfg.dt, guess=u1)
    assert rep1.picard_iterations > 1 and rep2.picard_iterations == 1
    assert (np.linalg.norm(u2 - u1)
            <= 1e-13 * np.linalg.norm(u1))


def test_cn_step_conserves_energy_inviscid():
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=1e-3, nu=0.0, picard_tol=1e-12)
    u = tg_state(ctx)
    E0 = energy(ctx.space, u)
    m0 = momentum(ctx.space, u)
    for _ in range(5):
        u, p, rep = cn_step(ctx, u, cfg, cfg.dt)
    assert abs(energy(ctx.space, u) - E0) <= 1e-10 * E0
    assert np.max(np.abs(momentum(ctx.space, u) - m0)) <= 1e-11 * max(1.0, E0)
    assert np.max(np.abs(ctx.space.div(u))) <= 1e-10


def test_cn_step_viscous_dissipation_identity():
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=1e-3, nu=0.05, picard_tol=1e-11)
    u = tg_state(ctx)
    for _ in range(3):
        E0 = energy(ctx.space, u)
        u1, p, rep = cn_step(ctx, u, cfg, cfg.dt)
        ub = 0.5 * (u + u1)
        drop = E0 - energy(ctx.space, u1)
        model = cfg.dt * cfg.nu * viscous_form(ctx, ub, ub)
        assert drop > 0
        assert abs(drop - model) <= 1e-8 * drop
        u = u1


def test_cn_step_penalization_dissipation_identity():
    ctx = OperatorContext(space(2, 4, 2, periodic=True))
    cfg = stepper_cfg(dt=5e-4, nu=0.0, alpha=100.0, picard_tol=1e-11)
    u = initialize(ctx, TG.initial)
    for _ in range(3):
        E0 = energy(ctx.space, u)
        u1, p, rep = cn_step(ctx, u, cfg, cfg.dt)
        ub = 0.5 * (u + u1)
        drop = E0 - energy(ctx.space, u1)
        model = cfg.dt * cfg.alpha * float(ub @ ctx.space.penalize(ub))
        assert drop >= 0
        # the energy difference itself carries ~eps*E0 subtraction noise
        assert abs(drop - model) <= 1e-8 * drop + 5e-15 * E0
        u = u1
        assert np.max(np.abs(ctx.space.div(u))) <= 1e-10


def test_cn_step_bounded_walls_stays_divergence_free():
    ctx = context(2, 4, 1, "walls")
    cfg = stepper_cfg(dt=1e-3, nu=0.01, picard_tol=1e-11)
    u = initialize(ctx, lambda X, Y: (np.sin(X) * np.cos(Y),
                                      -np.cos(X) * np.sin(Y)))
    for _ in range(3):
        u, p, rep = cn_step(ctx, u, cfg, cfg.dt)
    assert np.max(np.abs(ctx.space.div(u))) <= 1e-10


def _box_flow(X, Y):
    return np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)


@pytest.mark.parametrize("p,npat", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_gradient_forcing_leaves_walled_velocity_alone(p, npat):
    # pressure robustness: with u.n imposed on every edge, a gradient force
    # 100 grad(x^2 y + y^3) goes into the pressure and leaves u unchanged
    bc = {e: EdgeBC("normal", 0.0) for e in ("left", "right", "bottom")}
    bc["top"] = EdgeBC("normal", 0.0, tangential=0.0)
    cfg = stepper_cfg(dt=1e-3, nu=0.05, alpha=10.0)
    sp_ = space(p, 4, npat, periodic=False)
    finals = []
    for forcing in (None, lambda X, Y: (200.0 * X * Y,
                                        100.0 * (X**2 + 3.0 * Y**2))):
        ctx = OperatorContext(sp_, bc=bc, forcing=forcing)
        u = initialize(ctx, _box_flow)
        for _ in range(5):
            u = cn_step(ctx, u, cfg, cfg.dt)[0]
        finals.append(u)
    moved = np.linalg.norm(finals[1] - finals[0]) / np.linalg.norm(finals[0])
    assert moved <= 1e-10


@pytest.mark.parametrize("npat", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cn_step_conserves_energy_on_free_slip_walls(p, npat):
    # inviscid and unpenalised with u.n = 0 on every edge: the advection
    # form is skew, so the midpoint solution keeps the energy exactly
    ctx = OperatorContext(space(p, 8 // npat, npat, periodic=False),
                          bc={e: EdgeBC("normal", 0.0)
                              for e in ("left", "right", "bottom", "top")})
    cfg = stepper_cfg(dt=1e-2, picard_tol=1e-12)
    u = initialize(ctx, lambda X, Y: (np.cos(X) * np.sin(Y) ** 2 + Y,
                                      np.sin(X + 2.0 * Y)))
    E0 = energy(ctx.space, u)
    for _ in range(20):
        u = cn_step(ctx, u, cfg, cfg.dt)[0]
    assert abs(energy(ctx.space, u) - E0) <= 1e-13 * E0


def test_cn_step_viscous_dissipation_identity_walls():
    # free-slip walls (u.n = 0, no tangential data): the same energy
    # identity as on periodic domains, since u-bar is a test function
    ctx = OperatorContext(space(1, 4, 1, periodic=False),
                          bc={e: EdgeBC("normal", 0.0)
                              for e in ("left", "right", "bottom", "top")})
    cfg = stepper_cfg(dt=1e-3, nu=0.05, picard_tol=1e-11)
    u = initialize(ctx, _box_flow)
    E0 = energy(ctx.space, u)
    u1 = cn_step(ctx, u, cfg, cfg.dt)[0]
    ub = 0.5 * (u + u1)
    drop = E0 - energy(ctx.space, u1)
    model = cfg.dt * cfg.nu * viscous_form(ctx, ub, ub)
    assert drop > 0
    assert abs(drop - model) <= 1e-8 * drop


def test_cn_step_needs_dt_under_cfl_control():
    # dt is the caller's to pick (an error-controlled config's is None):
    # cn_step has no fallback to the config's, and a call without one
    # names it
    ctx, case, cfg = build_simulation(SimulationConfig(
        case="lid_driven_cavity", n_cells=(4, 4)))
    u = initialize(ctx, case.initial)
    assert cfg.dt is None
    with pytest.raises(TypeError, match="'dt'"):
        cn_step(ctx, u, cfg)
    assert np.isfinite(cn_step(ctx, u, cfg, dt=1e-3)[0]).all()


def test_cn_step_raises_on_stalled_iteration(monkeypatch):
    monkeypatch.setattr(stepper, "PICARD_MAX_ITER", 2)
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=0.5, picard_tol=1e-12)
    u = tg_state(ctx)
    with pytest.raises(StepFailure, match=r"no Picard convergence in 2 "
                       r"iterations \(last update .*, smallest .* at sweep "
                       r"[12]\)"):
        cn_step(ctx, u, cfg, cfg.dt)


def test_cn_step_reports_divergence_instead_of_overflowing():
    # a far-too-large advective step (the double shear layer at dt = 2,
    # nu = 0, where no viscous correction applies) makes the sweep expand
    # faster than Anderson mixing can undo; the stepper must fail cleanly
    # before the quadrature overflows
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=2.0, nu=0.0, picard_tol=1e-10)
    u = initialize(ctx, case_library("double_shear_layer").initial)
    with pytest.raises(StepFailure, match="diverged"):
        cn_step(ctx, u, cfg, cfg.dt)


def test_stall_near_roundoff_reports_the_smallest_update(monkeypatch):
    # the iteration comes within 1e-12 of the fixed point in a few sweeps
    # (it converges at picard_tol = 1e-12), then wanders at its roundoff
    # floor, some 3e-13 here, which a tolerance of 1e-14 lies well below:
    # the failure names the smallest update
    monkeypatch.setattr(stepper, "PICARD_MAX_ITER", 25)
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=0.5, nu=1.0, picard_tol=1e-14)
    u = tg_state(ctx)
    with pytest.raises(StepFailure, match="no Picard convergence in 25") as err:
        cn_step(ctx, u, cfg, cfg.dt)
    found = re.search(r"smallest (\S+) at sweep (\d+)", str(err.value))
    assert found, str(err.value)
    assert float(found[1]) < 1e-11 and 1 < int(found[2]) <= 25


def test_anderson_converges_where_picard_diverges():
    # the sweep map expands here: plain Picard diverges, the mixed
    # iteration reaches the midpoint solution, which the discrete
    # dissipation identity certifies (it holds only at the fixed point)
    ctx = context(2, 8, 1, "periodic")
    cfg = stepper_cfg(dt=0.5, nu=1.0, picard_tol=1e-10)
    u = tg_state(ctx)
    with pytest.raises(StepFailure, match="diverged"):
        picard_step(ctx, u, cfg, cfg.dt)
    u1, p, rep = cn_step(ctx, u, cfg, cfg.dt)
    assert rep.final_update_norm < cfg.picard_tol
    ub = 0.5 * (u + u1)
    drop = energy(ctx.space, u) - energy(ctx.space, u1)
    model = cfg.dt * cfg.nu * viscous_form(ctx, ub, ub)
    assert drop > 0
    assert abs(drop - model) <= 1e-8 * drop
    assert np.max(np.abs(ctx.space.div(u1))) <= 1e-10


@pytest.mark.parametrize("where", ["one DOF", "everywhere"])
def test_cn_step_reports_a_non_finite_start_as_step_failure(where):
    # a NaN anywhere in u^n, with or without a finite guess, ends the step
    # in StepFailure, which runner.run retries and convergence_study
    # catches, and not in an error from a mass solve inside the sweep
    cfg, case = SimulationConfig(case="lid_driven_cavity", n_patches=(2, 2),
                                 n_cells=(4, 4), dt=2e-3).resolve()
    x0, x1, y0, y1 = cfg.domain
    ctx = OperatorContext(space(2, 4, 2, periodic=False,
                                bounds=((x0, x1), (y0, y1))), bc=cfg.boundary)
    u = initialize(ctx, case.initial)
    un = u.copy()
    un[un.size // 3 if where == "one DOF" else slice(None)] = np.nan
    for guess in (None, u):
        with pytest.raises(StepFailure, match="diverged"):
            cn_step(ctx, un, cfg, cfg.dt, guess=guess)


def test_cn_step_warns_on_divergent_start():
    ctx = context(2, 4, 1, "periodic")
    cfg = stepper_cfg(dt=1e-4, picard_tol=1e-9)
    u = rand_coeffs(ctx.space, 1, seed=8)
    with pytest.warns(RuntimeWarning, match="divergence"):
        cn_step(ctx, u, cfg, cfg.dt)


# --- initialization ----------------------------------------------------------

def test_set_normal_data_projects_edge_traces():
    bc = {
        "left": EdgeBC("normal", value=lambda y: np.sin(y), tangential=0.0),
        "right": EdgeBC("normal", 0.0, tangential=0.0),
        "bottom": EdgeBC("normal", 0.0, tangential=0.0),
        "top": EdgeBC("pressure", 0.0),
    }
    ctx = OperatorContext(space(2, 4, 1, periodic=False), bc=bc)
    s = ctx.space
    u = Field(s, 1, set_normal_data(ctx, np.zeros(s.n1)))
    # edge trace satisfies the 1D projection moments of the data
    from oracles import line_basis
    import oracles
    pts, w = oracles.gauss_cells(s.line_y.l2.breakpoints, 10)
    E = line_basis(s.line_y.l2, pts)
    ux_edge = eval_field(u, np.array([0.0]), pts)[0, :, 0]
    # u.n = -u_x = sin(y) on the left edge
    moments = E.T @ (w * (ux_edge + np.sin(pts)))
    assert np.max(np.abs(moments)) <= 1e-12
    # zero data on the bottom edge zeroes the trace
    xs = np.linspace(0.3, PI - 0.3, 5)
    uy_edge = eval_field(u, xs, np.array([0.0]))[:, 0, 1]
    assert np.max(np.abs(uy_edge)) <= 1e-13


@pytest.mark.parametrize("npat,nc", [(1, 4), (2, 2)])
@pytest.mark.parametrize("name", ["lid_driven_cavity", "poiseuille", "blasius"])
def test_set_normal_data_matches_the_assembled_projector(name, npat, nc):
    case = case_library(name)
    x0, x1, y0, y1 = case.domain
    ctx = OperatorContext(space(2, nc, npat, periodic=False,
                                bounds=((x0, x1), (y0, y1))), bc=case.boundary)
    v = rand_coeffs(ctx.space, 1, seed=12)
    Pn = normal_projector(ctx)
    assert np.array_equal(set_normal_data(ctx, v),
                          Pn @ v + ctx.normal_data)
    assert (Pn.diagonal() == 0.0).any()


def test_leray_project_removes_divergence_only():
    ctx = context(2, 4, 1, "periodic")
    u = rand_coeffs(ctx.space, 1, seed=9)
    u1 = leray_project(ctx, u)
    assert np.max(np.abs(ctx.space.div(u1))) <= 1e-10 * max(1.0, np.max(np.abs(u)))
    u2 = leray_project(ctx, u1)
    assert np.max(np.abs(u2 - u1)) <= 1e-10


def test_leray_project_preserves_flux_data():
    ctx = context(2, 4, 1, "walls")
    u = set_normal_data(ctx, rand_coeffs(ctx.space, 1, seed=10))
    u1 = leray_project(ctx, u)
    fs = normal_projector(ctx).diagonal() == 0.0
    assert np.any(fs)
    assert np.array_equal(u1[fs], u[fs])


def test_initialize_taylor_green():
    ctx = context(2, 8, 1, "periodic")
    u = initialize(ctx, TG.initial)
    assert np.max(np.abs(ctx.space.div(u))) <= 1e-10
    from flowforms.diagnostics import l2_error
    assert l2_error(ctx.space, Field(ctx.space, 1, u), TG.initial) <= 5e-2


def test_initialize_enforces_wall_data():
    ctx = context(2, 4, 1, "walls")
    u = initialize(ctx, TG.initial)
    ys = np.linspace(0.2, PI - 0.2, 6)
    vals = eval_field(Field(ctx.space, 1, u), np.array([0.0, PI]), ys)
    assert np.max(np.abs(vals[..., 0])) <= 1e-13


@pytest.mark.parametrize("name", ["l2_project", "set_normal_data",
                                  "leray_project", "initialize",
                                  "weak_curl_with_tangential_bc", "cn_step"])
def test_layers_pass_plain_coefficient_arrays(name):
    # coefficients go between the layers as float64 arrays of the slot's
    # size; only runner.run tags its result with the space
    ctx = context(2, 4, 1, "walls")
    s, u = ctx.space, initialize(ctx, TG.initial)
    slot, out = {
        "l2_project": lambda: (1, l2_project(s, 1, TG.initial)),
        "set_normal_data": lambda: (1, set_normal_data(ctx, u)),
        "leray_project": lambda: (1, leray_project(ctx, u)),
        "initialize": lambda: (1, u),
        "weak_curl_with_tangential_bc":
            lambda: (0, weak_curl_with_tangential_bc(ctx, u)),
        "cn_step": lambda: (1, cn_step(ctx, u, stepper_cfg(), 1e-3)[0]),
    }[name]()
    assert type(out) is np.ndarray and out.dtype == np.float64
    assert out.shape == (s.dim(slot),)
