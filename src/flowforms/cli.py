"""Command line interface: `flowforms run` and `flowforms converge`.

Both commands build one SimulationConfig (from an optional INI file plus
the command line options) and hand it to the runner.

Environment variables: FLOWFORMS_OUTPUT_DIR overrides the output
directory. The BLAS thread count follows the standard variables
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS, which must be set before the
process starts.
"""

import os

import click


def _load(config_path, kwargs, resolve=None):
    """The config of a command, checked by resolve(cfg) or cfg.resolve();
    an invalid value is a usage error (exit code 2, one line), not a traceback."""
    try:
        cfg = _build_config(config_path, kwargs)
        cfg.resolve() if resolve is None else resolve(cfg)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    return cfg


def _int_list(option, text, least):
    """The comma-separated integers >= least of --option; anything else is
    a usage error."""
    try:
        values = [int(v) for v in text.split(",")]
        if min(values) >= least:
            return values
    except ValueError:
        pass
    raise click.UsageError(f"--{option} must be comma-separated integers "
                           f">= {least}, got {text!r}")


def _build_config(config_path, kwargs):
    from dataclasses import replace
    from .config import load_config, SimulationConfig

    cfg = load_config(config_path) if config_path else SimulationConfig()
    updates = {}
    mapping = {"dt": "dt", "degree": "degree", "alpha": "alpha", "nu": "nu",
               "tol": "picard_tol", "out": "output_dir", "case": "case",
               "t_final": "t_final"}
    for opt, attr in mapping.items():
        if kwargs.get(opt) is not None:
            updates[attr] = kwargs[opt]
    for opt, attr in (("nc", "n_cells"), ("np", "n_patches")):
        if kwargs.get(opt) is not None:
            from .config import _parse_pair
            updates[attr] = _parse_pair(kwargs[opt], int)
    env_out = os.environ.get("FLOWFORMS_OUTPUT_DIR")
    if env_out and kwargs.get("out") is None:
        updates["output_dir"] = env_out
    return replace(cfg, **updates)


_shared = [
    click.option("--dt", type=float, default=None, help="fixed time step"),
    click.option("--p", "--degree", "degree", type=int, default=None,
                 help="spline degree of the pressure space"),
    click.option("--nc", type=str, default=None, help="cells per patch"),
    click.option("--np", "np_", type=str, default=None, help="patch counts"),
    click.option("--alpha", type=float, default=None,
                 help="interface penalization strength"),
    click.option("--nu", type=float, default=None, help="viscosity"),
    click.option("--tol", type=float, default=None, help="Picard tolerance"),
    click.option("--out", type=str, default=None, help="output directory"),
    click.option("--case", type=str, default=None, help="case name"),
    click.option("--t-final", "t_final", type=float, default=None),
]


def _with_shared(cmd):
    for opt in reversed(_shared):
        cmd = opt(cmd)
    return cmd


@click.group()
def main():
    """Structure-preserving incompressible flow solver on spline spaces.

    FLOWFORMS_OUTPUT_DIR sets the default output directory. Set
    OPENBLAS_NUM_THREADS / OMP_NUM_THREADS to cap the BLAS threads."""


@main.command("run")
@click.argument("config", type=click.Path(exists=True), required=False)
@_with_shared
@click.option("--quiet", is_flag=True, help="suppress per-step output")
def run_cmd(config, quiet, np_=None, **kwargs):
    """Run one simulation described by CONFIG (or case defaults)."""
    kwargs["np"] = np_
    cfg = _load(config, kwargs)
    from .runner import run

    def progress(step, t, rec):
        if not quiet and step % 50 == 0:
            click.echo(f"step {step:6d}  t={t:.6f}  E={rec.energy:.9e}  "
                       f"div={rec.div_l2:.3e}  it={rec.picard_iterations}")

    import time
    t0 = time.perf_counter()
    res = run(cfg, progress=progress)
    wall = time.perf_counter() - t0
    line = (f"finished: t={res.t:.6f} steps={res.steps} steady={res.steady} "
            f"retries={res.retries} wall={wall:.2f}s "
            f"diagnostics={res.diagnostics_path}")
    rcfg, case = cfg.resolve()
    if case.exact is not None and not res.failed:
        from .diagnostics import l2_error
        err = l2_error(res.u.space, res.u,
                       lambda X, Y: case.exact(X, Y, res.t, rcfg.nu))
        line += f" final_error={err:.6e}"
    click.echo(line)
    if res.failed:
        click.echo("step failure: time stepping aborted", err=True)
        raise SystemExit(1)


@main.command("converge")
@click.argument("config", type=click.Path(exists=True), required=False)
@_with_shared
@click.option("--meshes", type=str, default="8,16,32",
              help="total cells per direction, comma separated")
@click.option("--degrees", type=str, default="2",
              help="spline degrees, comma separated")
@click.option("--csv", "csv_path", type=str, default=None,
              help="write results to this CSV file")
def converge_cmd(config, meshes, degrees, csv_path, np_=None, **kwargs):
    """Mesh-refinement study against the case's exact solution."""
    kwargs["np"] = np_
    from .runner import convergence_study, study_case
    cfg = _load(config, kwargs, study_case)

    mesh_list = _int_list("meshes", meshes, least=1)
    deg_list = _int_list("degrees", degrees, least=0)
    npx, npy = cfg.n_patches
    for n in mesh_list:
        if n % npx or n % npy:
            raise click.UsageError(
                f"--meshes: {n} cells is not divisible by the patch counts "
                f"{npx},{npy}")
        for deg in deg_list:     # every grid of the study loads, too
            _load(config, {**kwargs, "degree": deg,
                           "nc": f"{n // npx},{n // npy}"})
    if csv_path is None:
        csv_path = os.path.join(cfg.output_dir, "convergence.csv")
    rows = convergence_study(cfg, mesh_list, deg_list, out_path=csv_path)
    click.echo(f"{'deg':>4} {'n':>6} {'h':>12} {'error':>14} {'order':>8}")
    for deg, n, h, err, order in rows:
        err_s = "failed" if err != err else f"{err:.6e}"
        ord_s = "" if order != order else f"{order:.3f}"
        click.echo(f"{deg:>4} {n:>6} {h:>12.6e} {err_s:>14} {ord_s:>8}")
    click.echo(f"wrote {csv_path}")


if __name__ == "__main__":
    main()
