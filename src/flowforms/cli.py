"""Command line interface: `flowforms run` and `flowforms converge`.

Each option is named after the SimulationConfig field it sets (--nc
sets n_cells, --np n_patches, --tol picard_tol, --out output_dir), and
its text is parsed as its config key's text (so `--dt auto` means
`dt = auto`: the case's own dt, which is CFL control only where the
case has none). Both commands set the options given on the config of an
optional INI file. An invalid config or study, or a CONFIG that is a
directory, is a usage error before any run.

Environment variables: FLOWFORMS_OUTPUT_DIR is declared as the envvar
of --out, so an explicit --out beats it. The BLAS thread count follows
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS, set before the process starts.
"""

import os
from contextlib import contextmanager

import click


@contextmanager
def _usage_errors():
    """An invalid value raised as ValueError is a usage error (exit code
    2, one line), not a traceback."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


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


def _build_config(config_path, options):
    """The config file's SimulationConfig (or the default one) with the
    setting of each option given parsed from its text."""
    from dataclasses import replace
    from .config import load_config, parse_setting, SimulationConfig

    cfg = load_config(config_path) if config_path else SimulationConfig()
    label = {p.name: p.opts[0] for p in click.get_current_context().command.params}
    return replace(cfg, **{name: parse_setting(name, text, label[name])
                           for name, text in options.items() if text is not None})


# each option's destination is the SimulationConfig field it sets
_shared = [
    click.option("--dt", help="fixed time step, or auto for the case's own "
                 "(CFL control where the case has none)"),
    click.option("--p", "--degree", "degree",
                 help="spline degree of the pressure space"),
    click.option("--nc", "n_cells", help="cells per patch"),
    click.option("--np", "n_patches", help="patch counts"),
    click.option("--alpha", help="interface penalization strength"),
    click.option("--nu", help="viscosity"),
    click.option("--tol", "picard_tol", help="Picard tolerance"),
    click.option("--out", "output_dir", envvar="FLOWFORMS_OUTPUT_DIR",
                 show_envvar=True, help="output directory"),
    click.option("--case", help="case name"),
    click.option("--t-final", "t_final"),
]


def _with_shared(cmd):
    for opt in reversed(_shared):
        cmd = opt(cmd)
    return cmd


@click.group()
def main():
    """Structure-preserving incompressible flow solver on spline spaces.

    Set OPENBLAS_NUM_THREADS / OMP_NUM_THREADS to cap the BLAS threads."""


@main.command("run")
@click.argument("config", type=click.Path(exists=True, dir_okay=False), required=False)
@_with_shared
@click.option("--quiet", is_flag=True, help="suppress per-step output")
def run_cmd(config, quiet, **options):
    """Run one simulation described by CONFIG (or case defaults)."""
    with _usage_errors():
        cfg = _build_config(config, options)
        rcfg, case = cfg.resolve()
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
@click.argument("config", type=click.Path(exists=True, dir_okay=False), required=False)
@_with_shared
@click.option("--meshes", type=str, default="8,16,32",
              help="total cells per direction, comma separated")
@click.option("--degrees", type=str, default="2",
              help="spline degrees, comma separated")
@click.option("--csv", "csv_path", type=str, default=None,
              help="write results to this CSV file")
def converge_cmd(config, meshes, degrees, csv_path, **options):
    """Mesh-refinement study against the case's exact solution."""
    from .runner import convergence_study, study_grids
    mesh_list = _int_list("meshes", meshes, least=1)
    deg_list = _int_list("degrees", degrees, least=0)
    with _usage_errors():
        cfg = _build_config(config, options)
        study_grids(cfg, mesh_list, deg_list)
    csv_path = csv_path or os.path.join(cfg.output_dir, "convergence.csv")
    rows = convergence_study(cfg, mesh_list, deg_list, out_path=csv_path)
    click.echo(f"{'deg':>4} {'n':>6} {'h':>12} {'error':>14} {'order':>8}")
    for deg, n, h, err, order in rows:
        err_s = "failed" if err != err else f"{err:.6e}"
        ord_s = "" if order != order else f"{order:.3f}"
        click.echo(f"{deg:>4} {n:>6} {h:>12.6e} {err_s:>14} {ord_s:>8}")
    click.echo(f"wrote {csv_path}")


if __name__ == "__main__":
    main()
