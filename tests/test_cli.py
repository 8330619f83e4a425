"""End-to-end command line tests through click's test runner."""
import dataclasses
import os

import numpy as np
import pytest
from click.testing import CliRunner

from flowforms import runner, stepper
from flowforms.cli import main
from flowforms.config import SimulationConfig, load_config
from flowforms.stepper import StepFailure, StepReport
from oracles import save_config


@pytest.fixture
def cli():
    return CliRunner()


def _all_output(result):
    out = result.output
    try:
        out += result.stderr
    except (ValueError, AttributeError):
        pass
    return out


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], lines[1:]


def test_run_taylor_green_writes_diagnostics(cli, tmp_path):
    result = cli.invoke(main, [
        "run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
        "--t-final", "0.01", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "finished:" in result.output
    assert "final_error=" in result.output
    header, rows = _read_csv(tmp_path / "diagnostics.csv")
    assert header == ("time,energy,mom_x,mom_y,div_l2,jump_energy,"
                      "enstrophy_term,picard_iters")
    assert len(rows) == 11
    times = [float(r.split(",")[0]) for r in rows]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert abs(times[-1] - 0.01) < 1e-12


def test_run_progress_lines_and_quiet(cli, tmp_path):
    args = ["run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
            "--t-final", "0.06", "--out", str(tmp_path)]
    loud = cli.invoke(main, args)
    assert loud.exit_code == 0, loud.output
    assert "step " in loud.output
    quiet = cli.invoke(main, args + ["--quiet"])
    assert quiet.exit_code == 0
    assert "step " not in quiet.output
    assert "finished:" in quiet.output


def test_run_reports_halved_retries(cli, tmp_path, monkeypatch):
    # every other first attempt fails and is retried at half dt
    calls = []

    def step(ctx, u, cfg, dt, guess=None):
        calls.append(dt)
        if len(calls) % 3 == 1:
            raise StepFailure("stub")
        return u + dt, np.zeros(ctx.space.n2), StepReport(1, 0.0)

    monkeypatch.setattr(runner, "cn_step", step)
    result = cli.invoke(main, [
        "run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
        "--t-final", "2e-3", "--quiet", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "steps=4 " in result.output and "retries=2 " in result.output


def test_run_from_config_file_with_snapshots(cli, tmp_path):
    out = tmp_path / "out"
    cfg = SimulationConfig(case="taylor_green", n_cells=(4, 4), dt=1e-3,
                           t_final=0.01, snapshot_cadence=5,
                           snapshot_grid=8, output_dir=str(out))
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    result = cli.invoke(main, ["run", str(path), "--quiet"])
    assert result.exit_code == 0, result.output
    snaps = sorted(out.glob("snapshot_*.dat"))
    assert [s.name for s in snaps] == [
        "snapshot_000000.dat", "snapshot_000005.dat", "snapshot_000010.dat"]
    text = snaps[-1].read_text().splitlines()
    assert text[1] == "# grid = 8 x 8"
    assert text[2] == "# columns: x y u_x u_y p omega"
    assert len(text) == 3 + 8 * 8


def test_run_without_cadence_writes_no_snapshots(cli, tmp_path):
    result = cli.invoke(main, [
        "run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
        "--t-final", "0.002", "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert list(tmp_path.glob("snapshot_*.dat")) == []


def test_run_failure_exits_nonzero_and_keeps_last_state(cli, tmp_path,
                                                       monkeypatch):
    # the CLI runs in this process, so the sweep cap can be patched
    monkeypatch.setattr(stepper, "PICARD_MAX_ITER", 1)
    out = tmp_path / "out"
    cfg = SimulationConfig(case="taylor_green", n_cells=(4, 4), dt=0.5,
                           t_final=1.0, snapshot_grid=8, output_dir=str(out))
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    result = cli.invoke(main, ["run", str(path), "--quiet"])
    assert result.exit_code == 1
    assert "step failure" in _all_output(result)
    # the pre-failure state is dumped even with snapshots disabled
    assert (out / "snapshot_000000.dat").exists()
    header, rows = _read_csv(out / "diagnostics.csv")
    assert len(rows) == 1


def test_converge_writes_table_and_csv(cli, tmp_path):
    result = cli.invoke(main, [
        "converge", "--case", "taylor_green", "--meshes", "4,8",
        "--degrees", "1", "--dt", "1e-3", "--t-final", "0.005",
        "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    csv_path = tmp_path / "convergence.csv"
    assert f"wrote {csv_path}" in result.output
    header, rows = _read_csv(csv_path)
    assert header == "degree,n_cells,h,error,order"
    assert len(rows) == 2
    first = rows[0].split(",")
    second = rows[1].split(",")
    assert (first[0], first[1]) == ("1", "4")
    assert (second[0], second[1]) == ("1", "8")
    assert first[4] == ""
    e4, e8 = float(first[3]), float(second[3])
    assert e8 < e4
    assert float(second[4]) > 1.0


def test_converge_makes_the_csv_directory(cli, tmp_path):
    csv_path = tmp_path / "missing" / "dir" / "c.csv"
    result = cli.invoke(main, [
        "converge", "--case", "taylor_green", "--meshes", "4,8",
        "--degrees", "1", "--dt", "1e-3", "--t-final", "0.002",
        "--out", str(tmp_path / "out"), "--csv", str(csv_path)])
    assert result.exit_code == 0, _all_output(result)
    assert "   1      8 " in result.output      # the table's second row
    assert f"wrote {csv_path}" in result.output
    assert len(csv_path.read_text().splitlines()) == 3


@pytest.mark.parametrize("command, own", [
    ("run", {"config", "quiet"}),
    ("converge", {"config", "meshes", "degrees", "csv_path"}),
])
def test_options_are_named_after_config_fields(command, own):
    names = {p.name for p in main.commands[command].params} - own
    assert len(names) == 10
    assert names <= {f.name for f in dataclasses.fields(SimulationConfig)}


def test_run_is_deterministic(cli, tmp_path):
    args = ["run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
            "--t-final", "0.005", "--quiet"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert cli.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert (a / "diagnostics.csv").read_bytes() == \
        (b / "diagnostics.csv").read_bytes()


def test_output_dir_env_var(cli, tmp_path):
    envdir = tmp_path / "envout"
    result = cli.invoke(
        main,
        ["run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
         "--t-final", "0.002", "--quiet"],
        env={"FLOWFORMS_OUTPUT_DIR": str(envdir)})
    assert result.exit_code == 0, result.output
    assert (envdir / "diagnostics.csv").exists()
    # an explicit --out beats the environment
    explicit = tmp_path / "explicit"
    result = cli.invoke(
        main,
        ["run", "--case", "taylor_green", "--nc", "4", "--dt", "1e-3",
         "--t-final", "0.002", "--quiet", "--out", str(explicit)],
        env={"FLOWFORMS_OUTPUT_DIR": str(tmp_path / "ignored")})
    assert result.exit_code == 0
    assert (explicit / "diagnostics.csv").exists()
    assert not (tmp_path / "ignored").exists()
    # the environment beats the config file, unless it is empty
    path = tmp_path / "sim.cfg"
    save_config(SimulationConfig(n_cells=(4, 4), dt=1e-3, t_final=0.002,
                                 output_dir=str(tmp_path / "file")), path)
    result = cli.invoke(main, ["run", str(path), "--quiet"],
                        env={"FLOWFORMS_OUTPUT_DIR": str(envdir / "2")})
    assert result.exit_code == 0, result.output
    assert (envdir / "2" / "diagnostics.csv").exists()
    assert not (tmp_path / "file").exists()
    result = cli.invoke(main, ["run", str(path), "--quiet"],
                        env={"FLOWFORMS_OUTPUT_DIR": ""})
    assert result.exit_code == 0, result.output
    assert (tmp_path / "file" / "diagnostics.csv").exists()


def test_run_rejects_missing_config_path(cli, tmp_path):
    result = cli.invoke(main, ["run", str(tmp_path / "nope.cfg")])
    assert result.exit_code != 0


@pytest.mark.parametrize("command", ["run", "converge"])
def test_a_directory_as_config_is_a_usage_error(cli, tmp_path, command):
    result = cli.invoke(main, [command, str(tmp_path), "--out",
                               str(tmp_path / "out")])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert "is a directory" in out
    assert "Traceback" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "converge"])
def test_invalid_option_value_is_a_usage_error(cli, tmp_path, command):
    result = cli.invoke(main, [command, "--t-final", "0",
                               "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert "Error: t_final must be positive" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("case", ["lid_driven_cavity", "blasius",
                                  "double_shear_layer"])
def test_converge_without_exact_solution_is_a_usage_error(cli, tmp_path,
                                                          case):
    csv_path = tmp_path / "convergence.csv"
    result = cli.invoke(main, ["converge", "--case", case, "--meshes", "4,8",
                               "--out", str(tmp_path), "--csv", str(csv_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: case {case!r} has no exact solution" in out
    assert "Traceback" not in out
    assert list(tmp_path.iterdir()) == []     # no run started


@pytest.mark.parametrize("args, message", [
    (["--meshes", "8,x"], "--meshes must be comma-separated integers >= 1, "
                          "got '8,x'"),
    (["--meshes", "0"], "--meshes must be comma-separated integers >= 1"),
    (["--degrees", "a"], "--degrees must be comma-separated integers >= 0, "
                         "got 'a'"),
    (["--degrees", "2,-1"], "--degrees must be comma-separated integers"),
    (["--np", "2,2", "--meshes", "8,9"],
     "--meshes: 9 cells is not divisible by the patch counts 2,2"),
    (["--np", "0"], "n_patches must be integers >= 1"),
])
def test_invalid_converge_lists_are_usage_errors(cli, tmp_path, args,
                                                 message):
    csv_path = tmp_path / "convergence.csv"
    result = cli.invoke(main, ["converge", "--case", "taylor_green",
                               "--out", str(tmp_path), "--csv", str(csv_path),
                               *args])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: {message}" in out
    assert "Traceback" not in out
    assert not csv_path.exists()


@pytest.mark.parametrize("args, message", [
    (["--t-final", "nan"], "t_final must be positive and finite"),
    (["--t-final", "inf", "--dt", "1e-3"], "t_final must be positive and finite"),
    (["--nu", "nan"], "nu must be nonnegative and finite"),
    (["--tol", "nan"], "picard_tol must be positive and finite"),
    (["--alpha", "inf"], "alpha must be nonnegative and finite"),
    (["--nc", "4,x"], "--nc: invalid literal for int() with base 10: 'x'"),
    (["--np", "1,2,3"], "--np: expected one or two comma-separated values"),
])
def test_invalid_run_option_is_a_usage_error_that_names_it(cli, tmp_path, args,
                                                           message):
    result = cli.invoke(main, ["run", "--case", "taylor_green", *args,
                               "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: {message}" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


# shared option -> (its config key's section, the key, a text that fails)
SHARED_BAD = {
    "--dt": ("stepper", "dt", "fast"), "--p": ("grid", "degree", "two"),
    "--nc": ("grid", "n_cells", "4,x"), "--np": ("grid", "n_patches", "1,2,3"),
    "--alpha": ("physics", "alpha", "big"), "--nu": ("physics", "nu", "1e"),
    "--tol": ("stepper", "picard_tol", "tight"),
    "--out": ("output", "output_dir", "none"), "--case": ("case", "name", "auto"),
    "--t-final": ("stepper", "t_final", "1s"),
}


@pytest.mark.parametrize("option", list(SHARED_BAD))
def test_option_text_fails_as_its_config_key_text_does(cli, tmp_path, option):
    shared = {p.opts[0] for p in main.commands["run"].params
              if p.name not in ("config", "quiet")}
    assert shared == set(SHARED_BAD)
    section, key, text = SHARED_BAD[option]
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ValueError) as in_file:
        load_config(path)
    where, message = f"{key} in [{section}]", str(in_file.value)
    assert message.startswith(where)
    # the option's text comes last, so it wins for --out too
    result = cli.invoke(main, ["run", "--out", str(tmp_path), option, text])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: {option}{message[len(where):]}\n" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


def test_dt_auto_is_what_it_is_in_a_config_file(cli, tmp_path, monkeypatch):
    class Ran(Exception):
        pass

    seen = []

    def capture(cfg, progress=None):
        seen.append(cfg)
        raise Ran

    monkeypatch.setattr(runner, "run", capture)
    fixed, auto = tmp_path / "fixed.cfg", tmp_path / "auto.cfg"
    fixed.write_text("[stepper]\ndt = 1e-3\n")
    auto.write_text("[stepper]\ndt = auto\n")
    for args in (["--case", "lid_driven_cavity"],
                 ["--case", "lid_driven_cavity", "--dt", "auto"],
                 [str(auto)], [str(fixed), "--dt", "auto"], [str(fixed)],
                 ["--case", "taylor_green", "--dt", "auto"]):
        result = cli.invoke(main, ["run", *args, "--out", str(tmp_path)])
        assert isinstance(result.exception, Ran), _all_output(result)
    assert seen[0] == seen[1] and seen[0].dt is None
    assert seen[2] == seen[3] and seen[3].dt is None
    assert seen[4].dt == 1e-3
    # auto is unset, so it resolves to the case's own dt: CFL control
    # (None) on the cavity, which has none, and 1e-4 on Taylor-Green
    assert seen[1].resolve()[0].dt is None
    assert seen[5].dt is None and seen[5].resolve()[0].dt == 1e-4


def test_invalid_config_file_value_is_a_usage_error(cli, tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[grid]\nperiodic = ture\n")
    result = cli.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert "periodic must be true or false, got 'ture'" in out
    assert "Traceback" not in out


def test_key_outside_its_section_is_a_usage_error(cli, tmp_path):
    path = tmp_path / "misplaced.cfg"
    path.write_text("[grid]\nnu = 0.5\n")
    result = cli.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert "Error: unknown config key 'nu' in [grid]" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("[output]\nsnapshot_prefix = run%1\n",
     "malformed.cfg: snapshot_prefix in [output]: '%' must be followed by"),
    ("dt = 0.1\n", "File contains no section headers. file: '"),
    ("[stepper]\ndt = 0.1\ndt = 0.2\n",
     "option 'dt' in section 'stepper' already exists"),
], ids=["percent", "no-section", "key-twice"])
def test_malformed_config_file_is_a_usage_error(cli, tmp_path, text, message):
    # configparser's own errors, one line that names the file, and the
    # section and key where known
    path = tmp_path / "malformed.cfg"
    path.write_text(text)
    result = cli.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert message in out and str(path) in out
    assert "Traceback" not in out


@pytest.mark.parametrize("section, message", [
    ("[boundary.top]\ntangental = 5.0\n",
     "unknown config key 'tangental' in [boundary.top]"),
    ("[boundary.tpo]\ntangential = 1.0\n", "unknown boundary edges ['tpo']"),
    ("[boundary.top]\nkind = noraml\n",
     "[boundary.top]: unknown boundary kind 'noraml'"),
    ("[boundary.top]\ntangential = 1.0@0.0:0.5,1.0@0.25:0.75\n",
     "edge top: tangential segments (0.0, 0.5) and (0.25, 0.75) overlap"),
    ("[grid]\nn_cells = 4\n[boundary.top]\ntangential = 1.0@0.0:0.3\n",
     "edge top: segment endpoint 0.3 is not aligned with a cell boundary"),
], ids=["key", "edge", "kind", "overlap", "aligned"])
def test_bad_boundary_section_is_a_usage_error(cli, tmp_path, section,
                                               message):
    path = tmp_path / "typo.cfg"
    path.write_text("[case]\nname = lid_driven_cavity\n" + section)
    result = cli.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: {message}" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("section, message", [
    ("kind = pressure\nvalue = nan\n",
     "[boundary.top]: boundary value must be finite, got nan"),
    ("tangential = inf\n",
     "[boundary.top]: boundary tangential must be finite, got inf"),
    ("tangential = 1.0@0.0:0.5,nan@0.5:1.0\n",
     "[boundary.top]: boundary tangential must be finite, got nan"),
], ids=["pressure-nan", "tangential-inf", "segment-nan"])
def test_non_finite_boundary_data_is_a_usage_error(cli, tmp_path, section,
                                                   message):
    path = tmp_path / "nonfinite.cfg"
    path.write_text("[case]\nname = lid_driven_cavity\n[boundary.top]\n"
                    + section)
    result = cli.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: {message}" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


def test_boundary_section_on_a_periodic_case_is_a_usage_error(cli, tmp_path):
    path = tmp_path / "periodic.cfg"
    path.write_text("[boundary.left]\nkind = normal\n")
    result = cli.invoke(main, ["run", str(path), "--case", "taylor_green",
                               "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert "Error: boundary conditions given for a periodic domain" in out
    assert "Traceback" not in out


def test_partial_boundary_on_a_walled_domain_is_a_usage_error(cli, tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("[case]\nname = taylor_green\n[grid]\nperiodic = false\n"
                    "[boundary.left]\nkind = normal\n")
    result = cli.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert ("Error: boundary conditions missing for edges "
            "['bottom', 'right', 'top']") in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize("args, config, message", [
    (["run", "--case", "taylor_green", "--nc", "2"], None,
     "a periodic patch of degree 2 needs at least 4 cells, got 2"),
    (["run"], "[grid]\ndomain = 1,0,0,1\n", "empty interval [1.0, 0.0]"),
    (["run"], "[case]\nname = lid_driven_cavity\n[grid]\ndomain = 0,inf,0,1\n",
     "interval [0.0, inf] is not finite"),
    (["run", "--case", "lid_driven_cavity", "--np", "2,2", "--nc", "1"], None,
     "a broken line needs at least 2 cells per patch, got 1"),
    (["converge", "--case", "taylor_green", "--meshes", "2,4"], None,
     "a periodic patch of degree 2 needs at least 4 cells, got 2"),
    (["run"], "[case]\nname = taylor_green\n[grid]\nperiodic = false\n",
     "boundary conditions missing for edges "
     "['bottom', 'left', 'right', 'top']"),
], ids=["periodic-cells", "empty-interval", "infinite-interval",
        "one-cell-patches", "converge", "walled-without-boundary"])
def test_invalid_grid_is_a_usage_error(cli, tmp_path, args, config, message):
    if config is not None:
        path = tmp_path / "grid.cfg"
        path.write_text(config)
        args = [*args, str(path)]
    result = cli.invoke(main, [*args, "--out", str(tmp_path)])
    out = _all_output(result)
    assert result.exit_code == 2, out
    assert f"Error: {message}" in out
    assert "Traceback" not in out
    assert not (tmp_path / "diagnostics.csv").exists()
    assert not (tmp_path / "convergence.csv").exists()


def test_snapshot_energy_column_matches_diagnostics(cli, tmp_path):
    # coarse sanity link between the two output formats
    out = tmp_path / "out"
    cfg = SimulationConfig(case="taylor_green", n_cells=(6, 6), dt=1e-3,
                           t_final=0.001, snapshot_cadence=1,
                           snapshot_grid=48, output_dir=str(out))
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    assert cli.invoke(main, ["run", str(path), "--quiet"]).exit_code == 0
    data = np.loadtxt(out / "snapshot_000001.dat")
    _, rows = _read_csv(out / "diagnostics.csv")
    energy = float(rows[-1].split(",")[1])
    # Riemann sum over the sampled velocity approximates 2 pi^2
    h = (np.pi / 48) ** 2
    riemann = 0.5 * h * float(np.sum(data[:, 2] ** 2 + data[:, 3] ** 2))
    assert abs(riemann - energy) < 0.05 * energy
