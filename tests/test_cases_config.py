"""Benchmark case definitions and configuration file round trips."""
import dataclasses

import numpy as np
import pytest

from conftest import PI
from flowforms.cases import case_library
from flowforms.config import (
    SimulationConfig,
    _parse_tangential,
    load_config,
    parse_pair,
)
from flowforms.operators import EdgeBC
from oracles import save_config


# --- case library ------------------------------------------------------------

def test_case_library_lists_known_names():
    names = case_library()
    assert names == sorted(names)
    for expected in ("taylor_green", "poiseuille", "lid_driven_cavity",
                     "blasius", "double_shear_layer"):
        assert expected in names


def test_case_library_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown case"):
        case_library("kelvin_helmholtz")


def test_taylor_green_pointwise_values():
    tg = case_library("taylor_green")
    ux, uy = tg.initial(np.array(0.0), np.array(0.0))
    assert float(ux) == 1.0 and float(uy) == 1.0
    # the vortex translates with the mean flow and decays at rate 8 nu
    x, y, t, nu = 0.3, 1.1, 0.7, 0.05
    ax, ay = tg.exact(np.array(x), np.array(y), t, nu)
    E = np.exp(-8 * nu * t)
    assert abs(float(ax) - (1 - 2 * np.cos(2 * (x - t)) * np.sin(2 * (y - t)) * E)) < 1e-15
    assert abs(float(ay) - (1 + 2 * np.cos(2 * (y - t)) * np.sin(2 * (x - t)) * E)) < 1e-15
    assert tg.periodic and tg.boundary is None


def test_poiseuille_profile_and_boundary_data():
    c = case_library("poiseuille")
    ux, uy = c.exact(np.array(PI / 2), np.array(0.4))
    assert float(ux) == 0.0
    assert abs(float(uy) - (-PI**3 / 8.0)) <= 1e-14
    # pressure data on the driving edges matches the exact pressure trace
    xs = np.linspace(0.0, PI, 50)
    p_bot = c.exact_pressure(xs, np.zeros_like(xs))
    p_top = c.exact_pressure(xs, np.full_like(xs, PI))
    assert np.max(np.abs(p_bot - c.boundary["bottom"].value)) <= 1e-13
    assert np.max(np.abs(p_top - c.boundary["top"].value)) <= 1e-13
    # the exact profile balances the pressure gradient: nu u'' = dp/dy
    nu = 0.5
    x, h = 1.1, 1e-4
    upp = (c.exact(np.array(x + h), np.array(0.0), nu=nu)[1]
           - 2.0 * c.exact(np.array(x), np.array(0.0), nu=nu)[1]
           + c.exact(np.array(x - h), np.array(0.0), nu=nu)[1]) / h**2
    dpdy = (c.boundary["top"].value - c.boundary["bottom"].value) / PI
    assert abs(nu * float(upp) - dpdy) <= 1e-5
    # the flow starts from rest and the walls stay impermeable
    ix, iy = c.initial(np.ones(3), np.ones(3))
    assert np.all(ix == 0.0) and np.all(iy == 0.0)
    ex, _ = c.exact(np.zeros(5), np.linspace(0, PI, 5))
    assert np.max(np.abs(ex)) == 0.0
    assert c.boundary["left"].kind == "normal"
    assert c.boundary["left"].value == 0.0


def test_double_shear_layer_initial_values():
    c = case_library("double_shear_layer")
    xs = np.linspace(-1.0, 1.0, 9)
    ux, uy = c.initial(xs, np.zeros_like(xs))
    assert np.max(np.abs(ux - (2.0 * np.tanh(7.5) - 1.0))) <= 1e-14
    assert np.max(np.abs(uy - 0.05 * np.sin(2 * PI * xs))) <= 1e-14
    assert c.domain == (-1.0, 1.0, -1.0, 1.0)
    assert c.periodic


def test_lid_driven_cavity_structure():
    c = case_library("lid_driven_cavity")
    assert c.boundary["top"].tangential == 1.0
    for e in ("left", "right", "bottom"):
        assert c.boundary[e].tangential == 0.0
        assert c.boundary[e].kind == "normal"
    ux, uy = c.initial(np.zeros(3), np.zeros(3))
    assert np.all(ux == 0.0) and np.all(uy == 0.0)


def test_blasius_structure():
    c = case_library("blasius")
    assert c.boundary["left"].value == -1.0
    assert c.boundary["bottom"].tangential == [(0.0, 1.0, 0.0)]
    assert c.boundary["right"].kind == "pressure"
    assert c.domain == (-1.0, 1.0, 0.0, 0.5)


# --- config parsing ----------------------------------------------------------

def test_parse_pair_grammar():
    assert parse_pair("8") == (8, 8)
    assert parse_pair(" 8, 16 ") == (8, 16)
    with pytest.raises(ValueError, match="one or two"):
        parse_pair("1,2,3")


def test_parse_tangential_grammar():
    assert _parse_tangential("free") is None
    assert _parse_tangential("0.5") == 0.5
    assert _parse_tangential("1.0@0:0.5,2.0@0.5:1") == [
        (0.0, 0.5, 1.0), (0.5, 1.0, 2.0)]


def test_every_setting_declares_its_section_and_parser():
    sections = {"case", "grid", "physics", "stepper", "output"}
    for f in dataclasses.fields(SimulationConfig):
        if f.name == "boundary":        # the [boundary.<edge>] sections
            assert not f.metadata
        else:
            assert f.metadata["section"] in sections, f.name
            assert callable(f.metadata["parse"]), f.name


def test_config_roundtrip_defaults(tmp_path):
    cfg = SimulationConfig()
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_roundtrip_of_a_percent_sign(tmp_path):
    # the file interpolates %, so save_config writes a literal one as %%
    cfg = SimulationConfig(snapshot_prefix="a%b", output_dir="%(x)s%%")
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_roundtrip_with_boundary(tmp_path):
    cfg = SimulationConfig(
        case="poiseuille", degree=3, n_cells=(4, 8), n_patches=(2, 2),
        domain=(0.0, 2.0, -1.0, 1.0), periodic=False, nu=0.125,
        alpha=1000.0, dt=0.0005, t_final=0.25, picard_tol=1e-10,
        output_dir="out", snapshot_cadence=7,
        boundary={
            "left": EdgeBC("normal", 0.0, tangential=None),
            "right": EdgeBC("pressure", -1.5, tangential=0.25),
            "bottom": EdgeBC("normal", 1.0,
                             tangential=[(0.0, 0.5, 1.0), (0.5, 2.0, -2.0)]),
            "top": EdgeBC("pressure", 0.5, tangential=0.0),
        })
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


@pytest.mark.parametrize("key", ["cfl_constant", "pressure_solver",
                                 "pressure_eps", "moment_order",
                                 "stencil_radius", "steady_tol", "dt_max",
                                 "picard_max_iter", "cfl_safety"])
def test_load_config_rejects_removed_keys(tmp_path, key):
    path = tmp_path / "old.cfg"
    path.write_text(f"[stepper]\n{key} = 1.0\n")
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        load_config(path)


@pytest.mark.parametrize("section,key,raw", [
    ("grid", "degree", "auto"), ("grid", "n_cells", "none"),
    ("stepper", "picard_tol", "auto"), ("output", "snapshot_grid", "none")])
def test_load_config_rejects_auto_without_a_default(tmp_path, section, key, raw):
    # none/auto only stands for settings that have an automatic value
    path = tmp_path / "auto.cfg"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ValueError, match=f"{key} in \\[{section}\\] needs a value"):
        load_config(path)


@pytest.mark.parametrize("text,message", [
    ("[grid]\ndegree = two\n", "degree in \\[grid\\]: invalid literal"),
    ("[stepper]\ndt = fast\n", "dt in \\[stepper\\]: could not convert"),
    ("[grid]\nn_cells = 4,x\n", "n_cells in \\[grid\\]: invalid literal"),
    ("[case]\nname = lid_driven_cavity\n[boundary.top]\nvalue = abc\n",
     "value in \\[boundary.top\\]: could not convert"),
    ("[case]\nname = lid_driven_cavity\n[boundary.top]\ntangential = 1@a:b\n",
     "tangential in \\[boundary.top\\]: could not convert"),
])
def test_conversion_errors_name_the_key_and_section(tmp_path, text, message):
    path = tmp_path / "typo.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(path)


BAD_BOUNDARY = {
    # a misspelt key would drop the cavity lid silently
    "key": ("[case]\nname = lid_driven_cavity\n"
            "[boundary.top]\ntangental = 5.0\n",
            "unknown config key 'tangental' in \\[boundary.top\\]"),
    "edge": ("[case]\nname = lid_driven_cavity\n"
             "[boundary.tpo]\ntangential = 1.0\n",
             "unknown boundary edges \\['tpo'\\]"),
    # the EdgeBC checks name the section they read
    "kind": ("[case]\nname = lid_driven_cavity\n"
             "[boundary.top]\nkind = noraml\n",
             "^\\[boundary.top\\]: unknown boundary kind 'noraml'"),
    "value-nan": ("[case]\nname = lid_driven_cavity\n"
                  "[boundary.top]\nkind = pressure\nvalue = nan\n",
                  "^\\[boundary.top\\]: boundary value must be finite, "
                  "got nan"),
    "periodic": ("[case]\nname = taylor_green\n"
                 "[boundary.left]\nkind = normal\n",
                 "boundary conditions given for a periodic domain"),
    # overlapping segments would count their data twice
    "overlap": ("[case]\nname = lid_driven_cavity\n[grid]\nn_cells = 4\n"
                "[boundary.top]\ntangential = 1.0@0.0:0.5,1.0@0.25:0.75\n",
                "edge top: tangential segments \\(0.0, 0.5\\) and "
                "\\(0.25, 0.75\\) overlap"),
    "aligned": ("[case]\nname = lid_driven_cavity\n[grid]\nn_cells = 4\n"
                "[boundary.top]\ntangential = 1.0@0.0:0.3\n",
                "edge top: segment endpoint 0.3 is not aligned"),
}


@pytest.mark.parametrize("which", list(BAD_BOUNDARY))
def test_bad_boundary_sections_are_rejected(tmp_path, which):
    text, message = BAD_BOUNDARY[which]
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(path).resolve()


def test_resolve_checks_boundary_from_the_api():
    with pytest.raises(ValueError, match="unknown boundary edges"):
        SimulationConfig(case="poiseuille",
                         boundary={"north": EdgeBC()}).resolve()
    with pytest.raises(ValueError, match="periodic domain"):
        SimulationConfig(case="lid_driven_cavity", periodic=True,
                         boundary={"top": EdgeBC()}).resolve()
    # a non-periodic domain needs every edge once boundary is given
    with pytest.raises(ValueError, match="boundary conditions missing for "
                       "edges \\['bottom', 'right', 'top'\\]"):
        SimulationConfig(case="taylor_green", periodic=False,
                         boundary={"left": EdgeBC()}).resolve()
    # switching a walled case to periodic drops the case's own walls
    cfg, _ = SimulationConfig(case="lid_driven_cavity",
                              periodic=True).resolve()
    assert cfg.boundary is None


def test_resolve_rejects_a_walled_domain_without_boundary():
    # without boundary conditions a clamped domain would run the
    # boundaryless operators
    with pytest.raises(ValueError, match="boundary conditions missing for "
                       "edges \\['bottom', 'left', 'right', 'top'\\]"):
        SimulationConfig(case="taylor_green", periodic=False).resolve()


@pytest.mark.parametrize("kwargs, message", [
    (dict(case="taylor_green", n_cells=(2, 2)),
     "degree 2 needs at least 4 cells, got 2"),
    (dict(case="taylor_green", n_cells=(8, 3)),
     "degree 2 needs at least 4 cells, got 3"),
    (dict(case="taylor_green", domain=(0.0, 1.0, 1.0, 0.0)),
     "empty interval"),
    (dict(case="lid_driven_cavity", domain=(0.0, np.inf, 0.0, 1.0)),
     "interval \\[0.0, inf\\] is not finite"),
    (dict(case="lid_driven_cavity", n_patches=(2, 2), n_cells=(1, 1)),
     "2 cells per patch"),
    (dict(case="lid_driven_cavity", degree=5, n_patches=(1, 2),
          n_cells=(1, 1)), "2 cells per patch"),
], ids=["periodic-cells", "periodic-cells-y", "empty-interval",
        "infinite-interval", "one-cell-patches", "one-cell-patches-y"])
def test_resolve_rejects_grids_the_1d_space_rejects(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimulationConfig(**kwargs).resolve()


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[solver]\ndt = 0.1\n")
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[stepper]\ntimestep = 0.1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


@pytest.mark.parametrize("section,key,raw", [
    ("grid", "nu", "0.5"), ("output", "dt", "1e-3"), ("case", "degree", "2"),
    ("stepper", "name", "poiseuille"), ("physics", "case", "poiseuille")])
def test_load_config_rejects_a_key_outside_its_section(tmp_path, section,
                                                       key, raw):
    # each setting lives in the one section save_config writes it in
    path = tmp_path / "misplaced.cfg"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ValueError, match=f"unknown config key '{key}' in "
                                         f"\\[{section}\\]"):
        load_config(path)


def test_config_roundtrip_of_every_field(tmp_path):
    # no field keeps its default, so each must load from the section
    # save_config wrote it in
    cfg = SimulationConfig(
        case="lid_driven_cavity", degree=3, n_patches=(2, 3),
        n_cells=(5, 4), domain=(0.0, 2.0, -1.0, 1.0), periodic=False,
        nu=0.25, alpha=7.5, dt=0.002, t_final=0.75, picard_tol=1e-9,
        output_dir="out", diagnostics_file="d.csv",
        snapshot_prefix="snap", snapshot_grid=33, snapshot_cadence=4,
        boundary={"top": EdgeBC("normal", 0.0, tangential=1.0)})
    defaults = SimulationConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(SimulationConfig))
    path = tmp_path / "sim.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("raw,want", [
    ("true", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("NO", False), ("off", False), ("0", False),
    ("auto", None)])
def test_load_config_reads_periodic_spellings(tmp_path, raw, want):
    path = tmp_path / "periodic.cfg"
    path.write_text(f"[grid]\nperiodic = {raw}\n")
    assert load_config(path).periodic is want


@pytest.mark.parametrize("raw", ["ture", "2", "periodic"])
def test_load_config_rejects_misspelt_periodic(tmp_path, raw):
    # a typo must not silently select a bounded domain
    path = tmp_path / "periodic.cfg"
    path.write_text(f"[grid]\nperiodic = {raw}\n")
    with pytest.raises(ValueError, match=f"periodic must be true or false, "
                                         f"got '{raw}'"):
        load_config(path)


def test_resolve_fills_case_defaults():
    cfg, case = SimulationConfig(case="taylor_green").resolve()
    assert cfg.domain == (0.0, PI, 0.0, PI)
    assert cfg.periodic is True
    assert cfg.nu == 0.0
    assert cfg.alpha == 1000.0
    assert cfg.dt == 1e-4
    assert cfg.t_final == 1.0
    assert case.name == "taylor_green"


def test_resolve_keeps_explicit_values():
    cfg, _ = SimulationConfig(case="taylor_green", nu=0.3, dt=1e-3,
                              t_final=0.1).resolve()
    assert cfg.nu == 0.3 and cfg.dt == 1e-3 and cfg.t_final == 0.1


def test_resolve_merges_boundary_overrides():
    override = {"top": EdgeBC("pressure", 9.0, tangential=0.0)}
    cfg, case = SimulationConfig(case="poiseuille",
                                 boundary=override).resolve()
    assert cfg.boundary["top"].value == 9.0
    assert cfg.boundary["left"] == case.boundary["left"]
    assert set(cfg.boundary) == {"left", "right", "bottom", "top"}


def test_resolve_cfl_controlled_cases_keep_dt_none():
    cfg, _ = SimulationConfig(case="lid_driven_cavity").resolve()
    assert cfg.dt is None
    assert cfg.periodic is False


def test_config_is_a_plain_dataclass():
    # replace() keeps unrelated fields; guards accidental mutable defaults
    cfg = SimulationConfig()
    other = dataclasses.replace(cfg, degree=4)
    assert cfg.degree == 2 and other.degree == 4
    assert other.n_cells == cfg.n_cells
