"""Simulation configuration: the one config object, plus its INI-style
file format.

SimulationConfig.resolve() fills unset values from the case library and
validates the result; the runner and the stepper work from that resolved
config. dt=None there selects CFL control of the time step.

File sections: [case], [grid], [physics], [stepper], [output] and one
[boundary.<edge>] per walled edge (keys kind, value, tangential). Every
key is optional; unset values fall back to the case defaults. Unknown
keys, edges and kinds, boundary sections on a periodic domain, a walled
domain without one for each edge, tangential segments that overlap or
end off a cell boundary, a grid whose velocity line `Broken1D.check`
rejects, and none/auto for a setting without an automatic value are
rejected.

boundary tangential grammar:  free | <float> | <float>@<lo>:<hi>[,...]
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

import numpy as np

from .cases import CaseDefinition, case_library
from .operators import EDGES, EdgeBC, check_boundary
from .splines import Broken1D


def _parse_pair(text, conv=int):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if len(parts) == 1:
        return (conv(parts[0]), conv(parts[0]))
    if len(parts) == 2:
        return (conv(parts[0]), conv(parts[1]))
    raise ValueError(f"expected one or two comma-separated values, got {text!r}")


def _parse_tangential(text):
    text = text.strip()
    if text.lower() in ("free", "none", ""):
        return None
    if "@" not in text:
        return float(text)
    segs = []
    for part in text.split(","):
        data, _, rng = part.partition("@")
        lo, _, hi = rng.partition(":")
        segs.append((float(lo), float(hi), float(data)))
    return segs


def _format_tangential(tang):
    if tang is None:
        return "free"
    if isinstance(tang, (list, tuple)):
        return ",".join(f"{d!r}@{lo!r}:{hi!r}" for lo, hi, d in tang)
    return repr(float(tang))


@dataclass
class SimulationConfig:
    case: str = "taylor_green"
    # grid
    degree: int = 2
    n_patches: tuple = (1, 1)
    n_cells: tuple = (8, 8)          # per patch, per direction
    domain: tuple = None             # (x0, x1, y0, y1); None = case default
    periodic: bool = None
    # physics
    nu: float = None
    alpha: float = None
    # stepper
    dt: float = None                 # None = CFL-controlled
    dt_max: float = 1.0
    t_final: float = None
    picard_tol: float = 1e-8
    picard_max_iter: int = 200
    cfl_safety: float = 0.5
    steady_tol: float = None         # None = follow picard_tol
    # output
    output_dir: str = "."
    diagnostics_file: str = "diagnostics.csv"
    snapshot_prefix: str = "snapshot"
    snapshot_grid: int = 64
    snapshot_cadence: int = 0        # steps between snapshots, 0 = none
    # boundary overrides (edge name -> EdgeBC)
    boundary: dict = None

    def resolve(self):
        """Fill unset values from the case library and validate them;
        returns (cfg, case). Raises ValueError on an invalid value."""
        case = case_library(self.case)
        d = case.defaults
        out = replace(self)
        if out.domain is None:
            out.domain = case.domain
        if out.periodic is None:
            out.periodic = case.periodic
        if out.nu is None:
            out.nu = d.get("nu", 0.0)
        if out.alpha is None:
            out.alpha = d.get("alpha", 0.0)
        if out.dt is None:
            out.dt = d.get("dt")     # may stay None: CFL-controlled
        if out.t_final is None:
            out.t_final = d.get("t_final", 1.0)
        if out.steady_tol is None:
            out.steady_tol = out.picard_tol
        if out.periodic:
            if self.boundary:
                raise ValueError("boundary conditions given for a periodic "
                                 "domain")
            out.boundary = None
        elif out.boundary is None:
            out.boundary = case.boundary
        elif case.boundary:
            merged = dict(case.boundary)
            merged.update(out.boundary)
            out.boundary = merged
        if not (out.periodic or out.boundary):
            raise ValueError(
                f"boundary conditions missing for edges {sorted(EDGES)}")
        if out.dt is not None and out.dt <= 0:
            raise ValueError("dt must be positive")
        for name in ("dt_max", "t_final", "picard_tol", "cfl_safety",
                     "steady_tol"):
            if getattr(out, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("nu", "alpha"):
            if getattr(out, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name, least in (("degree", 0), ("picard_max_iter", 1),
                            ("snapshot_grid", 1), ("snapshot_cadence", 0)):
            value = getattr(out, name)
            if value is None or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        for name in ("n_patches", "n_cells"):
            if min(getattr(out, name)) < 1:
                raise ValueError(f"{name} must be integers >= 1")
        if out.cfl_safety > 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        x0, x1, y0, y1 = out.domain
        (npx, npy), (ncx, ncy) = out.n_patches, out.n_cells
        for n_p, n_c, ab in ((npx, ncx, (x0, x1)), (npy, ncy, (y0, y1))):
            # the velocity line's condition, in the configured degree
            if out.periodic and n_p == 1 and n_c < out.degree + 2:
                raise ValueError(
                    f"a periodic patch of degree {out.degree} needs at "
                    f"least {out.degree + 2} cells, got {n_c}")
            Broken1D.check(out.degree + 1, n_p, n_c, ab, out.periodic)
        check_boundary(out.boundary, (out.periodic, out.periodic),
                       np.linspace(x0, x1, npx * ncx + 1),
                       np.linspace(y0, y1, npy * ncy + 1))
        return out, case


_GRID_KEYS = {"degree", "n_patches", "n_cells", "domain", "periodic"}
_PHYSICS_KEYS = {"nu", "alpha"}
_STEPPER_KEYS = {"dt", "dt_max", "t_final", "picard_tol", "picard_max_iter",
                 "cfl_safety", "steady_tol"}
_OUTPUT_KEYS = {"output_dir", "diagnostics_file", "snapshot_prefix",
                "snapshot_grid", "snapshot_cadence"}
_INT_KEYS = {"degree", "picard_max_iter", "snapshot_grid", "snapshot_cadence"}
_STR_KEYS = {"output_dir", "diagnostics_file", "snapshot_prefix", "case"}


def _convert(key, raw):
    raw = raw.strip()
    if raw.lower() in ("none", "auto", ""):
        return None
    if key in _STR_KEYS:
        return raw
    if key == "periodic":
        word = raw.lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"periodic must be true or false, got {raw!r}")
    if key in ("n_patches", "n_cells"):
        return _parse_pair(raw, int)
    if key == "domain":
        vals = [float(v) for v in raw.split(",")]
        if len(vals) != 4:
            raise ValueError("domain needs four values: x0,x1,y0,y1")
        return tuple(vals)
    if key in _INT_KEYS:
        return int(raw)
    return float(raw)


def load_config(path) -> SimulationConfig:
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    kwargs = {}
    # name -> default; a None default marks a setting with an automatic value
    known = {f.name: f.default for f in fields(SimulationConfig)}
    for section in parser.sections():
        if section.startswith("boundary."):
            edge = section.split(".", 1)[1]
            sec = parser[section]
            for key in set(sec) - {"kind", "value", "tangential"}:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            bc = EdgeBC(kind=sec.get("kind", "normal").strip(),
                        value=float(sec.get("value", "0.0")),
                        tangential=_parse_tangential(sec.get("tangential", "free")))
            kwargs.setdefault("boundary", {})[edge] = bc
            continue
        if section not in ("case", "grid", "physics", "stepper", "output"):
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            name = "case" if (section == "case" and key == "name") else key
            if name not in known:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            kwargs[name] = _convert(name, raw)
            if kwargs[name] is None and known[name] is not None:
                raise ValueError(f"{name} in [{section}] needs a value, "
                                 f"got {raw.strip()!r}")
    return SimulationConfig(**kwargs)


def save_config(cfg: SimulationConfig, path):
    parser = configparser.ConfigParser()
    parser["case"] = {"name": cfg.case}

    def _fmt(v):
        if v is None:
            return "none"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        if isinstance(v, float):
            return repr(v)
        return str(v)

    for section, keys in (("grid", _GRID_KEYS), ("physics", _PHYSICS_KEYS),
                          ("stepper", _STEPPER_KEYS), ("output", _OUTPUT_KEYS)):
        parser[section] = {k: _fmt(getattr(cfg, k)) for k in sorted(keys)}
    for edge, bc in (cfg.boundary or {}).items():
        # a callable has no file form: refuse it rather than lose it
        tang = bc.tangential
        tang_data = ([d for _, _, d in tang] if isinstance(tang, (list, tuple))
                     else [tang])
        for name, data in (("value", [bc.value]), ("tangential", tang_data)):
            if any(callable(d) for d in data):
                raise ValueError(f"boundary.{edge}: callable {name} cannot be "
                                 "saved to a config file")
        parser[f"boundary.{edge}"] = {
            "kind": bc.kind,
            "value": repr(float(bc.value)),
            "tangential": _format_tangential(tang),
        }
    with open(path, "w") as fh:
        parser.write(fh)
