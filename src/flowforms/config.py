"""Simulation configuration: the one config object, plus the reader of
its INI-style file format.

Each SimulationConfig field but boundary is a setting declared once, by
`setting(section, parse, default, check)`: the config section of its
key, the parser of its text and the (test, "must ...") pair resolve()
applies. That table owns sections, grammar and checks; load_config,
resolve() and the CLI read it, and EDGE_KEYS owns the [boundary.<edge>]
keys.

SimulationConfig.resolve() validates a config and fills each of its
unset (None) domain, periodic, nu, alpha, dt and t_final from the case's
field of that name; runner.run works from the result, where dt=None
selects error control. So an unset dt (none/auto) is the case's own dt,
which is error control only where the case has none. Constants, not
settings: runner.ERROR_TOL, DT_*, stepper.PICARD_MAX_ITER.

File sections: [case] (key name), [grid], [physics], [stepper],
[output] and one [boundary.<edge>] per walled edge (keys kind, value,
tangential). Every key is optional, and an unset one keeps its default
or takes the case's value as above. Unknown keys, a key outside its own
section, unknown edges and kinds, boundary sections on a periodic
domain, a walled domain without one for each edge, tangential segments
that overlap or end off a cell boundary, a grid whose velocity line
`Broken1D.check` rejects, none/auto for a setting without an automatic
value (a None default) and a file configparser cannot parse are rejected.

boundary tangential grammar:  free | <float> | <float>@<lo>:<hi>[,...]
"""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cases import case_library
from .operators import EDGES, EdgeBC, check_boundary
from .splines import Broken1D


def parse_pair(text):
    """(a, b) from the integers "a,b", or (a, a) from "a"."""
    parts = [int(p) for p in str(text).split(",") if p.strip()]
    if len(parts) in (1, 2):
        return (parts[0], parts[-1])
    raise ValueError(f"expected one or two comma-separated values, got {text!r}")


def _parse_domain(text):
    vals = tuple(float(v) for v in text.split(","))
    if len(vals) != 4:
        raise ValueError("domain needs four values: x0,x1,y0,y1")
    return vals


def _parse_periodic(text):
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"periodic must be true or false, got {text!r}")


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


# [boundary.<edge>] key -> (the parser of its text, the text of an unset key)
EDGE_KEYS = {"kind": (str.strip, "normal"), "value": (float, "0.0"),
             "tangential": (_parse_tangential, "free")}


def setting(section, parse, default=None, check=None):
    """A SimulationConfig field: the config section of its key, the parser
    of its text and the (test, "must ...") pair resolve() applies. A None
    default is the automatic value that none/auto stands for."""
    return field(default=default, metadata={"section": section,
                                            "parse": parse, "check": check})


# comparisons that NaN fails too
_POSITIVE = (lambda v: 0 < v < np.inf, "must be positive and finite")
_NONNEGATIVE = (lambda v: 0 <= v < np.inf, "must be nonnegative and finite")


def _at_least(least):
    # bool is an Integral too, but no count
    return (lambda v: isinstance(v, numbers.Integral)
            and not isinstance(v, bool) and v >= least,
            f"must be an integer >= {least}")


_COUNTS = (lambda v: all(map(_at_least(1)[0], v)), "must be integers >= 1")


@dataclass
class SimulationConfig:
    case: str = setting("case", str, "taylor_green")
    degree: int = setting("grid", int, 2, _at_least(0))
    n_patches: tuple = setting("grid", parse_pair, (1, 1), _COUNTS)
    n_cells: tuple = setting("grid", parse_pair, (8, 8), _COUNTS)  # per patch
    domain: tuple = setting("grid", _parse_domain)    # (x0, x1, y0, y1)
    periodic: bool = setting("grid", _parse_periodic)
    nu: float = setting("physics", float, check=_NONNEGATIVE)
    alpha: float = setting("physics", float, check=_NONNEGATIVE)
    dt: float = setting("stepper", float, check=_POSITIVE)  # None = error control
    t_final: float = setting("stepper", float, check=_POSITIVE)
    picard_tol: float = setting("stepper", float, 1e-8, _POSITIVE)
    output_dir: str = setting("output", str, ".")
    diagnostics_file: str = setting("output", str, "diagnostics.csv")
    snapshot_prefix: str = setting("output", str, "snapshot")
    snapshot_grid: int = setting("output", int, 64, _at_least(1))
    snapshot_cadence: int = setting("output", int, 0, _at_least(0))  # 0 = none
    boundary: dict = None        # edge name -> EdgeBC, [boundary.<edge>]

    def resolve(self):
        """Fill unset values from the case library and validate them;
        returns (cfg, case). Raises ValueError on an invalid value."""
        case = case_library(self.case)
        unset = [k for k in ("domain", "periodic", "nu", "alpha", "dt",
                             "t_final") if getattr(self, k) is None]
        out = replace(self, **{k: getattr(case, k) for k in unset})
        if out.periodic and self.boundary:
            raise ValueError("boundary conditions given for a periodic domain")
        out.boundary = (None if out.periodic else
                        {**(case.boundary or {}), **(out.boundary or {})})
        if not (out.periodic or out.boundary):
            raise ValueError(
                f"boundary conditions missing for edges {sorted(EDGES)}")
        for f in fields(out):
            value, check = getattr(out, f.name), f.metadata.get("check")
            # None passes where it is the automatic value (a None default)
            if check and not (f.default is None if value is None
                              else check[0](value)):
                raise ValueError(f"{f.name} {check[1]}")
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


SETTINGS = {f.name: f for f in fields(SimulationConfig) if f.metadata}
# (section, key) -> the setting it sets; [case] holds the case as `name`
_FILE_KEYS = {(f.metadata["section"], "name" if f.name == "case" else f.name):
              f.name for f in SETTINGS.values()}


def labelled(label, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError prefixed with label (where the
    text came from: key and section, or option)."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def parse_setting(name, text, label):
    """The value of setting `name` from its text, read alike from the
    config file and the command line; none/auto (or nothing) is the
    automatic value. A ValueError names label."""
    text = text.strip()
    if text.lower() in ("none", "auto", ""):
        if SETTINGS[name].default is not None:
            raise ValueError(f"{label} needs a value, got {text!r}")
        return None
    return labelled(label, SETTINGS[name].metadata["parse"], text)


def load_config(path) -> SimulationConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
        text = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.InterpolationError as exc:    # in a value
        raise ValueError(f"{path}: {exc.option} in [{exc.section}]: "
                         f"{exc.message}") from None
    except configparser.Error as exc:     # in reading: names file and line
        raise ValueError(" ".join(exc.message.split())) from None
    kwargs = {}
    for section, sec in text.items():
        is_edge = section.startswith("boundary.")
        keys = EDGE_KEYS if is_edge else {k for s, k in _FILE_KEYS if s == section}
        if not keys:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in sec.items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            if not is_edge:
                name = _FILE_KEYS[section, key]
                kwargs[name] = parse_setting(name, raw, f"{key} in [{section}]")
        if is_edge:
            data = {k: labelled(f"{k} in [{section}]", parse, sec.get(k, unset))
                    for k, (parse, unset) in EDGE_KEYS.items()}
            kwargs.setdefault("boundary", {})[section.partition(".")[2]] = \
                labelled(f"[{section}]", EdgeBC, **data)
    return SimulationConfig(**kwargs)
