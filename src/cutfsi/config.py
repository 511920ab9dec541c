"""Case configuration: a small INI dialect describing geometry, materials,
boundary data, solver controls, and output for a coupled run.

Sections and keys (defaults in parentheses; every applied default is logged):

``[geometry]``
    background_origin, background_spacing, background_counts — the fixed flow
    grid; ``solid_mesh`` — path to a fitted mesh text file (omit for
    flow-only cases); ``solid_rigid`` (false).
``[materials]``
    young, poisson, solid_density (required with a solid mesh);
    fluid_viscosity (dynamic), fluid_density.
``[boundaries]``
    inlet_side (none), inlet_profile — polynomial coefficients in the
    transverse coordinate, ascending powers; inlet_curve = constant |
    cosine-ramp (constant) with ramp_duration; noslip_sides (empty);
    pin_pressure (false); body_force (none).  Sides not constrained are
    zero-traction outflow boundaries.
``[solver]``
    the fields of `DriverConfig` but ``nitsche``, each under its own name
    with its type and default (dt and n_steps have none: required); gamma
    (35.0) and gp_conv/gp_div/gp_press (0.05), the Nitsche and ghost
    penalties.
``[output]``
    directory ("output"), stride (1), and any number of ``probe_<name> = x y``
    entries giving reference coordinates of structural history probes.
"""

from __future__ import annotations

import configparser
import logging
import re
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .coupling import NitscheParams
from .driver import DriverConfig, FluidProblem, FsiProblem, SolidProblem, VelocityDirichlet
from .fluid import FluidParams
from .meshes import StructuredGrid, read_mesh_text
from .solid import NeoHookeanMaterial, SolidModel

log = logging.getLogger(__name__)

SIDES = ("left", "right", "bottom", "top")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent case files."""


@dataclass
class TimeCurve:
    """Piecewise temporal factor: smooth half-cosine ramp, then constant one."""

    kind: str = "constant"  # "constant" | "cosine-ramp"
    ramp_duration: float = 0.0

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return 1.0
        if t >= self.ramp_duration:
            return 1.0
        return 0.5 * (1.0 - np.cos(np.pi * t / self.ramp_duration))


@dataclass
class CaseConfig:
    """Validated run description; see the module docstring for the format."""

    # geometry
    background_origin: tuple[float, float] = (0.0, 0.0)
    background_spacing: tuple[float, float] = (1.0, 1.0)
    background_counts: tuple[int, int] = (1, 1)
    solid_mesh: str | None = None
    solid_rigid: bool = False
    # materials
    young: float | None = None
    poisson: float | None = None
    solid_density: float | None = None
    fluid_viscosity: float = 1.0
    fluid_density: float = 1.0
    # boundaries
    inlet_side: str | None = None
    inlet_profile: tuple[float, ...] = ()
    inlet_curve: TimeCurve = field(default_factory=TimeCurve)
    noslip_sides: tuple[str, ...] = ()
    pin_pressure: bool = False
    body_force: tuple[float, float] | None = None
    # solver: the keys named after DriverConfig fields, as parsed
    driver: dict[str, object] = field(default_factory=dict)
    gamma: float = NitscheParams.gamma
    gp_conv: float = FluidParams.gamma_conv
    gp_div: float = FluidParams.gamma_div
    gp_press: float = FluidParams.gamma_press
    # output
    output_directory: str = "output"
    output_stride: int = 1
    probes: dict[str, tuple[float, float]] = field(default_factory=dict)

    # -- builders -----------------------------------------------------------

    def background_grid(self) -> StructuredGrid:
        return StructuredGrid(
            self.background_origin, self.background_spacing, self.background_counts
        )

    def fluid_params(self) -> FluidParams:
        return FluidParams(
            density=self.fluid_density,
            viscosity=self.fluid_viscosity,
            gamma_conv=self.gp_conv,
            gamma_div=self.gp_div,
            gamma_press=self.gp_press,
        )

    def _inlet_value(self):
        coeffs = np.asarray(self.inlet_profile, dtype=float)
        transverse = 1 if self.inlet_side in ("left", "right") else 0
        curve = self.inlet_curve

        def value(pts, t):
            out = np.zeros((len(pts), 2))
            out[:, 0] = curve(t) * np.polynomial.polynomial.polyval(
                pts[:, transverse], coeffs
            )
            return out

        return value

    def build_fluid(self) -> FluidProblem:
        dirichlet = []
        if self.inlet_side is not None:
            dirichlet.append(VelocityDirichlet(self.inlet_side, self._inlet_value()))
        for side in self.noslip_sides:
            dirichlet.append(VelocityDirichlet(side))
        return FluidProblem(
            self.background_grid(),
            self.fluid_params(),
            dirichlet=dirichlet,
            body_force=self.body_force,
            pin_pressure=self.pin_pressure,
        )

    def build_solid(self, base: Path | None = None) -> SolidProblem | None:
        if self.solid_mesh is None:
            return None
        path = Path(self.solid_mesh)
        if base is not None and not path.is_absolute():
            path = base / path
        mesh = read_mesh_text(path)
        model = SolidModel(
            mesh,
            NeoHookeanMaterial(young=self.young, poisson=self.poisson),
            density=self.solid_density,
        )
        return SolidProblem(model, rigid=self.solid_rigid)

    def build_problem(self, base: Path | None = None) -> FsiProblem:
        return FsiProblem(self.build_fluid(), self.build_solid(base))

    def build_driver_config(self) -> DriverConfig:
        return DriverConfig(**self.driver, nitsche=NitscheParams(gamma=self.gamma))


# -- parsing ------------------------------------------------------------------


def _float(raw, line):
    try:
        value = float(raw)
    except ValueError as err:
        raise ConfigError(f"line {line}: {err}") from err
    if not np.isfinite(value):
        raise ConfigError(f"line {line}: expected a finite number, got {raw.strip()!r}")
    return value


def _int(raw, line):
    try:
        return int(raw)
    except ValueError as err:
        raise ConfigError(f"line {line}: {err}") from err


def _pair(raw, line, convert=_float):
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(f"line {line}: expected two values, got {raw!r}")
    return (convert(parts[0], line), convert(parts[1], line))


def _floats(raw, line):
    return tuple(_float(part, line) for part in raw.split())


def _bool(raw, line):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"line {line}: expected a boolean, got {raw!r}")


def _side(raw, line):
    side = raw.strip().lower()
    if side not in SIDES:
        raise ConfigError(f"line {line}: unknown side {raw!r}")
    return side


def _sides(raw, line):
    return tuple(_side(part, line) for part in raw.split())


def _text(raw, line):
    return raw.strip()


_CONVERTERS = {float: _float, int: _int, bool: _bool, str: _text}
# [solver] keys named after the DriverConfig fields they set, except
# `nitsche` (see `gamma`): name -> (converter of the field's type, default)
_DRIVER_KEYS = {
    f.name: (_CONVERTERS[get_type_hints(DriverConfig)[f.name]], f.default)
    for f in fields(DriverConfig)
    if f.name != "nitsche"
}


# (section, key) -> attribute, converter
_SCHEMA = {
    ("geometry", "background_origin"): ("background_origin", _pair),
    ("geometry", "background_spacing"): ("background_spacing", _pair),
    ("geometry", "background_counts"): (
        "background_counts",
        lambda raw, line: _pair(raw, line, _int),
    ),
    ("geometry", "solid_mesh"): ("solid_mesh", _text),
    ("geometry", "solid_rigid"): ("solid_rigid", _bool),
    ("materials", "young"): ("young", _float),
    ("materials", "poisson"): ("poisson", _float),
    ("materials", "solid_density"): ("solid_density", _float),
    ("materials", "fluid_viscosity"): ("fluid_viscosity", _float),
    ("materials", "fluid_density"): ("fluid_density", _float),
    ("boundaries", "inlet_side"): ("inlet_side", _side),
    ("boundaries", "inlet_profile"): ("inlet_profile", _floats),
    ("boundaries", "noslip_sides"): ("noslip_sides", _sides),
    ("boundaries", "pin_pressure"): ("pin_pressure", _bool),
    ("boundaries", "body_force"): ("body_force", _pair),
    ("solver", "gamma"): ("gamma", _float),
    ("solver", "gp_conv"): ("gp_conv", _float),
    ("solver", "gp_div"): ("gp_div", _float),
    ("solver", "gp_press"): ("gp_press", _float),
    ("output", "directory"): ("output_directory", _text),
    ("output", "stride"): ("output_stride", _int),
}

_CURVE_KEYS = {("boundaries", "inlet_curve"), ("boundaries", "ramp_duration")}
_REQUIRED_SECTIONS = ("geometry", "materials", "boundaries", "solver")
_REQUIRED_KEYS = (
    ("geometry", "background_origin"),
    ("geometry", "background_spacing"),
    ("geometry", "background_counts"),
    *(("solver", key) for key, (_, default) in _DRIVER_KEYS.items() if default is MISSING),
)


def _key_lines(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to the 1-based line the key appears on."""
    lines = {}
    section = None
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            lines[(section, None)] = number
            continue
        key = re.match("([^=:]*)[=:]", stripped)  # configparser's delimiters
        if key and section is not None:
            lines[(section, key[1].strip().lower())] = number
    return lines


def parse_config_text(text: str) -> CaseConfig:
    """Parse and validate a case description given as text."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(str(err)) from err
    where = _key_lines(text)

    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    cfg = CaseConfig()
    seen = set()
    curve_kind, curve_line = None, 0
    ramp_duration, ramp_line = None, 0
    for section in parser.sections():
        lowered = section.lower()
        if lowered not in (*_REQUIRED_SECTIONS, "output"):
            raise ConfigError(
                f"line {where.get((lowered, None), 0)}: unknown section [{section}]"
            )
        for key, raw in parser.items(section):
            line = where.get((lowered, key), 0)
            if (lowered, key) in _CURVE_KEYS:
                if key == "inlet_curve":
                    curve_kind, curve_line = raw.strip().lower(), line
                else:
                    ramp_duration, ramp_line = _float(raw, line), line
                continue
            if lowered == "output" and key.startswith("probe_"):
                cfg.probes[key[len("probe_"):]] = _pair(raw, line)
                continue
            if lowered == "solver" and key in _DRIVER_KEYS:
                cfg.driver[key] = _DRIVER_KEYS[key][0](raw, line)
            elif (lowered, key) in _SCHEMA:
                attr, convert = _SCHEMA[(lowered, key)]
                setattr(cfg, attr, convert(raw, line))
            else:
                raise ConfigError(f"line {line}: unknown key {key!r} in section [{section}]")
            seen.add((lowered, key))

    for section, key in _REQUIRED_KEYS:
        if (section, key) not in seen:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")

    if curve_kind is not None and curve_kind not in ("constant", "cosine-ramp"):
        raise ConfigError(f"line {curve_line}: unknown inlet_curve {curve_kind!r}")
    if curve_kind == "cosine-ramp":
        if ramp_duration is None:
            raise ConfigError(
                f"line {curve_line}: cosine-ramp requires ramp_duration"
            )
        if ramp_duration <= 0.0:
            raise ConfigError(f"line {ramp_line}: ramp_duration must be positive")
        cfg.inlet_curve = TimeCurve("cosine-ramp", ramp_duration)
    elif ramp_duration is not None:
        raise ConfigError(f"line {ramp_line}: ramp_duration requires inlet_curve = cosine-ramp")

    _validate(cfg, where)
    _log_defaults(seen)
    return cfg


def parse_config(path) -> CaseConfig:
    """Parse and validate the case file at `path`."""
    return parse_config_text(Path(path).read_text())


def _line(where, section, key):
    return where.get((section, key), 0)


def _validate(cfg: CaseConfig, where) -> None:
    if cfg.background_spacing[0] <= 0.0 or cfg.background_spacing[1] <= 0.0:
        raise ConfigError(
            f"line {_line(where, 'geometry', 'background_spacing')}: "
            "spacing must be positive"
        )
    if cfg.background_counts[0] < 1 or cfg.background_counts[1] < 1:
        raise ConfigError(
            f"line {_line(where, 'geometry', 'background_counts')}: "
            "counts must be at least 1"
        )
    if cfg.fluid_viscosity <= 0.0:
        raise ConfigError(
            f"line {_line(where, 'materials', 'fluid_viscosity')}: "
            "fluid_viscosity must be positive"
        )
    if cfg.fluid_density <= 0.0:
        raise ConfigError(
            f"line {_line(where, 'materials', 'fluid_density')}: "
            "fluid_density must be positive"
        )
    if cfg.solid_mesh is not None:
        for name in ("young", "poisson", "solid_density"):
            if getattr(cfg, name) is None:
                raise ConfigError(f"solid_mesh given but {name!r} missing")
        if cfg.young <= 0.0:
            raise ConfigError(
                f"line {_line(where, 'materials', 'young')}: young must be positive"
            )
        if not (-1.0 < cfg.poisson < 0.5):
            raise ConfigError(
                f"line {_line(where, 'materials', 'poisson')}: "
                "poisson must lie in the open interval (-1, 0.5)"
            )
        if cfg.solid_density <= 0.0:
            raise ConfigError(
                f"line {_line(where, 'materials', 'solid_density')}: "
                "solid_density must be positive"
            )
    if cfg.inlet_side is not None and not cfg.inlet_profile:
        raise ConfigError("inlet_side given but inlet_profile missing")
    for key in ("inlet_profile", "inlet_curve"):
        if cfg.inlet_side is None and ("boundaries", key) in where:
            raise ConfigError(
                f"line {_line(where, 'boundaries', key)}: {key} given but inlet_side missing"
            )
    if cfg.inlet_side in cfg.noslip_sides:
        # the no-slip values would overwrite the inflow on that side
        raise ConfigError(
            f"line {_line(where, 'boundaries', 'noslip_sides')}: "
            f"noslip_sides lists the inlet side {cfg.inlet_side!r}"
        )
    if cfg.output_stride < 1:
        raise ConfigError(
            f"line {_line(where, 'output', 'stride')}: stride must be at least 1"
        )
    # driver-side validation (dt, theta, tolerances, ...) with config context
    try:
        cfg.build_driver_config()
    except ValueError as err:
        raise ConfigError(f"solver section invalid: {err}") from err


def _log_defaults(seen) -> None:
    defaults = [(key, getattr(CaseConfig(), attr)) for key, (attr, _) in _SCHEMA.items()]
    defaults += [(("solver", key), default) for key, (_, default) in _DRIVER_KEYS.items()]
    for (section, key), default in defaults:
        if (section, key) not in seen:
            log.info("default applied: %s.%s = %r", section, key, default)
