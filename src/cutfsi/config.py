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
    dt, n_steps (required); theta (1.0), theta_interface (1.0), rho_inf
    (1.0), tol (1e-8), max_newton (25), max_cycles (5), gamma (35.0),
    gp_conv/gp_div/gp_press (0.05), freeze_space (false), predictor
    (constant), backward_euler_first_step (true).
``[output]``
    directory ("output"), stride (1), and any number of ``probe_<name> = x y``
    entries giving reference coordinates of structural history probes.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, field
from pathlib import Path

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
    # solver
    dt: float = 0.1
    n_steps: int = 1
    theta: float = DriverConfig.theta
    theta_interface: float = DriverConfig.theta_interface
    rho_inf: float = DriverConfig.rho_inf
    tol: float = DriverConfig.tol
    max_newton: int = DriverConfig.max_newton
    max_cycles: int = DriverConfig.max_cycles
    gamma: float = NitscheParams.gamma
    gp_conv: float = FluidParams.gamma_conv
    gp_div: float = FluidParams.gamma_div
    gp_press: float = FluidParams.gamma_press
    freeze_space: bool = DriverConfig.freeze_space
    predictor: str = DriverConfig.predictor
    backward_euler_first_step: bool = DriverConfig.backward_euler_first_step
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

    def nitsche_params(self) -> NitscheParams:
        return NitscheParams(gamma=self.gamma)

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
        return DriverConfig(
            dt=self.dt,
            n_steps=self.n_steps,
            theta=self.theta,
            theta_interface=self.theta_interface,
            rho_inf=self.rho_inf,
            tol=self.tol,
            max_newton=self.max_newton,
            max_cycles=self.max_cycles,
            nitsche=self.nitsche_params(),
            freeze_space=self.freeze_space,
            predictor=self.predictor,
            backward_euler_first_step=self.backward_euler_first_step,
        )


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


# (section, key) -> attribute, converter
_SCHEMA = {
    ("geometry", "background_origin"): ("background_origin", _pair),
    ("geometry", "background_spacing"): ("background_spacing", _pair),
    ("geometry", "background_counts"): (
        "background_counts",
        lambda raw, line: _pair(raw, line, _int),
    ),
    ("geometry", "solid_mesh"): ("solid_mesh", lambda raw, line: raw.strip()),
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
    ("solver", "dt"): ("dt", _float),
    ("solver", "n_steps"): ("n_steps", _int),
    ("solver", "theta"): ("theta", _float),
    ("solver", "theta_interface"): ("theta_interface", _float),
    ("solver", "rho_inf"): ("rho_inf", _float),
    ("solver", "tol"): ("tol", _float),
    ("solver", "max_newton"): ("max_newton", _int),
    ("solver", "max_cycles"): ("max_cycles", _int),
    ("solver", "gamma"): ("gamma", _float),
    ("solver", "gp_conv"): ("gp_conv", _float),
    ("solver", "gp_div"): ("gp_div", _float),
    ("solver", "gp_press"): ("gp_press", _float),
    ("solver", "freeze_space"): ("freeze_space", _bool),
    ("solver", "predictor"): ("predictor", lambda raw, line: raw.strip()),
    ("solver", "backward_euler_first_step"): ("backward_euler_first_step", _bool),
    ("output", "directory"): ("output_directory", lambda raw, line: raw.strip()),
    ("output", "stride"): ("output_stride", _int),
}

_CURVE_KEYS = {("boundaries", "inlet_curve"), ("boundaries", "ramp_duration")}
_REQUIRED_SECTIONS = ("geometry", "materials", "boundaries", "solver")
_REQUIRED_KEYS = (
    ("geometry", "background_origin"),
    ("geometry", "background_spacing"),
    ("geometry", "background_counts"),
    ("solver", "dt"),
    ("solver", "n_steps"),
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
        if "=" in stripped and section is not None:
            key = stripped.split("=", 1)[0].strip().lower()
            lines[(section, key)] = number
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
            try:
                attr, convert = _SCHEMA[(lowered, key)]
            except KeyError:
                raise ConfigError(
                    f"line {line}: unknown key {key!r} in section [{section}]"
                ) from None
            setattr(cfg, attr, convert(raw, line))
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
    for (section, key), (attr, _) in _SCHEMA.items():
        if (section, key) not in seen:
            default = getattr(CaseConfig(), attr)
            log.info("default applied: %s.%s = %r", section, key, default)
