"""Case-file parsing: schema validation with line numbers, logged defaults,
time curves and builders."""

import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutfsi.cli import main
from cutfsi.config import (
    CaseConfig,
    ConfigError,
    TimeCurve,
    parse_config,
    parse_config_text,
)
from cutfsi.driver import DriverConfig
from cutfsi.fluid import FluidParams
from cutfsi.meshes import rectangle_fitted_mesh, write_mesh_text

MINIMAL = """\
[geometry]
background_origin = 0.0 0.0
background_spacing = 0.1 0.1
background_counts = 10 5

[materials]
fluid_viscosity = 0.01
fluid_density = 1.0

[boundaries]
noslip_sides = bottom top

[solver]
dt = 0.05
n_steps = 4
"""

FULL = """\
[geometry]
background_origin = -0.75 -0.5
background_spacing = 0.05 0.05
background_counts = 30 20
solid_mesh = flap.mesh
solid_rigid = false

[materials]
young = 500.0
poisson = 0.3
solid_density = 100.0
fluid_viscosity = 1.0
fluid_density = 1.0

[boundaries]
inlet_side = left
inlet_profile = 1.0 0.0 -6.25
inlet_curve = cosine-ramp
ramp_duration = 0.5
noslip_sides = bottom top
pin_pressure = false
body_force = 0.0 -2.0

[solver]
dt = 0.005
n_steps = 10
theta = 0.5
theta_interface = 0.5
rho_inf = 0.8
tol = 1e-10
max_newton = 30
max_cycles = 3
gamma = 45.0
gp_conv = 0.04
gp_div = 0.03
gp_press = 0.02
freeze_space = true
predictor = velocity
backward_euler_first_step = false

[output]
directory = results
stride = 2
probe_tip = 0.2 0.66
probe_root = 0.2 0.0
"""


def _lines_with(text, fragment):
    return [i for i, line in enumerate(text.splitlines(), 1) if fragment in line]


class TestParsing:
    def test_minimal_config_applies_and_logs_defaults(self, caplog):
        with caplog.at_level(logging.INFO, logger="cutfsi.config"):
            cfg = parse_config_text(MINIMAL)
        assert cfg.theta == 1.0
        assert cfg.gamma == 35.0
        assert cfg.theta_interface == 1.0
        assert cfg.max_newton == 25
        assert cfg.inlet_side is None
        assert cfg.solid_mesh is None
        logged = "\n".join(rec.getMessage() for rec in caplog.records)
        assert "default applied: solver.theta = 1.0" in logged
        assert "default applied: solver.gamma = 35.0" in logged

    def test_full_config_values(self):
        cfg = parse_config_text(FULL)
        assert cfg.background_origin == (-0.75, -0.5)
        assert cfg.background_counts == (30, 20)
        assert cfg.solid_mesh == "flap.mesh"
        assert cfg.young == 500.0
        assert cfg.poisson == 0.3
        assert cfg.solid_density == 100.0
        assert cfg.inlet_profile == (1.0, 0.0, -6.25)
        assert cfg.inlet_curve == TimeCurve("cosine-ramp", 0.5)
        assert cfg.noslip_sides == ("bottom", "top")
        assert cfg.body_force == (0.0, -2.0)
        assert cfg.dt == 0.005
        assert cfg.gamma == 45.0
        assert cfg.predictor == "velocity"
        assert cfg.output_directory == "results"
        assert cfg.probes == {"tip": (0.2, 0.66), "root": (0.2, 0.0)}

    def test_paper_flap_constants_parse(self):
        """The oscillating-flap material set: E=500, nu=0.3, solid density
        100, unit fluid density and viscosity, dt=0.005."""
        cfg = parse_config_text(FULL)
        assert (cfg.young, cfg.poisson, cfg.solid_density) == (500.0, 0.3, 100.0)
        assert (cfg.fluid_viscosity, cfg.fluid_density) == (1.0, 1.0)
        assert cfg.dt == 0.005

    def test_comments_and_case_insensitive_keys(self):
        text = MINIMAL.replace("dt = 0.05", "DT = 0.05  # comment")
        cfg = parse_config_text(text)
        assert cfg.dt == 0.05

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text(MINIMAL)
        assert parse_config(path).dt == 0.05


class TestErrors:
    def test_unknown_key_reports_line(self):
        text = MINIMAL.replace("dt = 0.05", "dt = 0.05\ntimestep = 0.05")
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'timestep'"):
            parse_config_text(text)
        (line,) = _lines_with(text, "timestep")
        with pytest.raises(ConfigError, match=f"line {line}:"):
            parse_config_text(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config_text(MINIMAL + "\n[extras]\nfoo = 1\n")

    @pytest.mark.parametrize("section", ["geometry", "materials", "solver"])
    def test_missing_section(self, section):
        lines = MINIMAL.splitlines()
        start = lines.index(f"[{section}]")
        end = next(
            (i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
            len(lines),
        )
        text = "\n".join(lines[:start] + lines[end:])
        with pytest.raises(ConfigError, match=rf"missing section \[{section}\]"):
            parse_config_text(text)

    def test_missing_required_key(self):
        text = MINIMAL.replace("dt = 0.05\n", "")
        with pytest.raises(ConfigError, match="missing required key 'dt'"):
            parse_config_text(text)

    def test_incompressible_poisson_rejected(self):
        text = FULL.replace("poisson = 0.3", "poisson = 0.5")
        (line,) = _lines_with(text, "poisson")
        with pytest.raises(ConfigError, match=f"line {line}: poisson must lie"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("fluid_viscosity = 0.01", "fluid_viscosity = -1.0", "must be positive"),
            ("background_spacing = 0.1 0.1", "background_spacing = 0.1 0.0", "spacing"),
            ("background_counts = 10 5", "background_counts = 0 5", "at least 1"),
            ("dt = 0.05", "dt = -0.05", "solver section invalid"),
            ("n_steps = 4", "n_steps = -1", "solver section invalid"),
            ("dt = 0.05", "dt = fast", "could not convert"),
            ("noslip_sides = bottom top", "noslip_sides = bottom floor", "unknown side"),
        ],
    )
    def test_invalid_values(self, old, new, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(MINIMAL.replace(old, new))

    def test_bad_boolean(self):
        text = FULL.replace("freeze_space = true", "freeze_space = maybe")
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config_text(text)

    def test_ramp_requires_duration(self):
        text = FULL.replace("ramp_duration = 0.5\n", "")
        with pytest.raises(ConfigError, match="requires ramp_duration"):
            parse_config_text(text)

    def test_ramp_duration_positive(self):
        text = FULL.replace("ramp_duration = 0.5", "ramp_duration = 0.0")
        with pytest.raises(ConfigError, match="ramp_duration must be positive"):
            parse_config_text(text)

    def test_unknown_curve(self):
        text = FULL.replace("inlet_curve = cosine-ramp", "inlet_curve = spline")
        with pytest.raises(ConfigError, match="unknown inlet_curve"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "entries",
        [
            "inlet_profile = 1.0",
            "inlet_curve = constant",
            "inlet_curve = cosine-ramp\nramp_duration = 0.5",
        ],
        ids=["profile", "constant-curve", "ramp-curve"],
    )
    def test_inlet_data_needs_a_side(self, entries):
        # without a side the inlet data would build no inflow at all
        text = MINIMAL.replace("noslip_sides = bottom top", f"noslip_sides = bottom top\n{entries}")
        key = entries.split()[0]
        (line,) = _lines_with(text, key)
        with pytest.raises(ConfigError, match=f"line {line}: {key} given but inlet_side missing"):
            parse_config_text(text)

    @pytest.mark.parametrize("curve", ["", "inlet_curve = constant\n"], ids=["no-curve", "constant"])
    @pytest.mark.parametrize("duration", ["0.5", "-3"])
    def test_ramp_duration_needs_the_cosine_ramp(self, curve, duration):
        # without the ramp curve the duration would be ignored, whatever it is
        text = FULL.replace("inlet_curve = cosine-ramp\n", curve)
        text = text.replace("ramp_duration = 0.5", f"ramp_duration = {duration}")
        (line,) = _lines_with(text, "ramp_duration")
        message = f"line {line}: ramp_duration requires inlet_curve = cosine-ramp"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    def test_solid_mesh_requires_materials(self):
        text = MINIMAL.replace(
            "[materials]", "[materials]\n# solid constants missing"
        ).replace("background_counts = 10 5", "background_counts = 10 5\nsolid_mesh = flap.mesh")
        with pytest.raises(ConfigError, match="solid_mesh given but 'young' missing"):
            parse_config_text(text)

    def test_inlet_needs_profile(self):
        text = MINIMAL.replace(
            "noslip_sides = bottom top", "noslip_sides = bottom top\ninlet_side = left"
        )
        with pytest.raises(ConfigError, match="inlet_profile missing"):
            parse_config_text(text)

    def test_embedded_patch_keys_are_unknown(self):
        # An overlapping patch is built through the Python API only; a case
        # file that names one is refused rather than silently ignored.
        for key, value in (
            ("embedded_origin", "0.1 0.1"),
            ("embedded_spacing", "0.025 0.025"),
            ("embedded_counts", "8 6"),
        ):
            text = MINIMAL.replace(
                "background_counts = 10 5",
                f"background_counts = 10 5\n{key} = {value}",
            )
            (line,) = _lines_with(text, key)
            with pytest.raises(
                ConfigError, match=f"line {line}: unknown key '{key}'"
            ):
                parse_config_text(text)

    def _refused_by_run(self, tmp_path, capsys, text, message):
        path = tmp_path / "case.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_inlet_side_listed_as_noslip(self, tmp_path, capsys):
        # the no-slip zeros would overwrite the inflow profile on that side
        text = MINIMAL.replace(
            "noslip_sides = bottom top",
            "inlet_side = left\ninlet_profile = 1.0\nnoslip_sides = left bottom top",
        )
        (line,) = _lines_with(text, "noslip_sides")
        message = f"line {line}: noslip_sides lists the inlet side 'left'"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)
        self._refused_by_run(tmp_path, capsys, text, message)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("dt = 0.05", "dt = inf"),
            ("dt = 0.05", "dt = nan"),
            ("n_steps = 4", "n_steps = 4\ntol = nan"),
            ("fluid_viscosity = 0.01", "fluid_viscosity = inf"),
        ],
    )
    def test_non_finite_number(self, tmp_path, capsys, old, new):
        text = MINIMAL.replace(old, new)
        key, value = new.splitlines()[-1].split(" = ")
        (line,) = _lines_with(text, f"{key} = ")
        message = f"line {line}: expected a finite number, got {value!r}"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)
        self._refused_by_run(tmp_path, capsys, text, message)

    def test_zero_stride(self):
        with pytest.raises(ConfigError, match="stride must be at least 1"):
            parse_config_text(MINIMAL + "\n[output]\nstride = 0\n")


class TestTimeCurve:
    def test_constant(self):
        curve = TimeCurve()
        assert curve(0.0) == 1.0
        assert curve(17.3) == 1.0

    def test_cosine_ramp_shape(self):
        curve = TimeCurve("cosine-ramp", ramp_duration=2.0)
        assert curve(0.0) == 0.0
        assert curve(1.0) == pytest.approx(0.5)
        assert curve(2.0) == 1.0
        assert curve(5.0) == 1.0
        # smooth start: derivative ~ 0 at t=0
        assert curve(1e-6) < 1e-9

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_and_bounded(self, t):
        curve = TimeCurve("cosine-ramp", ramp_duration=3.0)
        value = curve(t)
        assert 0.0 <= value <= 1.0
        assert value <= curve(min(t + 0.1, 3.0)) + 1e-15


class TestBuilders:
    def test_background_grid_and_fluid(self):
        cfg = parse_config_text(FULL)
        grid = cfg.background_grid()
        assert grid.origin == pytest.approx((-0.75, -0.5))
        assert grid.counts == (30, 20)
        fluid = cfg.build_fluid()
        assert fluid.params.density == 1.0
        assert fluid.params.gamma_conv == 0.04
        assert fluid.body_force == (0.0, -2.0)
        sides = [bc.side for bc in fluid.dirichlet]
        assert sides == ["left", "bottom", "top"]

    def test_inlet_profile_polynomial_times_curve(self):
        cfg = parse_config_text(FULL)
        inlet = cfg.build_fluid().dirichlet[0]
        pts = np.array([[0.0, 0.0], [0.0, 0.2], [0.0, 0.4]])
        poly = 1.0 - 6.25 * pts[:, 1] ** 2
        late = inlet.evaluate(pts, 2.0)  # past the ramp
        np.testing.assert_allclose(late[:, 0], poly, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(late[:, 1], 0.0)
        half = inlet.evaluate(pts, 0.25)  # halfway through ramp: factor 1/2
        np.testing.assert_allclose(half[:, 0], 0.5 * poly, rtol=1e-14, atol=1e-15)

    def test_build_solid_from_mesh_file(self, tmp_path):
        mesh = rectangle_fitted_mesh(0.9, 0.0, 0.2, 0.66, 2, 4, {"bottom": "clamped"})
        write_mesh_text(tmp_path / "flap.mesh", mesh)
        cfg = parse_config_text(FULL)
        solid = cfg.build_solid(base=tmp_path)
        assert solid.model.mesh.n_nodes == mesh.n_nodes
        assert solid.model.material.young == 500.0
        assert solid.model.density == 100.0
        assert not solid.rigid
        problem = cfg.build_problem(base=tmp_path)
        assert problem.solid is solid or problem.solid.model.mesh.n_nodes == mesh.n_nodes

    def test_build_solid_none_without_mesh(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.build_solid() is None
        assert cfg.build_problem().solid is None

    def test_required_keys_alone_give_the_solver_defaults(self):
        text = MINIMAL.replace("noslip_sides = bottom top\n", "")
        text = text.replace("fluid_viscosity = 0.01\nfluid_density = 1.0\n", "")
        cfg = parse_config_text(text)
        assert cfg.build_driver_config() == DriverConfig(dt=0.05, n_steps=4)
        assert cfg.fluid_params() == FluidParams(density=1.0, viscosity=1.0)

    def test_build_driver_config(self):
        cfg = parse_config_text(FULL)
        driver = cfg.build_driver_config()
        assert driver.dt == 0.005
        assert driver.n_steps == 10
        assert driver.theta == 0.5
        assert driver.rho_inf == 0.8
        assert driver.nitsche.gamma == 45.0
        assert driver.freeze_space
        assert driver.predictor == "velocity"
        assert not driver.backward_euler_first_step
