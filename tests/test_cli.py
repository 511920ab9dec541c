"""Command-line interface: subcommand behavior, exit codes, artifacts."""

import csv

import numpy as np
import pytest
import scipy.io

import cutfsi.cli as cli_module
import cutfsi.driver as driver_module
from cutfsi.cli import main
from cutfsi.linalg import LU
from cutfsi.meshes import rectangle_fitted_mesh, write_mesh_text

# -- fixtures -----------------------------------------------------------------


def _write_flap_case(tmp_path, n_steps=4, stride=2, probes=True, freeze_space=False):
    """A 3x3-grid channel with a short clamped flap: small enough that a
    handful of coupled steps run in about a second."""
    mesh = rectangle_fitted_mesh(0.27, 0.0, 0.1, 0.3, 1, 2, {"bottom": "clamped"})
    write_mesh_text(tmp_path / "flap_mesh.txt", mesh)
    probe_line = "probe_tip = 0.32 0.3" if probes else ""
    text = f"""
[geometry]
background_origin = 0.0 0.0
background_spacing = 0.2 0.2
background_counts = 3 3
solid_mesh = flap_mesh.txt

[materials]
young = 500.0
poisson = 0.3
solid_density = 10.0
fluid_viscosity = 0.1
fluid_density = 1.0

[boundaries]
inlet_side = left
inlet_profile = 0.0 4.0 -6.6666666666666667
inlet_curve = cosine-ramp
ramp_duration = 0.4
noslip_sides = bottom top

[solver]
dt = 0.05
n_steps = {n_steps}
gamma = 35.0
freeze_space = {str(freeze_space).lower()}

[output]
directory = {tmp_path / "out"}
stride = {stride}
{probe_line}
"""
    path = tmp_path / "case.ini"
    path.write_text(text)
    return path


def _write_square_case(tmp_path):
    """A rigid unit-square obstacle centered in a 4x4 background grid; every
    classification count is derivable by hand."""
    mesh = rectangle_fitted_mesh(0.3, 0.3, 0.4, 0.4, 1, 1)
    write_mesh_text(tmp_path / "square.txt", mesh)
    path = tmp_path / "square.ini"
    path.write_text(
        """
[geometry]
background_origin = 0.0 0.0
background_spacing = 0.25 0.25
background_counts = 4 4
solid_mesh = square.txt
solid_rigid = true

[materials]
young = 1.0
poisson = 0.3
solid_density = 1.0

[boundaries]

[solver]
dt = 0.1
n_steps = 1
"""
    )
    return path


# -- verify ---------------------------------------------------------------------


class TestVerify:
    def test_fast_suites_pass_and_exit_zero(self, capsys):
        assert main(["verify", "geometry", "jump-average"]) == 0
        out = capsys.readouterr().out
        assert "PASS — geometry" in out
        assert "PASS — jump-average" in out
        assert "2 of 2 suites passed" in out

    def test_quadrature_alias_runs_geometry_suite(self, capsys):
        assert main(["verify", "quadrature"]) == 0
        out = capsys.readouterr().out
        assert "PASS — geometry" in out
        assert "area defect" in out

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["verify", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown suite" in err and "nope" in err

    def test_tolerance_scale_flag(self, capsys):
        assert main(["verify", "geometry", "--verify-tol-scale", "10"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.ini")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_given_twice_exits_one(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path)
        assert main(["run", str(path), "--config", str(path)]) == 1
        assert "exactly once" in capsys.readouterr().err


# -- run --------------------------------------------------------------------------


class TestRun:
    def test_writes_snapshots_diagnostics_checkpoint(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path, n_steps=4, stride=2)
        ck = tmp_path / "final.npz"
        assert main(["run", str(path), "--checkpoint", str(ck)]) == 0
        assert "completed 4 steps" in capsys.readouterr().out

        out = tmp_path / "out"
        for k in (0, 2, 4):
            assert (out / f"fluid_{k:06d}.vtk").exists()
            assert (out / f"solid_{k:06d}.vtk").exists()
        assert not (out / "fluid_000001.vtk").exists()
        assert ck.exists()

        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:5] == [
            "step", "time", "cycles", "newton_iterations", "space_changes",
        ]
        assert "tip_dx" in header and "tip_dy" in header
        assert len(rows) == 1 + 4
        tip_dx = float(rows[-1].split(",")[header.index("tip_dx")])
        assert np.isfinite(tip_dx) and tip_dx != 0.0

    def test_steps_flag_overrides_config(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path, n_steps=6, probes=False)
        assert main(["run", str(path), "--steps", "2"]) == 0
        assert "completed 2 steps" in capsys.readouterr().out

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        path = _write_flap_case(tmp_path, n_steps=6, probes=False)
        full_ck = tmp_path / "full.npz"
        assert main([
            "run", str(path), "--checkpoint", str(full_ck),
            "--output-dir", str(tmp_path / "a"),
        ]) == 0

        # checkpoints are written to exactly the names given, ".npz" or not
        half_ck = tmp_path / "half.state"
        resumed_ck = tmp_path / "resumed"
        assert main([
            "run", str(path), "--steps", "3", "--checkpoint", str(half_ck),
            "--output-dir", str(tmp_path / "b"),
        ]) == 0
        assert main([
            "run", str(path), "--resume", str(half_ck),
            "--checkpoint", str(resumed_ck),
            "--output-dir", str(tmp_path / "c"),
        ]) == 0
        assert [p.name for p in tmp_path.glob("*.npz")] == ["full.npz"]

        with np.load(full_ck) as full, np.load(resumed_ck) as res:
            assert full.files == res.files
            for key in full.files:
                assert np.array_equal(full[key], res[key]), key

    def test_new_run_starts_a_new_diagnostics_table(self, tmp_path):
        path = _write_flap_case(tmp_path, n_steps=2, probes=False)
        assert main(["run", str(path)]) == 0
        assert main(["run", str(path)]) == 0
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as f:
            assert [row["step"] for row in csv.DictReader(f)] == ["1", "2"]

    def test_resume_appends_to_the_diagnostics_table(self, tmp_path):
        path = _write_flap_case(tmp_path, n_steps=4)
        ck = tmp_path / "ck.npz"
        assert main(["run", str(path), "--steps", "2", "--checkpoint", str(ck)]) == 0
        assert main(["run", str(path), "--resume", str(ck)]) == 0
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as f:
            assert [row["step"] for row in csv.DictReader(f)] == ["1", "2", "3", "4"]

    def test_resume_past_requested_steps_exits_one(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path, n_steps=2, probes=False)
        ck = tmp_path / "ck.npz"
        assert main([
            "run", str(path), "--checkpoint", str(ck),
            "--output-dir", str(tmp_path / "a"),
        ]) == 0
        assert main([
            "run", str(path), "--resume", str(ck), "--steps", "1",
            "--output-dir", str(tmp_path / "b"),
        ]) == 1
        assert "past the requested" in capsys.readouterr().err

    def test_resume_on_another_grid_exits_one(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path, n_steps=2, probes=False)
        ck = tmp_path / "ck.npz"
        assert main([
            "run", str(path), "--steps", "1", "--checkpoint", str(ck),
            "--output-dir", str(tmp_path / "a"),
        ]) == 0
        # the same 0.6 x 0.6 domain, refined from 3x3 to 6x6 cells
        path.write_text(
            path.read_text()
            .replace("background_spacing = 0.2 0.2", "background_spacing = 0.1 0.1")
            .replace("background_counts = 3 3", "background_counts = 6 6")
        )
        assert main([
            "run", str(path), "--resume", str(ck), "--output-dir", str(tmp_path / "b"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {ck} does not fit the case: U has 32 entries, " in err
        assert "the case needs 98" in err

    def test_dump_matrix_exports_square_coupled_system(self, tmp_path):
        path = _write_flap_case(tmp_path, n_steps=1, probes=False)
        mats = tmp_path / "mats"
        assert main(["run", str(path), "--dump-matrix", str(mats)]) == 0
        matrix = scipy.io.mmread(mats / "system_000001.mtx")
        # 16 background nodes x (u, v, p) plus 6 structure nodes x (dx, dy)
        assert matrix.shape == (60, 60)

    @pytest.mark.parametrize("freeze_space", [False, True])
    def test_dump_matrix_is_the_converged_matrix_of_each_step(
        self, tmp_path, monkeypatch, freeze_space
    ):
        # the matrix of every Newton solve, factorised or refined on the
        # attempt's last LU, and the dump that ends each step
        events = []
        factor_solve, refine, dump = driver_module.factor_solve, LU.refine, cli_module._dump_matrix

        def factoring(A, b, **kw):
            events.append(("factor", A.copy()))
            return factor_solve(A, b, **kw)

        def refining(lu, A, b, **kw):
            x = refine(lu, A, b, **kw)
            events.append(("gave up" if x is None else "refined", A.copy()))
            return x

        def dumping(driver, state, report, directory):
            events.append(("dump", None))
            return dump(driver, state, report, directory)

        monkeypatch.setattr(driver_module, "factor_solve", factoring)
        monkeypatch.setattr(LU, "refine", refining)
        monkeypatch.setattr(cli_module, "_dump_matrix", dumping)
        path = _write_flap_case(
            tmp_path, n_steps=6, probes=False, freeze_space=freeze_space
        )
        mats = tmp_path / "mats"
        assert main(["run", str(path), "--dump-matrix", str(mats)]) == 0
        # an attempt interrupted by a space change counts the iteration it
        # stopped at, which solves nothing
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as f:
            solves = [
                int(row["newton_iterations"]) - int(row["space_changes"])
                for row in csv.DictReader(f)
            ]
        ends = [i for i, (kind, _) in enumerate(events) if kind == "dump"]
        assert len(solves) == len(ends) == 6
        refined = 0
        for step, (first, end) in enumerate(zip([-1] + ends, ends), start=1):
            kinds = [kind for kind, _ in events[first + 1 : end]]
            # each solving iteration factorises or keeps its refinement
            assert kinds.count("factor") + kinds.count("refined") == solves[step - 1], step
            refined += kinds.count("refined")
            assert kinds[-1] != "gave up", step
            A = events[end - 1][1]
            B = scipy.io.mmread(mats / f"system_{step:06d}.mtx")
            assert A.shape == B.shape
            assert (A != B).nnz == 0, step
        assert refined > 0

    def test_dump_matrix_computes_no_ordering(self, tmp_path, monkeypatch):
        # the dump reassembles through the driver's plan, or a fresh one when
        # the step changed the space, and factorises nothing
        import cutfsi.linalg as linalg

        orderings = []
        spilu = linalg.spla.spilu
        monkeypatch.setattr(
            linalg.spla, "spilu", lambda S, **kw: orderings.append(1) or spilu(S, **kw)
        )
        path = _write_flap_case(tmp_path, n_steps=3, probes=False)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "a")]) == 0
        plain = len(orderings)
        mats = tmp_path / "mats"
        assert main([
            "run", str(path), "--output-dir", str(tmp_path / "b"), "--dump-matrix", str(mats)
        ]) == 0
        assert plain >= 1 and len(orderings) == 2 * plain
        assert len(list(mats.glob("system_*.mtx"))) == 3

    def test_dump_matrix_builds_no_extra_plan(self, tmp_path, monkeypatch):
        # the driver's plan fits the accepted state of a step that kept its space
        import cutfsi.linalg as linalg

        built = []
        init = linalg.AssemblyPlan.__init__
        monkeypatch.setattr(
            linalg.AssemblyPlan, "__init__", lambda self, *a: built.append(1) or init(self, *a)
        )
        path = _write_flap_case(tmp_path, n_steps=3, probes=False)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "a")]) == 0
        plain = len(built)
        mats = tmp_path / "mats"
        assert main([
            "run", str(path), "--output-dir", str(tmp_path / "b"), "--dump-matrix", str(mats)
        ]) == 0
        assert plain >= 1 and len(built) == 2 * plain
        assert len(list(mats.glob("system_*.mtx"))) == 3

    def test_config_flag_form(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path, n_steps=1, probes=False)
        assert main(["run", "--config", str(path)]) == 0
        assert "completed 1 steps" in capsys.readouterr().out


# -- inspect-cut --------------------------------------------------------------------


class TestInspectCut:
    def test_counts_match_hand_classification(self, tmp_path, capsys):
        # The square [0.3, 0.7]^2 on a 4x4 grid of spacing 0.25 cuts exactly
        # the four central elements (no element is fully covered), leaves
        # every node active, and exposes the 12 interior faces touching a cut
        # element.  Fluid area 1 - 0.4^2, interface length 4 * 0.4.
        path = _write_square_case(tmp_path)
        assert main(["inspect-cut", str(path)]) == 0
        lines = dict(
            line.strip().split(": ")
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["elements"] == "16 total"
        assert lines["uncut fluid"] == "12"
        assert lines["cut"] == "4"
        assert lines["covered"] == "0"
        assert lines["ghost facets"] == "12"
        assert lines["active nodes"] == "25"
        assert abs(float(lines["fluid area"]) - 0.84) < 1e-12
        assert abs(float(lines["interface length"]) - 1.6) < 1e-12

    def test_time_flag_advances_before_classifying(self, tmp_path, capsys):
        path = _write_flap_case(tmp_path, n_steps=4, probes=False)
        assert main(["inspect-cut", str(path), "--time", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "time: 0.1" in out
        assert "elements: 9 total" in out
