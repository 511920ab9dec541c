"""Snapshot writers (legacy VTK text), the append-only diagnostics log, and
history probes interpolated at reference coordinates."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfsi.cutting import build_cut_configuration
from cutfsi.meshes import FittedMesh, StructuredGrid, rectangle_fitted_mesh
from cutfsi.quadrature import fan_triangulate
from cutfsi.output import (
    DiagnosticsWriter,
    evaluate_fitted_probe,
    evaluate_grid_probe,
    locate_reference,
    write_fluid_vtk,
    write_snapshot,
    write_solid_vtk,
)


def _parse_vtk(path):
    """Independent reader for the legacy ASCII unstructured-grid format."""
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    assert lines[i].startswith("POINTS")
    n = int(lines[i].split()[1])
    i += 1
    points = np.array([[float(v) for v in lines[i + k].split()] for k in range(n)])
    i += n
    assert lines[i].startswith("CELLS")
    ncells, size = (int(v) for v in lines[i].split()[1:])
    i += 1
    cells = []
    for k in range(ncells):
        vals = [int(v) for v in lines[i + k].split()]
        assert vals[0] == len(vals) - 1
        cells.append(vals[1:])
    assert size == sum(len(c) + 1 for c in cells)
    i += ncells
    assert lines[i].startswith("CELL_TYPES")
    i += 1
    types = [int(lines[i + k]) for k in range(ncells)]
    i += ncells
    point_data, cell_data = {}, {}
    count, target = 0, None
    while i < len(lines):
        tok = lines[i].split()
        if not tok:
            i += 1
            continue
        if tok[0] == "POINT_DATA":
            count, target = n, point_data
            i += 1
        elif tok[0] == "CELL_DATA":
            count, target = ncells, cell_data
            i += 1
        elif tok[0] == "VECTORS":
            name = tok[1]
            i += 1
            target[name] = np.array(
                [[float(v) for v in lines[i + k].split()] for k in range(count)]
            )
            i += count
        elif tok[0] == "SCALARS":
            name = tok[1]
            i += 1
            assert lines[i].startswith("LOOKUP_TABLE")
            i += 1
            target[name] = np.array([float(lines[i + k]) for k in range(count)])
            i += count
        else:
            raise AssertionError(f"unexpected VTK line: {lines[i]!r}")
    return {
        "points": points,
        "cells": cells,
        "types": types,
        "point_data": point_data,
        "cell_data": cell_data,
    }


def _poly_area(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _linear_fields(coords):
    """Nodal samples of fixed affine velocity/pressure fields."""
    u = np.column_stack([coords[:, 0] - coords[:, 1], 4.0 + coords[:, 0] + 2 * coords[:, 1]])
    p = 2.0 + 3.0 * coords[:, 0] - 5.0 * coords[:, 1]
    return u, p


SQUARE = np.array([[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, 0.7]])


# a flap-like slanted quad whose cut pieces include triangles, quads and
# pentagons, on a grid whose origin and spacings are not round numbers
SLANTED = np.array([[0.41, 0.12], [0.93, 0.37], [0.71, 0.88], [0.29, 0.63]])
ODD_GRID = StructuredGrid((-0.07, 0.03), (0.17, 0.13), (7, 8))


def _grid_shape_rows(grid, e, pts):
    """Bilinear basis rows at physical points of grid element `e`: the
    unit-square coordinates from the element's lower-left corner, then the
    four products ordered counterclockwise from the lower-left node."""
    i, j = grid.elem_ij(e)
    x0 = grid.origin[0] + i * grid.spacing[0]
    y0 = grid.origin[1] + j * grid.spacing[1]
    local = (np.asarray(pts, dtype=float) - (x0, y0)) / grid.spacing
    s, t = local[:, 0], local[:, 1]
    return np.column_stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t])


class TestFluidVtk:
    def test_uncut_grid_structure(self, tmp_path):
        grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (3, 2))
        cfg = build_cut_configuration(grid, None)
        coords = grid.node_coords()
        u, p = _linear_fields(coords)
        path = tmp_path / "flow.vtk"
        write_fluid_vtk(path, cfg, u.ravel(), p)
        data = _parse_vtk(path)
        assert len(data["points"]) == grid.n_nodes
        np.testing.assert_allclose(data["points"][:, :2], coords)
        np.testing.assert_allclose(data["points"][:, 2], 0.0)
        assert data["types"] == [9] * grid.n_elems
        assert [len(c) for c in data["cells"]] == [4] * grid.n_elems
        np.testing.assert_allclose(data["point_data"]["velocity"][:, :2], u)
        np.testing.assert_allclose(data["point_data"]["pressure"], p)
        np.testing.assert_array_equal(data["cell_data"]["mask"], 0)

    def test_cut_cells_triangulated_and_area_exact(self, tmp_path):
        grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))
        cfg = build_cut_configuration(grid, SQUARE)
        path = tmp_path / "flow.vtk"
        write_fluid_vtk(path, cfg, np.zeros(2 * grid.n_nodes), np.zeros(grid.n_nodes))
        data = _parse_vtk(path)
        quads = [c for c, t in zip(data["cells"], data["types"]) if t == 9]
        tris = [c for c, t in zip(data["cells"], data["types"]) if t == 5]
        assert len(tris) > 0
        # mask matches the cell type
        mask = data["cell_data"]["mask"]
        np.testing.assert_array_equal(mask, [0 if t == 9 else 1 for t in data["types"]])
        # geometry read back from the file covers exactly the uncovered area
        area = sum(_poly_area(data["points"][c][:, :2]) for c in quads)
        area += sum(_poly_area(data["points"][c][:, :2]) for c in tris)
        assert area == pytest.approx(1.0 - 0.4 * 0.4, abs=1e-12)

    def test_interpolated_point_data_reproduces_affine_fields(self, tmp_path):
        grid = StructuredGrid((0.0, 0.0), (0.25, 0.25), (4, 4))
        cfg = build_cut_configuration(grid, SQUARE)
        coords = grid.node_coords()
        u, p = _linear_fields(coords)
        path = tmp_path / "flow.vtk"
        write_fluid_vtk(path, cfg, u.ravel(), p)
        data = _parse_vtk(path)
        pts = data["points"][:, :2]
        u_exact, p_exact = _linear_fields(pts)
        np.testing.assert_allclose(
            data["point_data"]["velocity"][:, :2], u_exact, atol=1e-12
        )
        np.testing.assert_allclose(data["point_data"]["pressure"], p_exact, atol=1e-12)

    def test_cut_point_data_is_bitwise_the_element_interpolation(self, tmp_path):
        grid = ODD_GRID
        cfg = build_cut_configuration(grid, SLANTED)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((grid.n_nodes, 2))
        p = rng.standard_normal(grid.n_nodes)
        path = tmp_path / "flow.vtk"
        write_fluid_vtk(path, cfg, u.ravel(), p)
        data = _parse_vtk(path)
        want_u, want_p = [u], [p]
        for e, verts, n in zip(cfg.piece_elem, cfg.piece_verts, cfg.piece_counts):
            nodes = grid.elem_nodes(e)
            tris, ntri = fan_triangulate(verts[None, :n], np.array([n]))
            for tri in tris[0, : ntri[0]]:
                N = _grid_shape_rows(grid, e, tri)
                want_u.append(N @ u[nodes])
                want_p.append(N @ p[nodes])
        assert len(want_u) > 20
        # repr() round-trips, so the parsed values are the written floats
        assert np.array_equal(data["point_data"]["velocity"][:, :2], np.vstack(want_u))
        assert np.array_equal(data["point_data"]["pressure"], np.concatenate(want_p))


class TestSolidVtk:
    def test_deformed_configuration_and_fields(self, tmp_path):
        mesh = rectangle_fitted_mesh(0.0, 0.0, 1.0, 0.5, 2, 1)
        rng = np.random.default_rng(7)
        d = 0.05 * rng.standard_normal((mesh.n_nodes, 2))
        v = rng.standard_normal((mesh.n_nodes, 2))
        path = tmp_path / "solid.vtk"
        write_solid_vtk(path, mesh, d.ravel(), v.ravel())
        data = _parse_vtk(path)
        np.testing.assert_allclose(data["points"][:, :2], mesh.nodes + d)
        assert data["types"] == [9] * mesh.n_elems
        np.testing.assert_allclose(data["point_data"]["displacement"][:, :2], d)
        np.testing.assert_allclose(data["point_data"]["velocity"][:, :2], v)

    def test_velocity_defaults_to_zero(self, tmp_path):
        mesh = rectangle_fitted_mesh(0.0, 0.0, 1.0, 0.5, 1, 1)
        path = tmp_path / "solid.vtk"
        write_solid_vtk(path, mesh, np.zeros(2 * mesh.n_nodes))
        data = _parse_vtk(path)
        np.testing.assert_array_equal(data["point_data"]["velocity"], 0.0)


class TestSnapshot:
    def test_flow_only(self, tmp_path):
        grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (2, 2))
        cfg = build_cut_configuration(grid, None)
        written = write_snapshot(
            tmp_path / "out", 3, cfg, np.zeros(2 * grid.n_nodes), np.zeros(grid.n_nodes)
        )
        assert [p.name for p in written] == ["fluid_000003.vtk"]
        assert all(p.exists() for p in written)

    def test_with_structure(self, tmp_path):
        grid = StructuredGrid((0.0, 0.0), (0.5, 0.5), (2, 2))
        cfg = build_cut_configuration(grid, None)
        mesh = rectangle_fitted_mesh(0.3, 0.3, 0.4, 0.2, 1, 1)
        written = write_snapshot(
            tmp_path / "out",
            12,
            cfg,
            np.zeros(2 * grid.n_nodes),
            np.zeros(grid.n_nodes),
            mesh=mesh,
            d=np.zeros(2 * mesh.n_nodes),
        )
        assert [p.name for p in written] == ["fluid_000012.vtk", "solid_000012.vtk"]


DISTORTED = FittedMesh(
    nodes=np.array([[0.0, 0.0], [1.1, 0.12], [1.3, 1.05], [-0.08, 0.9]]),
    elems=np.array([[0, 1, 2, 3]]),
)


def _bilinear_map(X, xi, eta):
    N = 0.25 * np.array(
        [
            (1 - xi) * (1 - eta),
            (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta),
            (1 - xi) * (1 + eta),
        ]
    )
    return N @ X


class TestProbes:
    def test_grid_probe_reproduces_affine(self):
        grid = StructuredGrid((-1.0, 0.5), (0.25, 0.5), (8, 4))
        coords = grid.node_coords()
        u, p = _linear_fields(coords)
        for point in [(-0.3, 1.2), (-1.0, 0.5), (1.0, 2.5), (0.13, 0.77)]:
            u_exact, p_exact = _linear_fields(np.asarray([point]))
            got = evaluate_grid_probe(grid, u, point)
            np.testing.assert_allclose(got, u_exact[0], atol=1e-12)
            got_p = evaluate_grid_probe(grid, p, point)
            np.testing.assert_allclose(got_p, p_exact[:1], atol=1e-12)

    def test_grid_probe_is_bitwise_the_element_interpolation(self):
        grid = ODD_GRID
        rng = np.random.default_rng(8)
        u = rng.standard_normal((grid.n_nodes, 2))
        p = rng.standard_normal(grid.n_nodes)
        lo = np.asarray(grid.origin)
        hi = lo + np.asarray(grid.spacing) * grid.counts
        for point in rng.uniform(lo, hi, size=(40, 2)):
            e = grid.locate(point)
            N = _grid_shape_rows(grid, e, np.asarray([point]))[0]
            nodes = grid.elem_nodes(e)
            assert np.array_equal(evaluate_grid_probe(grid, u, point), N @ u[nodes])
            assert np.array_equal(evaluate_grid_probe(grid, p, point), N @ p[nodes, None])

    def test_grid_probe_outside_raises(self):
        grid = StructuredGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        with pytest.raises(ValueError, match="outside"):
            evaluate_grid_probe(grid, np.zeros((grid.n_nodes, 2)), (5.0, 0.5))

    def test_fitted_probe_reproduces_affine(self):
        mesh = rectangle_fitted_mesh(0.9, 0.0, 0.2, 0.66, 2, 4)
        field = np.column_stack(
            [1.0 + 2.0 * mesh.nodes[:, 0], mesh.nodes[:, 1] - mesh.nodes[:, 0]]
        )
        for point in [(0.95, 0.1), (1.0, 0.33), (0.9, 0.0), (1.1, 0.66)]:
            exact = np.array([1.0 + 2.0 * point[0], point[1] - point[0]])
            np.testing.assert_allclose(
                evaluate_fitted_probe(mesh, field, point), exact, atol=1e-12
            )

    def test_fitted_probe_at_node_returns_nodal_value(self):
        mesh = DISTORTED
        field = np.array([[1.0, -2.0], [3.5, 0.0], [0.25, 4.0], [-1.0, 1.0]])
        for n in range(4):
            np.testing.assert_allclose(
                evaluate_fitted_probe(mesh, field, mesh.nodes[n]),
                field[n],
                atol=1e-9,
            )

    def test_locate_outside_raises(self):
        with pytest.raises(ValueError, match="not inside"):
            locate_reference(DISTORTED, (3.0, 3.0))
        # inside the bounding box but outside the quad
        with pytest.raises(ValueError, match="not inside"):
            locate_reference(DISTORTED, (-0.07, 0.05))

    @settings(max_examples=50, deadline=None)
    @given(
        xi=st.floats(min_value=-0.99, max_value=0.99),
        eta=st.floats(min_value=-0.99, max_value=0.99),
    )
    def test_inverse_map_round_trip(self, xi, eta):
        X = DISTORTED.nodes[DISTORTED.elems[0]]
        p = _bilinear_map(X, xi, eta)
        e, xi_hat, eta_hat = locate_reference(DISTORTED, p)
        assert e == 0
        assert xi_hat == pytest.approx(xi, abs=1e-9)
        assert eta_hat == pytest.approx(eta, abs=1e-9)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDiagnostics:
    def test_header_rows_and_reopen(self, tmp_path):
        path = tmp_path / "history.csv"
        log = DiagnosticsWriter(path, ["time", "tip_x", "newton"])
        log.append({"time": 0.1, "tip_x": 0.0, "newton": 3})
        log.append({"time": 0.2, "tip_x": 0.01, "newton": 4})
        # a second writer on the same file appends without a second header
        again = DiagnosticsWriter(path, ["time", "tip_x", "newton"])
        again.append({"time": 0.3, "tip_x": 0.02, "newton": 2})
        text = path.read_text().splitlines()
        assert text[0] == "time,tip_x,newton"
        assert len(text) == 4
        rows = _read_csv(path)
        assert [float(r["time"]) for r in rows] == [0.1, 0.2, 0.3]
        assert [int(r["newton"]) for r in rows] == [3, 4, 2]

    def test_other_header_refused(self, tmp_path):
        # rows appended under another header would sit in the wrong columns
        path = tmp_path / "h.csv"
        DiagnosticsWriter(path, ["step", "tip_dx", "tip_dy"]).append(
            {"step": 1, "tip_dx": 0.5, "tip_dy": 0.25}
        )
        with pytest.raises(ValueError, match=r"has the columns \['step', 'tip_dx', 'tip_dy'\]"):
            DiagnosticsWriter(path, ["step", "root_dx", "root_dy"])
        assert len(path.read_text().splitlines()) == 2

    def test_missing_column_rejected(self, tmp_path):
        log = DiagnosticsWriter(tmp_path / "h.csv", ["time", "value"])
        with pytest.raises(ValueError, match="missing columns"):
            log.append({"time": 0.1})

    def test_static_probe_series_is_constant(self, tmp_path):
        mesh = rectangle_fitted_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
        field = np.full((mesh.n_nodes, 2), 0.125)
        log = DiagnosticsWriter(tmp_path / "h.csv", ["time", "probe_x", "probe_y"])
        for step in range(5):
            value = evaluate_fitted_probe(mesh, field, (0.6, 0.4))
            log.append(
                {"time": 0.1 * step, "probe_x": value[0], "probe_y": value[1]}
            )
        rows = _read_csv(log.path)
        assert {r["probe_x"] for r in rows} == {"0.125"}
        assert {r["probe_y"] for r in rows} == {"0.125"}
