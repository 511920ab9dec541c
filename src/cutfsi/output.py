"""Run output: legacy-VTK snapshots of the flow and the structure,
append-only delimiter-separated diagnostics, and history probes evaluated at
reference coordinates through the element-local interpolation.

Flow snapshots write uncut active cells as quads and each cut cell as the fan
triangulation of its fluid-side polygon pieces, with velocity and pressure
interpolated to the extra vertices and a cell mask distinguishing full cells
from cut ones.  Structure snapshots write the deformed configuration with
displacement and velocity as point data.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .cutting import CutConfiguration, ElemStatus
from .fluid import grid_basis
from .meshes import FittedMesh, StructuredGrid
from .quadrature import fan_triangulate
from .solid import quad_shape, quad_shape_grad

__all__ = [
    "write_fluid_vtk",
    "write_solid_vtk",
    "write_snapshot",
    "DiagnosticsWriter",
    "locate_reference",
    "evaluate_fitted_probe",
    "evaluate_grid_probe",
]


# -- element-local interpolation ------------------------------------------------


def evaluate_grid_probe(
    grid: StructuredGrid, nodal: np.ndarray, point
) -> np.ndarray:
    """Interpolate a nodal field (n_nodes, k) of the background grid at a
    physical point."""
    e = grid.locate(point)
    N = grid_basis(grid, np.array([e]), np.reshape(point, (1, 1, 2)))[0][0, 0]
    values = np.asarray(nodal, dtype=float).reshape(grid.n_nodes, -1)
    return N @ values[grid.elem_nodes(e)]


def locate_reference(mesh: FittedMesh, point) -> tuple[int, float, float]:
    """Find (element, xi, eta) of a point given in the reference (undeformed)
    configuration of a fitted mesh; raises ValueError when outside."""
    p = np.asarray(point, dtype=float)
    for e in range(mesh.n_elems):
        X = mesh.nodes[mesh.elems[e]]
        lo, hi = X.min(axis=0), X.max(axis=0)
        pad = 1e-9 * max(1.0, float(np.max(hi - lo)))
        if np.any(p < lo - pad) or np.any(p > hi + pad):
            continue
        local = _invert_bilinear(X, p)
        if local is not None:
            return e, local[0], local[1]
    raise ValueError(f"point {point} not inside the fitted mesh")


def _invert_bilinear(X: np.ndarray, p: np.ndarray):
    """Newton inversion of the bilinear map of one quad; None if `p` lies
    outside the element (|xi|, |eta| > 1 beyond tolerance) or the iteration
    fails to converge."""
    scale = max(1.0, float(np.max(np.abs(X))))
    xi = np.zeros(2)
    for _ in range(30):
        N = quad_shape(xi[0], xi[1])
        r = N @ X - p
        if np.max(np.abs(r)) < 1e-13 * scale:
            break
        J = quad_shape_grad(xi[0], xi[1]).T @ X
        try:
            xi = xi - np.linalg.solve(J.T, r)
        except np.linalg.LinAlgError:
            return None
    else:
        return None
    if np.max(np.abs(xi)) > 1.0 + 1e-9:
        return None
    return float(np.clip(xi[0], -1.0, 1.0)), float(np.clip(xi[1], -1.0, 1.0))


def evaluate_fitted_probe(mesh: FittedMesh, nodal: np.ndarray, point) -> np.ndarray:
    """Interpolate a nodal field (n_nodes, k) of a fitted mesh at a reference
    point."""
    e, xi, eta = locate_reference(mesh, point)
    N = quad_shape(xi, eta)
    return N @ np.asarray(nodal, dtype=float).reshape(mesh.n_nodes, -1)[mesh.elems[e]]


# -- legacy VTK writers ----------------------------------------------------------


def _xy0_lines(pairs):
    """The lines "x y 0.0" of the rows of `pairs` (n, 2), each value its
    repr, as one string formatted with one `%` over the whole section."""
    flat = np.asarray(pairs, float).ravel().tolist()
    return ["\n".join(["%r %r 0.0"] * (len(flat) // 2)) % tuple(flat)] if flat else []


def _vtk_lines(title: str, points, cells, point_data, cell_data):
    """Lines of a legacy ASCII VTK unstructured grid; `cells` holds one
    (VTK cell type, (m, k) int connectivity array) pair per cell type."""
    n_cells = sum(len(conn) for _, conn in cells)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    lines.extend(_xy0_lines(points))
    lines.append(f"CELLS {n_cells} {sum(conn.size + len(conn) for _, conn in cells)}")
    for _, conn in cells:
        if len(conn):  # all cells of a type in one format: "k n_1 ... n_k"
            m, k = conn.shape
            row = " ".join(["%d"] * (k + 1))
            counted = np.column_stack([np.full(m, k), conn]).ravel().tolist()
            lines.append("\n".join([row] * m) % tuple(counted))
    lines.append(f"CELL_TYPES {n_cells}")
    for cell_type, conn in cells:
        lines.extend([str(cell_type)] * len(conn))
    if point_data:
        lines.append(f"POINT_DATA {len(points)}")
        for name, kind, values in point_data:
            if kind == "vectors":
                lines.append(f"VECTORS {name} double")
                lines.extend(_xy0_lines(values))
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(repr, np.asarray(values, float).tolist()))
    if cell_data:
        lines.append(f"CELL_DATA {n_cells}")
        for name, values in cell_data:
            lines.append(f"SCALARS {name} int 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(map(str, np.asarray(values, int).tolist()))
    return lines


def write_fluid_vtk(path, cfg: CutConfiguration, U, P, title="flow snapshot"):
    """Write the active part of the background flow field.

    Full fluid cells appear as quads (mask 0); every cut cell appears as the
    fan triangulation of its fluid-side polygon pieces (mask 1) with u and p
    interpolated to the polygon vertices.
    """
    grid = cfg.grid
    u = np.asarray(U, dtype=float).reshape(grid.n_nodes, 2)
    p = np.asarray(P, dtype=float).reshape(grid.n_nodes)
    conn = grid.all_elem_nodes()
    quads = conn[cfg.status == ElemStatus.FLUID]
    tris, ntri = fan_triangulate(cfg.piece_verts, cfg.piece_counts)
    tris = tris[np.arange(tris.shape[1]) < ntri[:, None]]
    elems = np.repeat(cfg.piece_elem, ntri)
    N = grid_basis(grid, elems, tris)[0]
    points = np.concatenate([grid.node_coords(), tris.reshape(-1, 2)])
    point_u = np.concatenate([u, (N @ u[conn[elems]]).reshape(-1, 2)])
    point_p = np.concatenate([p, (N @ p[conn[elems]][..., None]).ravel()])
    triangles = np.arange(grid.n_nodes, len(points)).reshape(-1, 3)
    lines = _vtk_lines(
        title,
        points,
        [(9, quads), (5, triangles)],  # VTK_QUAD, VTK_TRIANGLE
        [("velocity", "vectors", point_u), ("pressure", "scalars", point_p)],
        [("mask", np.repeat([0, 1], [len(quads), len(triangles)]))],
    )
    Path(path).write_text("\n".join(lines) + "\n")


def write_solid_vtk(path, mesh: FittedMesh, d, v=None, title="structure snapshot"):
    """Write the structure in its deformed configuration with displacement
    and velocity point data."""
    disp = np.asarray(d, dtype=float).reshape(mesh.n_nodes, 2)
    vel = (
        np.zeros((mesh.n_nodes, 2))
        if v is None
        else np.asarray(v, dtype=float).reshape(mesh.n_nodes, 2)
    )
    lines = _vtk_lines(
        title,
        mesh.nodes + disp,
        [(9, mesh.elems)],  # VTK_QUAD
        [("displacement", "vectors", disp), ("velocity", "vectors", vel)],
        [],
    )
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshot(directory, index, cfg, U, P, mesh=None, d=None, v=None):
    """Write the flow (and, when given, structure) snapshot files for one
    output step; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    fluid_path = directory / f"fluid_{index:06d}.vtk"
    write_fluid_vtk(fluid_path, cfg, U, P)
    written.append(fluid_path)
    if mesh is not None and d is not None:
        solid_path = directory / f"solid_{index:06d}.vtk"
        write_solid_vtk(solid_path, mesh, d, v)
        written.append(solid_path)
    return written


# -- diagnostics -----------------------------------------------------------------


class DiagnosticsWriter:
    """Append-only delimiter-separated time-series log.

    The header is written once when the file is empty; a file that already
    has a header other than `columns` is refused, so rows are never
    appended under the wrong columns.  Every `append` call opens, writes
    one row, and closes, so partial runs always leave a valid file behind.
    """

    def __init__(self, path, columns):
        self.path = Path(path)
        self.columns = list(columns)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists() or self.path.stat().st_size == 0:
            with self.path.open("w", newline="") as fh:
                csv.writer(fh).writerow(self.columns)
            return
        with self.path.open(newline="") as fh:
            header = next(csv.reader(fh), [])
        if header != self.columns:
            raise ValueError(f"{self.path} has the columns {header}, not {self.columns}")

    def append(self, row: dict) -> None:
        missing = set(self.columns) - set(row)
        if missing:
            raise ValueError(f"diagnostics row missing columns {sorted(missing)}")
        with self.path.open("a", newline="") as fh:
            csv.writer(fh).writerow([row[c] for c in self.columns])
