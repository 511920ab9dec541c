from __future__ import annotations

import numpy as np
import pytest

from cutfsi.meshes import (
    FittedMesh,
    StructuredGrid,
    read_mesh_text,
    rectangle_fitted_mesh,
    write_mesh_text,
)


def test_grid_numbering():
    g = StructuredGrid((0.0, 0.0), (0.5, 0.25), (4, 2))
    assert g.n_nodes == 15
    assert g.n_elems == 8
    assert g.node_id(0, 0) == 0
    assert g.node_id(4, 0) == 4
    assert g.node_id(0, 1) == 5
    assert g.elem_id(3, 1) == 7
    assert g.elem_ij(7) == (3, 1)


@pytest.mark.parametrize(
    "spacing, counts",
    [
        ((0.0, 1.0), (2, 2)),
        ((1.0, -0.5), (2, 2)),
        ((float("nan"), 1.0), (2, 2)),
        ((1.0, float("nan")), (2, 2)),
        ((1.0, 1.0), (0, 2)),
        ((1.0, 1.0), (2, 0)),
    ],
)
def test_grid_rejects_invalid_spacing_and_counts(spacing, counts):
    with pytest.raises(ValueError):
        StructuredGrid((0.0, 0.0), spacing, counts)


def test_grid_node_coords_row_major():
    g = StructuredGrid((1.0, 2.0), (0.5, 0.25), (2, 2))
    xy = g.node_coords()
    assert np.allclose(xy[0], [1.0, 2.0])
    assert np.allclose(xy[1], [1.5, 2.0])
    assert np.allclose(xy[3], [1.0, 2.25])
    assert np.allclose(xy[g.node_id(2, 2)], [2.0, 2.5])


def test_grid_elem_nodes_ccw():
    g = StructuredGrid((0.0, 0.0), (1.0, 1.0), (3, 3))
    quad = g.elem_nodes(4)  # center element, (i,j)=(1,1)
    assert list(quad) == [g.node_id(1, 1), g.node_id(2, 1), g.node_id(2, 2), g.node_id(1, 2)]
    xy = g.node_coords()[quad]
    area2 = np.dot(xy[:, 0], np.roll(xy[:, 1], -1)) - np.dot(xy[:, 1], np.roll(xy[:, 0], -1))
    assert area2 > 0


def test_all_elem_nodes_matches_scalar():
    g = StructuredGrid((0.0, 0.0), (0.3, 0.7), (5, 4))
    table = g.all_elem_nodes()
    for e in range(g.n_elems):
        assert np.array_equal(table[e], g.elem_nodes(e))


def test_grid_bbox_and_locate():
    g = StructuredGrid((0.0, 0.0), (0.5, 0.5), (4, 4))
    assert g.elem_bbox(0) == (0.0, 0.0, 0.5, 0.5)
    assert g.locate((0.74, 0.3)) == g.elem_id(1, 0)
    assert g.locate((2.0, 2.0)) == g.elem_id(3, 3)  # corner clamps inward
    with pytest.raises(ValueError):
        g.locate((2.5, 0.1))


def test_interior_faces_count():
    g = StructuredGrid((0.0, 0.0), (1.0, 1.0), (3, 2))
    faces = g.interior_faces()
    # vertical: (nx-1)*ny = 4, horizontal: nx*(ny-1) = 3
    assert len(faces) == 7
    for el, er, a, b in faces:
        sa = set(g.elem_nodes(el))
        sb = set(g.elem_nodes(er))
        assert {a, b} <= sa & sb


def test_boundary_nodes_sides():
    g = StructuredGrid((0.0, 0.0), (1.0, 1.0), (2, 3))
    assert list(g.boundary_nodes("left")) == [g.node_id(0, j) for j in range(4)]
    assert list(g.boundary_nodes("top")) == [g.node_id(i, 3) for i in range(3)]


def test_rectangle_fitted_mesh_shape_and_loop():
    m = rectangle_fitted_mesh(0.0, 0.0, 1.0, 2.0, 2, 4, tags={"bottom": "clamped"})
    assert m.n_nodes == 15
    assert m.n_elems == 8
    assert len(m.boundary_with_tag("clamped")) == 2
    loop = m.boundary_loop()
    assert len(loop) == 12  # perimeter nodes
    pts = m.nodes[loop]
    area2 = np.dot(pts[:, 0], np.roll(pts[:, 1], -1)) - np.dot(pts[:, 1], np.roll(pts[:, 0], -1))
    assert area2 == pytest.approx(2 * 2.0, rel=1e-14)  # 2*area of 1x2 rectangle


def test_boundary_loop_restricted_tags_error():
    m = rectangle_fitted_mesh(0.0, 0.0, 1.0, 1.0, 1, 1, tags={"bottom": "clamped"})
    with pytest.raises(ValueError):
        m.boundary_loop(tags={"wet"})  # open chain, not a loop


def test_mesh_text_roundtrip(tmp_path):
    m = rectangle_fitted_mesh(0.25, -1.0, 0.5, 0.75, 3, 2, tags={"left": "clamped"})
    p = tmp_path / "solid.mesh"
    write_mesh_text(p, m)
    m2 = read_mesh_text(p)
    assert np.array_equal(m.nodes, m2.nodes)  # repr round-trip is exact
    assert np.array_equal(m.elems, m2.elems)
    assert m.boundary == m2.boundary


def test_mesh_text_errors(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("dim 2\nN 0 0\nN 1 0\nN 1 1\nN 0 1\nE 0 1 2\n")
    with pytest.raises(ValueError, match="bad.mesh:6"):
        read_mesh_text(p)
    p.write_text("N 0 0\n")
    with pytest.raises(ValueError, match="dim 2"):
        read_mesh_text(p)
    p.write_text("dim 2\nN 0 0\nN 0 1\nN 1 1\nN 1 0\nE 0 1 2 3\n")
    with pytest.raises(ValueError, match="counterclockwise"):
        read_mesh_text(p)


def test_mesh_text_comments_and_blanks(tmp_path):
    p = tmp_path / "ok.mesh"
    p.write_text(
        """
# a comment
dim 2

N 0.0 0.0   # lower left
N 1.0 0.0
N 1.0 1.0
N 0.0 1.0
E 0 1 2 3
B 0 1 clamped
"""
    )
    m = read_mesh_text(p)
    assert m.n_elems == 1
    assert m.boundary == [(0, 1, "clamped")]


def test_fitted_mesh_validates_connectivity():
    with pytest.raises(ValueError):
        FittedMesh(np.zeros((2, 2)), np.array([[0, 1, 2, 3]]), [])
