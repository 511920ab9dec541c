from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfsi.cutting import (
    ElemStatus,
    GeometryError,
    NodeRole,
    _dist_to_segments,
    avg,
    avg_conjugate,
    build_cut_configuration,
    jump,
    point_in_polygon,
    snap_to_grid,
)
from cutfsi.meshes import StructuredGrid


def _shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _perimeter(poly):
    return float(np.sum(np.hypot(*(np.roll(poly, -1, axis=0) - poly).T)))


def _angle_sum_inside(p, poly):
    """Independent point-in-polygon oracle via total turning angle."""
    v = poly - np.asarray(p, dtype=float)[None, :]
    ang = np.arctan2(v[:, 1], v[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return abs(d.sum()) > np.pi


def _rect_loop(x0, y0, w, h):
    return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])


GRID = StructuredGrid((0.0, 0.0), (1.0 / 8, 1.0 / 8), (8, 8))


def test_area_partition_irrational_rectangle():
    solid = _rect_loop(0.3111, 0.2777, np.sqrt(2) / 4, np.pi / 10)
    cfg = build_cut_configuration(GRID, solid)
    total = GRID.nx * GRID.ny * GRID.spacing[0] * GRID.spacing[1]
    assert cfg.fluid_area() + _shoelace(cfg.loop) == pytest.approx(total, rel=1e-12)


def test_interface_length_matches_perimeter():
    solid = _rect_loop(0.3111, 0.2777, np.sqrt(2) / 4, np.pi / 10)
    cfg = build_cut_configuration(GRID, solid)
    assert cfg.interface_length() == pytest.approx(_perimeter(cfg.loop), rel=1e-12)


def test_area_partition_randomized_many():
    rng = np.random.default_rng(7)
    total = 1.0
    for _ in range(25):
        x0, y0 = rng.uniform(0.05, 0.55, size=2)
        w, h = rng.uniform(0.1, 0.4, size=2)
        cfg = build_cut_configuration(GRID, _rect_loop(x0, y0, w, h))
        assert cfg.fluid_area() + _shoelace(cfg.loop) == pytest.approx(total, rel=1e-12)
        assert cfg.interface_length() == pytest.approx(_perimeter(cfg.loop), rel=1e-12)


def test_area_partition_nonconvex_polygon():
    # L-shaped solid with irrational offsets
    a = 0.2137
    solid = np.array(
        [
            [a, a],
            [a + 0.5, a],
            [a + 0.5, a + 0.21],
            [a + 0.24, a + 0.21],
            [a + 0.24, a + 0.47],
            [a, a + 0.47],
        ]
    )
    cfg = build_cut_configuration(GRID, solid)
    assert cfg.fluid_area() + _shoelace(cfg.loop) == pytest.approx(1.0, rel=1e-12)
    assert cfg.interface_length() == pytest.approx(_perimeter(cfg.loop), rel=1e-12)


def test_grid_aligned_solid_has_no_cut_elements():
    solid = _rect_loop(0.25, 0.25, 0.5, 0.25)  # all edges on grid lines
    cfg = build_cut_configuration(GRID, solid)
    assert np.count_nonzero(cfg.status == ElemStatus.CUT) == 0
    assert cfg.fluid_area() == pytest.approx(1.0 - 0.125, abs=1e-15)
    # wet segments still exist and sit in fluid-side elements
    assert cfg.interface_length() == pytest.approx(1.5, rel=1e-14)
    for s in cfg.segments:
        assert cfg.status[s.elem] != ElemStatus.COVERED


def test_classification_against_sampling_oracle():
    solid = _rect_loop(0.303, 0.291, 0.351, 0.274)
    cfg = build_cut_configuration(GRID, solid)
    ss = np.linspace(0.017, 0.983, 13)  # strictly interior sample lattice
    for e in range(GRID.n_elems):
        x0, y0, x1, y1 = GRID.elem_bbox(e)
        pts = np.array([[x0 + s * (x1 - x0), y0 + t * (y1 - y0)] for s in ss for t in ss])
        inside = np.array([_angle_sum_inside(p, cfg.loop) for p in pts])
        frac = inside.mean()
        if cfg.status[e] == ElemStatus.COVERED:
            assert frac > 0.95
        elif cfg.status[e] == ElemStatus.FLUID:
            assert frac < 0.05
        else:
            assert 0.0 < frac < 1.0


def test_cut_piece_areas_match_sampling_fraction():
    solid = _rect_loop(0.303, 0.291, 0.351, 0.274)
    cfg = build_cut_configuration(GRID, solid)
    rng = np.random.default_rng(3)
    cell_area = GRID.spacing[0] * GRID.spacing[1]
    for e, polys in cfg.pieces.items():
        x0, y0, x1, y1 = GRID.elem_bbox(e)
        pts = np.column_stack(
            [rng.uniform(x0, x1, size=4000), rng.uniform(y0, y1, size=4000)]
        )
        frac = np.mean([not _angle_sum_inside(p, cfg.loop) for p in pts])
        a_f = sum(abs(_shoelace(p)) for p in polys)
        assert a_f / cell_area == pytest.approx(frac, abs=0.05)


def test_pieces_are_ccw_convex_and_fluid():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    assert cfg.pieces  # there are cut elements
    for polys in cfg.pieces.values():
        for p in polys:
            assert _shoelace(p) > 0.0
            # convexity: all cross products non-negative
            a = np.roll(p, -1, axis=0) - p
            b = np.roll(a, -1, axis=0)
            cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            assert np.all(cross > -1e-12 * GRID.elem_diameter() ** 2)
            assert not _angle_sum_inside(p.mean(axis=0), cfg.loop)


def test_segments_owned_by_fluid_side_element():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    eps = 1e-6 * GRID.spacing[0]
    for s in cfg.segments:
        x0, y0, x1, y1 = GRID.elem_bbox(s.elem)
        fluid_pt = s.midpoint - eps * s.normal
        assert x0 - 1e-12 <= fluid_pt[0] <= x1 + 1e-12
        assert y0 - 1e-12 <= fluid_pt[1] <= y1 + 1e-12
        assert not _angle_sum_inside(fluid_pt, cfg.loop)
        assert _angle_sum_inside(s.midpoint + eps * s.normal, cfg.loop)
        assert np.hypot(*s.normal) == pytest.approx(1.0, abs=1e-14)


def test_wet_mask_excludes_edges():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    wet = np.array([True, True, True, False])  # drop the left edge
    cfg = build_cut_configuration(GRID, solid, wet_mask=wet)
    assert cfg.interface_length() == pytest.approx(_perimeter(cfg.loop) - 0.27, rel=1e-12)
    assert all(s.loop_index != 3 for s in cfg.segments)


def test_segment_trace_parameters_consistent():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    loop = cfg.loop
    m = loop.shape[0]
    for s in cfg.segments:
        a = loop[s.loop_index]
        b = loop[(s.loop_index + 1) % m]
        assert np.allclose(a + s.t0 * (b - a), s.p0, atol=1e-13)
        assert np.allclose(a + s.t1 * (b - a), s.p1, atol=1e-13)
        assert 0.0 <= s.t0 < s.t1 <= 1.0


def test_ghost_facets_touch_cut_elements():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    facets = cfg.ghost_facets()
    assert facets
    cut = set(np.flatnonzero(cfg.status == ElemStatus.CUT))
    active = set(cfg.active_elems)
    for el, er, _a, _b in facets:
        assert el in active and er in active
        assert el in cut or er in cut
    widened = cfg.ghost_facets(widened=True)
    assert set(widened) >= set(facets)
    assert len(widened) > len(facets)


def test_node_roles():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    xy = GRID.node_coords()
    conn = GRID.all_elem_nodes()
    active_nodes = set(np.unique(conn[cfg.status != ElemStatus.COVERED]))
    for n in range(GRID.n_nodes):
        role = cfg.node_role[n]
        if n not in active_nodes:
            assert role == NodeRole.INACTIVE
        elif _angle_sum_inside(xy[n], cfg.loop):
            assert role == NodeRole.GHOST
        else:
            assert role == NodeRole.STANDARD
    assert np.array_equal(cfg.active_nodes, np.array(sorted(active_nodes)))


def test_repeated_vertex_distance_and_roles_match_deduplicated_loop():
    # a repeated vertex is a zero-length loop edge; it must neither poison
    # the on-interface distance nor change any node role
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    repeated = np.insert(solid, 2, solid[1], axis=0)
    xy = GRID.node_coords()
    for p in [xy[37], solid[1], np.array([0.7, 0.2]), np.array([0.45, 0.41])]:
        got = _dist_to_segments(p, repeated)
        assert np.isfinite(got)
        assert got == _dist_to_segments(p, solid)
    cfg = build_cut_configuration(GRID, repeated)
    ref = build_cut_configuration(GRID, solid)
    assert np.array_equal(cfg.status, ref.status)
    assert np.array_equal(cfg.node_role, ref.node_role)


def test_snapping_pulls_vertices_onto_grid_lines():
    v = np.array([[0.25 + 3e-11, 0.4], [0.7, 0.125 - 1e-11]])
    s = snap_to_grid(GRID, v)
    assert s[0, 0] == 0.25
    assert s[0, 1] == 0.4
    assert s[1, 1] == 0.125


def test_all_fluid_configuration():
    cfg = build_cut_configuration(GRID, None)
    assert np.all(cfg.status == ElemStatus.FLUID)
    assert np.all(cfg.node_role == NodeRole.STANDARD)
    assert cfg.fluid_area() == pytest.approx(1.0, rel=1e-15)
    assert cfg.segments == [] and cfg.ghost_facets() == []


def test_clockwise_loop_rejected():
    solid = _rect_loop(0.3, 0.3, 0.3, 0.3)[::-1]
    with pytest.raises(GeometryError):
        build_cut_configuration(GRID, solid)


def test_wet_edge_on_grid_boundary_raises():
    # solid flush against the left grid boundary: the flush edge has no fluid side
    solid = _rect_loop(0.0, 0.3, 0.25, 0.25)
    with pytest.raises(GeometryError):
        build_cut_configuration(GRID, solid)
    wet = np.array([True, True, True, False])  # mask the flush edge -> fine
    cfg = build_cut_configuration(GRID, solid, wet_mask=wet)
    assert cfg.fluid_area() == pytest.approx(1.0 - 0.25 * 0.25, rel=1e-12)


def test_wet_edges_outside_grid_are_dropped():
    # solid sticking out of the left grid boundary: outside pieces carry no segments
    solid = _rect_loop(-0.2, 0.3, 0.4, 0.3)
    wet = np.array([True, True, True, False])  # drop the fully-outside left edge
    cfg = build_cut_configuration(GRID, solid, wet_mask=wet)
    assert cfg.fluid_area() == pytest.approx(1.0 - 0.2 * 0.3, rel=1e-12)
    # in-grid wet length: bottom 0.2 + right 0.3 + top 0.2
    assert cfg.interface_length() == pytest.approx(0.7, rel=1e-12)
    for s in cfg.segments:
        assert s.midpoint[0] > 0.0


def test_same_active_space_detects_changes():
    a = build_cut_configuration(GRID, _rect_loop(0.3111, 0.2777, 0.31, 0.27))
    b = build_cut_configuration(GRID, _rect_loop(0.3111, 0.2777, 0.31, 0.27))
    assert a.same_active_space(b)
    c = build_cut_configuration(GRID, _rect_loop(0.3111 + 0.125, 0.2777, 0.31, 0.27))
    assert not a.same_active_space(c)


def test_point_in_polygon_matches_oracle():
    poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.5, 2.5, size=(300, 2))
    for p in pts:
        assert point_in_polygon(p, poly) == _angle_sum_inside(p, poly)


@given(
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(0, 1),
)
@settings(max_examples=250, deadline=None)
def test_jump_average_product_identity(fi, fj, gi, gj, wi):
    lhs = jump(fi * gi, fj * gj)
    rhs = jump(fi, fj) * avg(gi, gj, wi) + avg_conjugate(fi, fj, wi) * jump(gi, gj)
    scale = max(1.0, abs(fi), abs(fj), abs(gi), abs(gj)) ** 2
    assert abs(lhs - rhs) <= 1e-14 * scale
