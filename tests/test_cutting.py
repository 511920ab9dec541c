from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfsi.cutting import (
    AREA_TOL_REL,
    SNAP_REL,
    ElemStatus,
    GeometryError,
    NodeRole,
    _clip_round,
    _dist_to_segments,
    _inside,
    avg,
    avg_conjugate,
    build_cut_configuration,
    jump,
    snap_to_grid,
)
from cutfsi.meshes import StructuredGrid
from cutfsi.quadrature import signed_area


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


def _point_in_polygon(p, poly):
    """Scalar ray-crossing oracle, one point and one edge at a time."""
    x, y = float(p[0]), float(p[1])
    inside = False
    n = poly.shape[0]
    j = n - 1
    for i in range(n):
        yi, yj = poly[i, 1], poly[j, 1]
        if (yi > y) != (yj > y):
            x_cross = poly[j, 0] + (y - yj) / (yi - yj) * (poly[i, 0] - poly[j, 0])
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _segment_param_in_rect(a, b, rect):
    """Scalar Liang-Barsky window of segment a->b in a closed rectangle."""
    x0, y0, x1, y1 = rect
    t0, t1 = 0.0, 1.0
    d = (b[0] - a[0], b[1] - a[1])
    for pi, qi in zip((-d[0], d[0], -d[1], d[1]), (a[0] - x0, x1 - a[0], a[1] - y0, y1 - a[1])):
        if pi == 0.0:
            if qi < 0.0:
                return None
        else:
            r = qi / pi
            if pi < 0.0:
                if r > t1:
                    return None
                t0 = max(t0, r)
            else:
                if r < t0:
                    return None
                t1 = min(t1, r)
    if t1 - t0 <= 1e-14:
        return None
    return t0, t1


def _scalar_dist(p, poly):
    best = np.inf
    for k in range(poly.shape[0]):
        a, b = poly[k], poly[(k + 1) % poly.shape[0]]
        ab, ap = b - a, p - a
        denom = ab[0] * ab[0] + ab[1] * ab[1]
        t = 0.0 if denom == 0.0 else min(max((ap[0] * ab[0] + ap[1] * ab[1]) / denom, 0.0), 1.0)
        best = min(best, float(np.hypot(*(p - (a + t * ab)))))
    return best


def _split_convex(poly, d, tol):
    """Split a convex CCW polygon by the level set d=0 sampled at vertices.

    Returns (negative_side, positive_side); either may be None. Intersection
    points are computed once and shared, so areas are conserved.
    """
    n = poly.shape[0]
    sign = np.where(np.abs(d) <= tol, 0, np.sign(d)).astype(int)
    if np.all(sign <= 0):
        return poly, None
    if np.all(sign >= 0):
        return None, poly
    neg: list[np.ndarray] = []
    pos: list[np.ndarray] = []
    for i in range(n):
        j = (i + 1) % n
        si, sj = sign[i], sign[j]
        if si <= 0:
            neg.append(poly[i])
        if si >= 0:
            pos.append(poly[i])
        if si * sj < 0:
            t = d[i] / (d[i] - d[j])
            q = poly[i] + t * (poly[j] - poly[i])
            neg.append(q)
            pos.append(q)
    return _finalize_poly(neg, tol), _finalize_poly(pos, tol)


def _finalize_poly(pts, tol):
    if len(pts) < 3:
        return None
    arr = np.array(pts)
    keep = [0]
    for i in range(1, len(arr)):
        if np.hypot(*(arr[i] - arr[keep[-1]])) > tol:
            keep.append(i)
    while len(keep) > 1 and np.hypot(*(arr[keep[-1]] - arr[keep[0]])) <= tol:
        keep.pop()
    arr = arr[keep]
    if arr.shape[0] < 3 or abs(signed_area(arr)) <= tol * tol:
        return None
    return arr


def _scalar_reference_segments(grid, loop, wet_mask):
    """Interface segments of the snapped `loop`, built wet edge by wet edge:
    the edge's window in the grid rectangle is split at the grid lines it
    crosses, and each piece is owned by the cell just on its fluid side.
    Rows (p0, p1, normal, elem, loop_index, t0, t1) in edge and then
    parameter order."""
    m = loop.shape[0]
    hx, hy = grid.spacing
    box = (*grid.origin, grid.origin[0] + grid.nx * hx, grid.origin[1] + grid.ny * hy)
    rows = []
    for k in range(m):
        a, b = loop[k], loop[(k + 1) % m]
        d = b - a
        length = np.hypot(d[0], d[1])
        window = _segment_param_in_rect(a, b, box)
        if not wet_mask[k] or length == 0.0 or window is None:
            continue
        w0, w1 = window
        ts = []
        for axis in (0, 1):
            if d[axis] != 0.0:
                o, h = grid.origin[axis], grid.spacing[axis]
                f0, f1 = (a[axis] - o) / h, (b[axis] - o) / h
                lo, hi = min(f0, f1), max(f0, f1)
                for line in range(int(np.ceil(lo - 1e-12)), int(np.floor(hi + 1e-12)) + 1):
                    ts.append((float(line) - f0) / (f1 - f0))
        params = sorted({w0, w1, *(t for t in ts if w0 + 1e-14 < t < w1 - 1e-14)})
        normal = np.array([-d[1], d[0]]) / length
        for t0, t1 in zip(params[:-1], params[1:]):
            if not t1 - t0 > 1e-14:
                continue
            p0, p1 = a + t0 * d, a + t1 * d
            elem = grid.locate(0.5 * (p0 + p1) - 1e-6 * min(hx, hy) * normal)
            rows.append((p0, p1, normal, elem, k, t0, t1))
    return rows


def _segment_rows(cfg):
    """The segments of `cfg` as rows (p0, p1, normal, elem, loop_index, t0, t1)."""
    s = cfg.segments
    ints, params = (s.elem.tolist(), s.loop_index.tolist()), (s.t0.tolist(), s.t1.tolist())
    return list(zip(s.p0, s.p1, s.normal, *ints, *params))


def _piece_polys(cfg, elem=None):
    """The fluid pieces of `cfg`, or of its element `elem`, as (n, 2) arrays."""
    rows = zip(cfg.piece_elem.tolist(), cfg.piece_verts, cfg.piece_counts)
    return [v[:n] for e, v, n in rows if elem is None or e == elem]


def _scalar_reference_cut(grid, loop_vertices, wet_mask=None):
    """Element status, fluid pieces, node roles and interface segments of
    the cut, computed cell by cell, node by node and edge by edge with the
    scalar oracles above."""
    loop = snap_to_grid(grid, loop_vertices)
    m = loop.shape[0]
    hx, hy = grid.spacing
    diam = grid.elem_diameter()
    edges = [(loop[k], loop[(k + 1) % m]) for k in range(m)]
    crossing = {}
    for k, (a, b) in enumerate(edges):
        i0 = int(np.floor((min(a[0], b[0]) - grid.origin[0]) / hx - 1e-12))
        i1 = int(np.floor((max(a[0], b[0]) - grid.origin[0]) / hx + 1e-12))
        j0 = int(np.floor((min(a[1], b[1]) - grid.origin[1]) / hy - 1e-12))
        j1 = int(np.floor((max(a[1], b[1]) - grid.origin[1]) / hy + 1e-12))
        for j in range(max(j0, 0), min(j1, grid.ny - 1) + 1):
            for i in range(max(i0, 0), min(i1, grid.nx - 1) + 1):
                e = grid.elem_id(i, j)
                if _segment_param_in_rect(a, b, grid.elem_bbox(e)) is not None:
                    crossing.setdefault(e, []).append(k)
    status = np.empty(grid.n_elems, dtype=np.int8)
    pieces = {}
    for e in range(grid.n_elems):
        rect = grid.elem_bbox(e)
        if e not in crossing:
            centre = (0.5 * (rect[0] + rect[2]), 0.5 * (rect[1] + rect[3]))
            status[e] = ElemStatus.COVERED if _point_in_polygon(centre, loop) else ElemStatus.FLUID
            continue
        parts = [
            np.array([[rect[0], rect[1]], [rect[2], rect[1]], [rect[2], rect[3]], [rect[0], rect[3]]])
        ]
        for k in crossing[e]:
            a, b = edges[k]
            nrm = np.array([-(b[1] - a[1]), b[0] - a[0]])
            nlen = np.hypot(*nrm)
            if nlen == 0.0:
                continue
            nrm /= nlen
            c = float(nrm @ a)
            nxt = []
            for poly in parts:
                nxt += [q for q in _split_convex(poly, poly @ nrm - c, 1e-12 * diam) if q is not None]
            parts = nxt
        fluid = [q for q in parts if not _point_in_polygon(q.mean(axis=0), loop)]
        a_f = sum(abs(signed_area(q)) for q in fluid)
        if a_f <= AREA_TOL_REL * hx * hy:
            status[e] = ElemStatus.COVERED
        elif a_f >= (1.0 - AREA_TOL_REL) * hx * hy:
            status[e] = ElemStatus.FLUID
        else:
            status[e] = ElemStatus.CUT
            pieces[e] = fluid
    node_role = np.full(grid.n_nodes, NodeRole.INACTIVE, dtype=np.int8)
    conn = grid.all_elem_nodes()
    node_role[np.unique(conn[status == ElemStatus.FLUID])] = NodeRole.STANDARD
    xy = grid.node_coords()
    for n in np.unique(conn[status == ElemStatus.CUT]):
        if node_role[n] == NodeRole.STANDARD:
            continue
        ghost = _scalar_dist(xy[n], loop) > 1e-12 * diam and _point_in_polygon(xy[n], loop)
        node_role[n] = NodeRole.GHOST if ghost else NodeRole.STANDARD
    wet = np.ones(m, dtype=bool) if wet_mask is None else wet_mask
    return status, pieces, node_role, _scalar_reference_segments(grid, loop, wet)


def _assert_matches_scalar_reference(grid, cfg, loop_vertices, wet_mask=None):
    status, pieces, node_role, segments = _scalar_reference_cut(grid, loop_vertices, wet_mask)
    assert cfg.status.tobytes() == status.tobytes()
    assert cfg.node_role.tobytes() == node_role.tobytes()
    ref = [(e, poly) for e, polys in pieces.items() for poly in polys]
    assert cfg.piece_elem.tolist() == [e for e, _ in ref]
    assert cfg.piece_counts.tolist() == [len(poly) for _, poly in ref]
    for got, (_, poly) in zip(_piece_polys(cfg), ref):
        assert got.tobytes() == poly.tobytes()
    # the stack is as wide as its widest piece, zeros past each one's vertices
    assert cfg.piece_verts.shape[1] == max((len(poly) for _, poly in ref), default=3)
    past = np.arange(cfg.piece_verts.shape[1]) >= cfg.piece_counts[:, None]
    assert not np.any(cfg.piece_verts[past])
    got = _segment_rows(cfg)
    assert len(got) == len(segments)
    for g, r in zip(got, segments):
        assert [np.asarray(v).tobytes() for v in g[:3]] == [v.tobytes() for v in r[:3]]
        assert g[3:5] == r[3:5]
        assert np.array(g[5:]).tobytes() == np.array(r[5:]).tobytes()


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
    assert np.all(cfg.status[cfg.segments.elem] != ElemStatus.COVERED)


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
    for e in np.unique(cfg.piece_elem).tolist():
        polys = _piece_polys(cfg, e)
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
    assert cfg.piece_elem.size  # there are cut elements
    for p in _piece_polys(cfg):
        assert _shoelace(p) > 0.0
        # convexity: all cross products non-negative
        a = np.roll(p, -1, axis=0) - p
        b = np.roll(a, -1, axis=0)
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        assert np.all(cross > -1e-12 * GRID.elem_diameter() ** 2)
        assert not _angle_sum_inside(p.mean(axis=0), cfg.loop)


def test_pieces_view_holds_the_piece_arrays():
    # the read-only mapping {cut elem: [polygon, ...]} the benchmark reads
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    view = cfg.pieces
    assert list(view) == np.unique(cfg.piece_elem).tolist()
    for e, polys in view.items():
        assert [p.tobytes() for p in polys] == [p.tobytes() for p in _piece_polys(cfg, e)]
    assert cfg.pieces is view and view.get(-1, []) == []
    with pytest.raises(TypeError):
        view[0] = []


def test_segments_owned_by_fluid_side_element():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    eps = 1e-6 * GRID.spacing[0]
    for p0, p1, normal, elem, *_ in _segment_rows(cfg):
        x0, y0, x1, y1 = GRID.elem_bbox(elem)
        mid = 0.5 * (p0 + p1)
        fluid_pt = mid - eps * normal
        assert x0 - 1e-12 <= fluid_pt[0] <= x1 + 1e-12
        assert y0 - 1e-12 <= fluid_pt[1] <= y1 + 1e-12
        assert not _angle_sum_inside(fluid_pt, cfg.loop)
        assert _angle_sum_inside(mid + eps * normal, cfg.loop)
        assert np.hypot(*normal) == pytest.approx(1.0, abs=1e-14)


def test_wet_mask_excludes_edges():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    wet = np.array([True, True, True, False])  # drop the left edge
    cfg = build_cut_configuration(GRID, solid, wet_mask=wet)
    assert cfg.interface_length() == pytest.approx(_perimeter(cfg.loop) - 0.27, rel=1e-12)
    assert np.all(cfg.segments.loop_index != 3)


def test_segment_trace_parameters_consistent():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    loop = cfg.loop
    m = loop.shape[0]
    for p0, p1, _, _, k, t0, t1 in _segment_rows(cfg):
        a = loop[k]
        b = loop[(k + 1) % m]
        assert np.allclose(a + t0 * (b - a), p0, atol=1e-13)
        assert np.allclose(a + t1 * (b - a), p1, atol=1e-13)
        assert 0.0 <= t0 < t1 <= 1.0


def test_ghost_facets_touch_cut_elements():
    solid = _rect_loop(0.3111, 0.2777, 0.31, 0.27)
    cfg = build_cut_configuration(GRID, solid)
    facets = cfg.ghost_facets()
    assert facets.dtype == np.int64 and facets.shape[1] == 4 and len(facets)
    cut = set(np.flatnonzero(cfg.status == ElemStatus.CUT))
    active = set(cfg.active_elems)
    for el, er, _a, _b in facets:
        assert el in active and er in active
        assert el in cut or er in cut
    widened = cfg.ghost_facets(widened=True)
    assert set(map(tuple, widened.tolist())) >= set(map(tuple, facets.tolist()))
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
    pts = np.array([xy[37], solid[1], [0.7, 0.2], [0.45, 0.41]])
    got = _dist_to_segments(pts, repeated)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, _dist_to_segments(pts, solid))
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
    assert len(cfg.segments) == 0 and cfg.ghost_facets().shape == (0, 4)


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


def test_wet_edge_with_a_covered_fluid_side_raises():
    # a notch into the solid, narrower than the area tolerance: the cells
    # below its mouth keep no fluid, yet the notch's edges have their fluid
    # side there
    w = 1e-13
    solid = np.array(
        [[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.53 + w, 0.7], [0.53, 0.35], [0.53 - w, 0.7], [0.3, 0.7]]
    )
    with pytest.raises(GeometryError, match="without fluid"):
        build_cut_configuration(GRID, solid)


def test_wet_edges_outside_grid_are_dropped():
    # solid sticking out of the left grid boundary: outside pieces carry no segments
    solid = _rect_loop(-0.2, 0.3, 0.4, 0.3)
    wet = np.array([True, True, True, False])  # drop the fully-outside left edge
    cfg = build_cut_configuration(GRID, solid, wet_mask=wet)
    assert cfg.fluid_area() == pytest.approx(1.0 - 0.2 * 0.3, rel=1e-12)
    # in-grid wet length: bottom 0.2 + right 0.3 + top 0.2
    assert cfg.interface_length() == pytest.approx(0.7, rel=1e-12)
    assert np.all(0.5 * (cfg.segments.p0[:, 0] + cfg.segments.p1[:, 0]) > 0.0)


def test_same_active_space_detects_changes():
    a = build_cut_configuration(GRID, _rect_loop(0.3111, 0.2777, 0.31, 0.27))
    b = build_cut_configuration(GRID, _rect_loop(0.3111, 0.2777, 0.31, 0.27))
    assert a.same_active_space(b)
    c = build_cut_configuration(GRID, _rect_loop(0.3111 + 0.125, 0.2777, 0.31, 0.27))
    assert not a.same_active_space(c)


def test_point_in_polygon_matches_oracle():
    # the array test agrees with the scalar crossing oracle and with the
    # independent turning-angle oracle, also on points with the y of a vertex
    poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.5, 2.5, size=(300, 2))
    pts[:40, 1] = rng.choice([0.0, 1.0, 2.0], size=40)
    pts[:40, 0] = rng.uniform(0.1, 0.9, size=40) + rng.choice([-1.0, 0.0, 1.5], size=40)
    got = _inside(pts, poly)
    assert got.shape == (300,)
    for p, inside in zip(pts, got):
        assert inside == _point_in_polygon(p, poly)
        if _scalar_dist(p, poly) > 1e-9:
            assert inside == _angle_sum_inside(p, poly)
    assert _inside(np.empty((0, 2)), poly).shape == (0,)


def test_flap_cut_matches_scalar_reference():
    grid = StructuredGrid((0.0, 0.0), (2.5 / 60, 1.1 / 26), (60, 26))
    rng = np.random.default_rng(5)
    corners = np.array([[1.0, 0.0], [1.04, 0.0], [1.04, 0.6], [1.0, 0.6]])
    base = np.concatenate(
        [corners[k] + np.linspace(0.0, 1.0, 5)[:-1, None] * (corners[(k + 1) % 4] - corners[k]) for k in range(4)]
    )
    wet = np.ones(16, dtype=bool)
    wet[:4] = False  # the clamped bottom
    for _ in range(5):
        loop = base + rng.normal(scale=0.01, size=base.shape) * (base[:, 1:] > 0.0)
        cfg = build_cut_configuration(grid, loop, wet)
        assert cfg.piece_elem.size
        _assert_matches_scalar_reference(grid, cfg, loop, wet)


def _clip_matches_oracle(poly, nrm, c, tol):
    """One `_clip_round` split of `poly` by nrm . x = c, checked bitwise
    against the scalar `_split_convex`; returns the parts."""
    want = [q for q in _split_convex(poly, poly @ nrm - c, tol) if q is not None]
    parts, cnt, parent = _clip_round(poly[None], np.array([len(poly)]), nrm[None], np.array([c]), tol)
    got = [parts[i, : cnt[i]] for i in range(len(cnt))]
    assert parent.tolist() == [0] * len(want)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    return got


def test_split_drops_a_closing_duplicate():
    # a line just past the apex of a thin triangle: the crossing points on
    # both apex edges lie within tol of each other, so the lower side's last
    # vertex duplicates its first and the upper side collapses
    poly = np.array([[0.0, 1.0], [-0.1, 0.0], [0.1, 0.0]])
    parts = _clip_matches_oracle(poly, np.array([0.0, 1.0]), 1.0 - 2e-12, 1e-12)
    assert len(parts) == 1 and len(parts[0]) == 3


def test_split_drops_a_vertex_near_the_last_kept_one():
    # the same apex as the last vertex: the lower side emits both crossing
    # points in a row, and the second is dropped against the first
    poly = np.array([[-0.1, 0.0], [0.1, 0.0], [0.0, 1.0]])
    parts = _clip_matches_oracle(poly, np.array([0.0, 1.0]), 1.0 - 2e-12, 1e-12)
    assert len(parts) == 1 and len(parts[0]) == 3


def test_split_drops_a_sliver_below_the_area_tolerance():
    # near the origin, where the shoelace is exact enough to tell: the upper
    # side is a triangle with sides above tol but an area of 0.9 tol^2
    s, a, tol = 1e-10, 0.625, 1e-12
    poly = np.array([[0.0, s], [-a * s, 0.0], [a * s, 0.0]])
    parts = _clip_matches_oracle(poly, np.array([0.0, 1.0]), s - 1.2 * tol, tol)
    assert len(parts) == 1 and len(parts[0]) == 4


def test_cell_crossed_by_five_edges_matches_scalar_reference():
    # a pentagon inside one cell: its fluid part is clipped by all five lines
    centre = np.array([0.31, 0.3])
    ang = 2 * np.pi * (np.arange(5) + 0.3) / 5
    loop = centre + 0.04 * np.column_stack([np.cos(ang), np.sin(ang)])
    cfg = build_cut_configuration(GRID, loop)
    e = GRID.locate(centre)
    rect = GRID.elem_bbox(e)
    assert all(_segment_param_in_rect(loop[k], loop[(k + 1) % 5], rect) for k in range(5))
    assert cfg.status[e] == ElemStatus.CUT and len(_piece_polys(cfg, e)) >= 5
    _assert_matches_scalar_reference(GRID, cfg, loop)


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


# ---------------------------------------------------------------------------
# property campaign: star-shaped CCW polygons with grid-degenerate vertices

CAMPAIGN_GRIDS = (
    GRID,
    StructuredGrid((-0.3, 0.2), (0.1, 0.07), (10, 12)),
)
VERTEX_KINDS = ("free", "line", "node", "near", "sliver", "along")


@st.composite
def _star_polygons(draw):
    """A CCW polygon star-shaped about a centre near the middle of the grid,
    vertex k in the open angular sector (k, k + 1) * 2 pi / n, at 0.12 to 0.3
    of the shorter grid side from the centre. Vertices are free, on a grid
    line, on a grid node, within SNAP_REL of a line, 1e-9 to 1e-5 cells
    beyond a line (slivers), or on the line of the previous vertex (an edge
    along a grid line); a vertex whose ray misses the chosen line or node
    inside the radius band stays free."""
    grid = draw(st.sampled_from(CAMPAIGN_GRIDS))
    hx, hy = grid.spacing
    width, height = grid.nx * hx, grid.ny * hy
    n = draw(st.integers(4, 9))
    centre = np.array(grid.origin) + np.array(
        [draw(st.floats(0.45, 0.55)) * width, draw(st.floats(0.45, 0.55)) * height]
    )
    rmin, rmax = 0.12 * min(width, height), 0.3 * min(width, height)
    nodes = grid.node_coords()
    verts = []
    prev_line = None  # (axis, coordinate) of the previous vertex's line
    for k in range(n):
        lo, hi = 2 * np.pi * k / n, 2 * np.pi * (k + 1) / n
        theta = lo + draw(st.floats(0.1, 0.9)) * (hi - lo)
        direction = np.array([np.cos(theta), np.sin(theta)])
        free = centre + draw(st.floats(rmin, rmax)) * direction
        kind = draw(st.sampled_from(VERTEX_KINDS))
        axis = draw(st.integers(0, 1))
        v, line = free, None
        if kind == "node":
            rel = nodes - centre
            ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
            rad = np.hypot(rel[:, 0], rel[:, 1])
            ok = (ang > lo) & (ang < hi) & (rad >= rmin) & (rad <= rmax)
            if ok.any():
                v = nodes[np.flatnonzero(ok)[np.argmin(np.hypot(*(nodes[ok] - free).T))]]
        elif kind != "free":
            if kind == "along" and prev_line is not None:
                axis, coord = prev_line
            else:
                h, o = grid.spacing[axis], grid.origin[axis]
                coord = o + np.round((free[axis] - o) / h) * h
            if abs(direction[axis]) > 1e-3:
                r = (coord - centre[axis]) / direction[axis]
                if rmin <= r <= rmax:
                    v = centre + r * direction
                    v[axis] = coord
                    line = (axis, coord)
            if line is not None and kind in ("near", "sliver"):
                snap = np.log10(SNAP_REL)
                exponent = draw(
                    st.floats(-15.0, snap - 0.05) if kind == "near" else st.floats(snap + 0.05, -5.0)
                )
                sign = draw(st.sampled_from((-1.0, 1.0)))
                v[axis] += sign * 10.0**exponent * grid.spacing[axis]
                line = None
        verts.append(v)
        prev_line = line
    return grid, np.array(verts)


@given(_star_polygons())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_cut_properties_on_degenerate_polygons(case):
    grid, loop_vertices = case
    cfg = build_cut_configuration(grid, loop_vertices)
    total = grid.nx * grid.ny * grid.spacing[0] * grid.spacing[1]
    assert cfg.fluid_area() + _shoelace(cfg.loop) == pytest.approx(total, rel=1e-12)
    assert cfg.interface_length() == pytest.approx(_perimeter(cfg.loop), rel=1e-12)
    assert np.all(cfg.status[cfg.segments.elem] != ElemStatus.COVERED)
    _assert_matches_scalar_reference(grid, cfg, loop_vertices)
