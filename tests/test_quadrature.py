from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfsi.quadrature import (
    NotStarShapedError,
    fan_triangulate,
    polygon_rule,
    rectangle_rule,
    signed_area,
)


def _poly_moment(poly, px, py):
    """Integrate x^px * y^py over a simple CCW polygon exactly.

    Green's theorem oracle: integrate x^px y^py dx dy by reducing to an edge
    integral of x^px y^(py+1)/(py+1) dx with exact 1D Gauss (degree px+py+1).
    """
    poly = np.asarray(poly, dtype=float)
    n = poly.shape[0]
    npts = (px + py) // 2 + 2
    xi, wi = np.polynomial.legendre.leggauss(npts)
    total = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        t = 0.5 * (xi + 1.0)
        x = x0 + t * (x1 - x0)
        y = y0 + t * (y1 - y0)
        dx = 0.5 * (x1 - x0)
        # closed curve CCW: area integral = -oint f dx with f = x^px y^(py+1)/(py+1)
        total -= np.sum(wi * (x**px) * (y ** (py + 1)) / (py + 1) * dx)
    return total


def test_triangle_rule_area_and_first_moment():
    rule = polygon_rule(np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)
    # integral of x over the unit right triangle = 1/6
    assert np.sum(rule.weights * rule.points[:, 0]) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_triangle_rule_degree4_exact():
    tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]])
    rule = polygon_rule(tri)
    for px, py in [(4, 0), (0, 4), (2, 2), (3, 1), (1, 3)]:
        got = np.sum(rule.weights * rule.points[:, 0] ** px * rule.points[:, 1] ** py)
        want = _poly_moment(tri, px, py)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_triangle_rule_weights_positive():
    rule = polygon_rule(np.array([(0.0, 0.0), (2.0, 0.0), (0.0, 3.0)]))
    assert np.all(rule.weights > 0)


def test_degenerate_triangle_empty():
    rule = polygon_rule(np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
    assert len(rule) == 0


def test_rectangle_rule_area_and_moments():
    rule = rectangle_rule(0.5, 1.0, 0.25, 0.5, npts=3)
    assert rule.weights.sum() == pytest.approx(0.125, abs=1e-15)
    got = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 3)
    want = _poly_moment([[0.5, 1.0], [0.75, 1.0], [0.75, 1.5], [0.5, 1.5]], 2, 3)
    assert got == pytest.approx(want, rel=1e-13)


def test_polygon_rule_convex_matches_oracle():
    poly = np.array([[0.0, 0.0], [2.0, 0.2], [2.2, 1.5], [1.0, 2.1], [-0.3, 1.0]])
    rule = polygon_rule(poly)
    assert rule.weights.sum() == pytest.approx(_poly_moment(poly, 0, 0), rel=1e-13)
    for px, py in [(1, 0), (0, 1), (2, 1), (1, 3), (4, 0)]:
        got = np.sum(rule.weights * rule.points[:, 0] ** px * rule.points[:, 1] ** py)
        assert got == pytest.approx(_poly_moment(poly, px, py), rel=1e-12, abs=1e-14)


def test_polygon_rule_refuses_polygon_not_star_shaped():
    # L-shaped polygon whose vertex mean is its reflex corner: no fan
    poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
    with pytest.raises(NotStarShapedError, match="not star-shaped"):
        polygon_rule(poly)


def test_fan_triangulate_star_shaped_uses_all_edges():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris, ntri = fan_triangulate(poly[None], np.array([4]))
    assert ntri.tolist() == [4]
    tris = tris[0]
    area = sum(
        0.5 * abs((t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1]) - (t[2, 0] - t[0, 0]) * (t[1, 1] - t[0, 1]))
        for t in tris
    )
    assert area == pytest.approx(1.0, abs=1e-15)


def test_polygon_rule_rejects_clockwise():
    poly = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        polygon_rule(poly)


def _stack(polys):
    """Padded (P, V, 2) stack and vertex counts of a list of polygons."""
    counts = np.array([len(p) for p in polys])
    stack = np.full((len(polys), counts.max(), 2), np.nan)
    for p, poly in enumerate(polys):
        stack[p, : len(poly)] = poly
    return stack, counts


def test_concat_and_empty():
    # a stack's rule is its polygons' rules one after the other; a
    # zero-area polygon contributes no points
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    tri = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    r1, r2 = polygon_rule(square), polygon_rule(tri)
    cat, sizes = polygon_rule(*_stack([square, flat, tri]))
    assert len(cat) == len(r1) + len(r2) == 30
    assert sizes.tolist() == [24, 0, 6]
    assert cat.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(cat.points, np.vstack([r1.points, r2.points]))
    empty, sizes = polygon_rule(*_stack([flat]))
    assert len(empty) == 0 and sizes.tolist() == [0]


@st.composite
def _convex_polygons(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    angles = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2 * np.pi - 1e-3),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    if min(np.diff(angles), default=1.0) < 1e-2:
        angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    r = draw(st.floats(min_value=0.3, max_value=5.0))
    cx = draw(st.floats(min_value=-3.0, max_value=3.0))
    cy = draw(st.floats(min_value=-3.0, max_value=3.0))
    return np.column_stack([cx + r * np.cos(angles), cy + r * np.sin(angles)])


@given(_convex_polygons())
@settings(max_examples=50, deadline=None)
def test_polygon_rule_quadratic_exact_property(poly):
    rule = polygon_rule(poly)
    for px, py in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        got = np.sum(rule.weights * rule.points[:, 0] ** px * rule.points[:, 1] ** py)
        want = _poly_moment(poly, px, py)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# the rule of a padded stack against the rule of each polygon on its own

_TRI6_A = 0.445948490915965
_TRI6_B = 0.091576213509771
_TRI6_BARY = np.array(
    [
        [1.0 - 2.0 * _TRI6_A, _TRI6_A, _TRI6_A],
        [_TRI6_A, 1.0 - 2.0 * _TRI6_A, _TRI6_A],
        [_TRI6_A, _TRI6_A, 1.0 - 2.0 * _TRI6_A],
        [1.0 - 2.0 * _TRI6_B, _TRI6_B, _TRI6_B],
        [_TRI6_B, 1.0 - 2.0 * _TRI6_B, _TRI6_B],
        [_TRI6_B, _TRI6_B, 1.0 - 2.0 * _TRI6_B],
    ]
)
_TRI6_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def _triangle_rule(v0, v1, v2):
    verts = np.array([v0, v1, v2], dtype=float)
    area = 0.5 * abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1])
    )
    if area == 0.0:
        return np.zeros((0, 2)), np.zeros(0)
    return _TRI6_BARY @ verts, _TRI6_W * area


def _fan(poly):
    n = poly.shape[0]
    if n == 3:
        return [poly.copy()]
    centroid = poly.mean(axis=0)
    tris = []
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        tris.append(np.array([centroid, a, b]))
    return tris


def _polygon_rule_oracle(poly):
    """The rule of one polygon, triangle by triangle, as (points, weights)."""
    if poly.shape[0] < 3 or signed_area(poly) == 0.0:
        return np.zeros((0, 2)), np.zeros(0)
    rules = [_triangle_rule(*t) for t in _fan(poly)]
    return np.vstack([p for p, _ in rules]), np.concatenate([w for _, w in rules])


NON_STAR = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.1], [0.2, 0.1], [0.2, 2.0], [0.0, 2.0]])


@given(st.lists(_convex_polygons(), min_size=1, max_size=12), st.integers(0, 12), st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_stack_rule_matches_rules_of_single_polygons(polys, at, shift):
    # one polygon that is not star-shaped refuses the whole stack
    with pytest.raises(NotStarShapedError, match="not star-shaped"):
        polygon_rule(*_stack([*polys[:at], NON_STAR + shift, *polys[at:]]))
    stack, counts = _stack(polys)
    want_area = [signed_area(poly) for poly in polys]
    assert signed_area(stack, counts).tobytes() == np.array(want_area).tobytes()
    rule, sizes = polygon_rule(stack, counts)
    start = 0
    for poly, size in zip(polys, sizes):
        pts, w = _polygon_rule_oracle(poly)
        got_pts, got_w = rule.points[start : start + size], rule.weights[start : start + size]
        assert size == w.size
        assert got_w.tobytes() == w.tobytes()
        assert got_pts.tobytes() == pts.tobytes()
        start += size
    assert start == len(rule)
