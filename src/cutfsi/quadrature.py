"""Numerical integration rules on triangles, rectangles and polygons.

All rules return physical-space points together with weights carrying area
units, so integrals are plain weighted sums of integrand samples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "rectangle_rule",
    "polygon_rule",
    "fan_triangulate",
    "signed_area",
]

# Degree-4 rule on the reference triangle, 6 points, all weights positive.
_TRI6_A = 0.445948490915965
_TRI6_B = 0.091576213509771
_TRI6_W1 = 0.223381589678011
_TRI6_W2 = 0.109951743655322
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
_TRI6_W = np.array([_TRI6_W1] * 3 + [_TRI6_W2] * 3)


class QuadratureRule:
    """Point set with weights.

    Parameters
    ----------
    points : (n, 2) array
        Physical coordinates.
    weights : (n,) array
        Area weights, all positive.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights length mismatch")
        if np.any(self.weights <= 0.0) and self.weights.size:
            raise ValueError("quadrature weights must be positive")

    def __len__(self):
        return self.weights.size

    @property
    def total(self):
        return float(self.weights.sum())

    @staticmethod
    def empty():
        return QuadratureRule(np.zeros((0, 2)), np.zeros(0))

    @staticmethod
    def concat(rules):
        rules = [r for r in rules if len(r)]
        if not rules:
            return QuadratureRule.empty()
        pts = np.vstack([r.points for r in rules])
        w = np.concatenate([r.weights for r in rules])
        return QuadratureRule(pts, w)


def triangle_rule(v0, v1, v2):
    """Degree-4 rule on the triangle (v0, v1, v2); weights sum to its area."""
    verts = np.array([v0, v1, v2], dtype=float)
    area = 0.5 * abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1])
    )
    if area == 0.0:
        return QuadratureRule.empty()
    pts = _TRI6_BARY @ verts
    return QuadratureRule(pts, _TRI6_W * area)


def rectangle_rule(x0, y0, hx, hy, npts=3):
    """Tensor Gauss rule on the axis-aligned rectangle [x0, x0+hx] x [y0, y0+hy]."""
    xi, wi = np.polynomial.legendre.leggauss(npts)
    xs = x0 + 0.5 * hx * (xi + 1.0)
    ys = y0 + 0.5 * hy * (xi + 1.0)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    WX, WY = np.meshgrid(wi * 0.5 * hx, wi * 0.5 * hy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(pts, (WX * WY).ravel())


def signed_area(poly):
    """Shoelace area of the polygon `poly` (n, 2), positive when CCW."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def fan_triangulate(poly):
    """Triangulate a simple CCW polygon.

    Fans from the centroid when the polygon is star-shaped with respect to it,
    otherwise falls back to ear clipping. Returns a list of (3, 2) vertex arrays.
    """
    poly = np.asarray(poly, dtype=float)
    n = poly.shape[0]
    if n < 3:
        return []
    if n == 3:
        return [poly.copy()]
    centroid = poly.mean(axis=0)
    tris = []
    ok = True
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cross = (a[0] - centroid[0]) * (b[1] - centroid[1]) - (a[1] - centroid[1]) * (b[0] - centroid[0])
        if cross <= 0.0:
            ok = False
            break
        tris.append(np.array([centroid, a, b]))
    if ok:
        return tris
    return _ear_clip(poly)


def _ear_clip(poly):
    verts = list(range(poly.shape[0]))
    tris = []

    def cross(o, a, b):
        return (poly[a, 0] - poly[o, 0]) * (poly[b, 1] - poly[o, 1]) - (
            poly[a, 1] - poly[o, 1]
        ) * (poly[b, 0] - poly[o, 0])

    def inside_tri(p, a, b, c):
        d1 = (poly[b, 0] - poly[a, 0]) * (p[1] - poly[a, 1]) - (poly[b, 1] - poly[a, 1]) * (p[0] - poly[a, 0])
        d2 = (poly[c, 0] - poly[b, 0]) * (p[1] - poly[b, 1]) - (poly[c, 1] - poly[b, 1]) * (p[0] - poly[b, 0])
        d3 = (poly[a, 0] - poly[c, 0]) * (p[1] - poly[c, 1]) - (poly[a, 1] - poly[c, 1]) * (p[0] - poly[c, 0])
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    guard = 0
    while len(verts) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("ear clipping failed; polygon may be self-intersecting")
        n = len(verts)
        clipped = False
        for k in range(n):
            i_prev, i, i_next = verts[k - 1], verts[k], verts[(k + 1) % n]
            if cross(i_prev, i, i_next) <= 0.0:
                continue
            ear = True
            for j in verts:
                if j in (i_prev, i, i_next):
                    continue
                if inside_tri(poly[j], i_prev, i, i_next):
                    ear = False
                    break
            if ear:
                tris.append(poly[[i_prev, i, i_next]].copy())
                verts.pop(k)
                clipped = True
                break
        if not clipped:
            raise ValueError("ear clipping failed; polygon may be self-intersecting")
    tris.append(poly[verts].copy())
    return tris


def polygon_rule(poly):
    """Volume rule on a simple CCW polygon; weights sum to the polygon area.

    Zero-area polygons yield an empty rule.
    """
    poly = np.asarray(poly, dtype=float)
    if poly.shape[0] < 3 or signed_area(poly) == 0.0:
        return QuadratureRule.empty()
    if signed_area(poly) < 0.0:
        raise ValueError("polygon must be counterclockwise")
    return QuadratureRule.concat([triangle_rule(*t) for t in fan_triangulate(poly)])
