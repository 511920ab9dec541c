"""Numerical integration rules on triangles, rectangles and polygons.

All rules return physical-space points together with weights carrying area
units, so integrals are plain weighted sums of integrand samples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotStarShapedError",
    "QuadratureRule",
    "rectangle_rule",
    "polygon_rule",
    "fan_triangulate",
    "stack_polygons",
    "vertex_means",
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


class NotStarShapedError(ValueError):
    """A polygon is not star-shaped about its vertex mean, so it has no fan
    triangulation."""


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


def rectangle_rule(x0, y0, hx, hy, npts=3):
    """Tensor Gauss rule on the axis-aligned rectangle [x0, x0+hx] x [y0, y0+hy]."""
    xi, wi = np.polynomial.legendre.leggauss(npts)
    xs = x0 + 0.5 * hx * (xi + 1.0)
    ys = y0 + 0.5 * hy * (xi + 1.0)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    WX, WY = np.meshgrid(wi * 0.5 * hx, wi * 0.5 * hy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(pts, (WX * WY).ravel())


def signed_area(poly, counts=None):
    """Shoelace area of the polygon `poly` (n, 2), positive when CCW; with
    `counts` (P,), the (P,) areas of a padded stack (P, V, 2) of polygons
    with counts[p] vertices, bitwise the single polygons': grouped by vertex
    count, every dot product sees the vector length and strides of one."""
    if counts is None:
        x, y = poly[:, 0], poly[:, 1]
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    area = np.zeros(len(counts))
    for n in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == n)
        x, y = np.moveaxis(poly[group, :n], 2, 0)  # strided, as poly[:, 0]
        nxt = np.arange(1, n + 1) % n
        area[group] = 0.5 * (x[:, None] @ y[:, nxt, None] - y[:, None] @ x[:, nxt, None])[:, 0, 0]
    return area


def vertex_means(polys, counts):
    """The vertex means of a padded stack (P, V, 2) of polygons with counts
    (P,) vertices, summed in vertex order: bitwise each one's `mean(axis=0)`."""
    total = polys[:, 0]
    for v in range(1, polys.shape[1]):
        total = np.where((v < counts)[:, None], total + polys[:, v], total)
    return total / counts[:, None]


def fan_triangulate(polys, counts):
    """Triangulate a padded stack (P, V, 2) of simple CCW polygons with
    counts (P,) >= 3 vertices: a triangle is its own triangulation, any
    other polygon is fanned from its vertex mean, about which it must be
    star-shaped (cut pieces are convex: grid cells cut by half-planes).
    Returns triangle vertices (P, V, 3, 2), of which the first ntri[p]
    triangulate polygon p, and ntri (P,); raises NotStarShapedError for a
    polygon that cannot be fanned."""
    slot = np.arange(polys.shape[1])
    valid = slot < counts[:, None]
    centroid = np.broadcast_to(vertex_means(polys, counts)[:, None], polys.shape)
    nxt = np.where(slot + 1 < counts[:, None], slot + 1, 0)
    a, b = polys, np.take_along_axis(polys, nxt[..., None], axis=1)
    ca, cb = a - centroid, b - centroid
    cross = ca[..., 0] * cb[..., 1] - ca[..., 1] * cb[..., 0]
    tris = np.stack([centroid, a, b], axis=2)
    ntri = counts.copy()
    own = counts == 3
    tris[own, 0] = polys[own, :3]
    ntri[own] = 1
    bad = np.count_nonzero(~own & np.any(valid & (cross <= 0.0), axis=1))
    if bad:
        raise NotStarShapedError(
            f"{bad} polygon(s) not star-shaped about their vertex means"
        )
    return tris, ntri


def stack_polygons(polys):
    """The padded (P, V, 2) stack of a list of (n_p, 2) polygons, zeros past
    each polygon's vertices, and the vertex counts (P,); an empty list gives
    an empty stack of triangles, V = 3."""
    counts = np.array([len(p) for p in polys], dtype=np.intp)
    stack = np.zeros((len(polys), max(counts, default=3), 2))
    stack[np.arange(stack.shape[1]) < counts[:, None]] = np.concatenate([np.zeros((0, 2)), *polys])
    return stack, counts


def polygon_rule(poly, counts=None):
    """Degree-4 volume rule on a simple CCW polygon (V, 2), star-shaped
    about its vertex mean, from the 6-point rules of the triangles of
    `fan_triangulate`; weights sum to the polygon area, and a zero-area
    polygon or triangle yields no points.

    With `counts` (P,), `poly` is a padded stack (P, V, 2) of such polygons
    with counts[p] vertices each. Returns the rule of all of them, polygon
    by polygon, and the number of points of each (P,); every polygon gets
    the points and weights of its single rule bitwise, from one
    triangulation of the stack and one product for all triangles.
    """
    single = counts is None
    if single:
        poly = np.asarray(poly, dtype=float)[None]
        counts = np.array([poly.shape[1]])
    area = signed_area(poly, counts)
    if np.any((counts >= 3) & (area < 0.0)):
        raise ValueError("polygon must be counterclockwise")
    ruled = np.flatnonzero((counts >= 3) & (area != 0.0))
    sizes = np.zeros(len(counts), dtype=np.intp)
    rule = QuadratureRule(np.zeros((0, 2)), np.zeros(0))
    if ruled.size:
        tris, ntri = fan_triangulate(poly[ruled], counts[ruled])
        e1, e2 = tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]
        tri_area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1])
        used = (np.arange(tris.shape[1]) < ntri[:, None]) & (tri_area != 0.0)
        rule = QuadratureRule(_TRI6_BARY @ tris[used], tri_area[used][:, None] * _TRI6_W)
        sizes[ruled] = _TRI6_W.size * np.count_nonzero(used, axis=1)
    return rule if single else (rule, sizes)
