"""Intersection of a structured background grid with a closed interface polygon.

The interface (a counterclockwise polyline, e.g. the current boundary of a
deformed solid) divides every background cell into a covered part and a fluid
part. Cells are classified as fully fluid, fully covered, or cut; cut cells
carry an exact decomposition of their fluid part into convex polygons, and the
interface itself is partitioned into per-cell segments used for surface
integration. Node and facet bookkeeping for ghost stabilization and function
space updates lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .meshes import StructuredGrid

__all__ = [
    "ElemStatus",
    "NodeRole",
    "GeometryError",
    "InterfaceSegment",
    "CutConfiguration",
    "build_cut_configuration",
    "point_in_polygon",
    "snap_to_grid",
    "jump",
    "avg",
    "avg_conjugate",
    "SNAP_REL",
    "AREA_TOL_REL",
]

SNAP_REL = 1e-9  # vertex snap distance relative to cell size
AREA_TOL_REL = 1e-12  # cut/uncut classification threshold relative to cell area


class GeometryError(RuntimeError):
    """Raised when the grid/interface intersection is inconsistent."""


class ElemStatus(IntEnum):
    COVERED = 0  # no fluid part; inactive
    FLUID = 1  # entirely fluid; active, uncut
    CUT = 2  # partial fluid part; active


class NodeRole(IntEnum):
    INACTIVE = 0  # not a node of any active element
    STANDARD = 1  # active, located in the closed fluid region
    GHOST = 2  # active but strictly inside the covered region


def jump(fi, fj):
    """Interface jump fi - fj."""
    return fi - fj


def avg(fi, fj, wi):
    """Weighted average wi*fi + (1-wi)*fj."""
    return wi * fi + (1.0 - wi) * fj


def avg_conjugate(fi, fj, wi):
    """Conjugate average (1-wi)*fi + wi*fj; pairs with `avg` in the product
    rule jump(f*g) = jump(f)*avg(g) + avg_conjugate(f)*jump(g)."""
    return (1.0 - wi) * fi + wi * fj


def point_in_polygon(p, poly):
    """Strictly-inside test by ray crossing; points on the boundary are not
    guaranteed either way and must be filtered by the caller."""
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


def _dist_to_segments(p, poly):
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    ap = p[None, :] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    # a zero-length edge (repeated vertex) projects onto its start point
    t = np.divide(np.einsum("ij,ij->i", ap, ab), denom, out=np.zeros_like(denom), where=denom > 0)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return float(np.min(np.hypot(*(p[None, :] - closest).T)))


def snap_to_grid(grid: StructuredGrid, vertices: np.ndarray) -> np.ndarray:
    """Snap vertex coordinates onto nearby grid lines (within SNAP_REL * h)."""
    v = np.array(vertices, dtype=float)
    for axis in range(2):
        h = grid.spacing[axis]
        frac = (v[:, axis] - grid.origin[axis]) / h
        snapped = np.round(frac)
        close = np.abs(frac - snapped) < SNAP_REL
        v[close, axis] = grid.origin[axis] + snapped[close] * h
    return v


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
    if arr.shape[0] < 3 or abs(_signed_area(arr)) <= tol * tol:
        return None
    return arr


def _signed_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _segment_param_in_rect(a, b, rect):
    """Liang-Barsky: parameter window [t0, t1] of segment a->b inside the
    closed rectangle, or None."""
    x0, y0, x1, y1 = rect
    t0, t1 = 0.0, 1.0
    d = (b[0] - a[0], b[1] - a[1])
    p = (-d[0], d[0], -d[1], d[1])
    q = (a[0] - x0, x1 - a[0], a[1] - y0, y1 - a[1])
    for pi, qi in zip(p, q):
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


@dataclass(frozen=True)
class InterfaceSegment:
    """One straight interface piece contained in a single background element.

    `loop_index` is the index of the originating polyline edge; `t0`, `t1`
    are parameters along that edge so traces of fields living on the
    interface can be interpolated between its endpoint values.
    """

    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray  # unit, pointing from the fluid into the covered side
    elem: int
    loop_index: int
    t0: float
    t1: float

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.p1 - self.p0)))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p0 + self.p1)


class CutConfiguration:
    """Frozen result of intersecting a grid with an interface polygon."""

    def __init__(self, grid, status, pieces, segments, loop, node_role):
        self.grid = grid
        self.status = status  # (n_elems,) ElemStatus values
        self.pieces = pieces  # {cut elem: [convex CCW fluid polygon, ...]}
        self.segments = segments  # list[InterfaceSegment]
        self.loop = loop  # snapped closed CCW polygon or None
        self.node_role = node_role  # (n_nodes,) NodeRole values
        self.active_elems = np.flatnonzero(status != ElemStatus.COVERED)
        self.active_nodes = np.flatnonzero(node_role != NodeRole.INACTIVE)

    def fluid_area(self) -> float:
        hx, hy = self.grid.spacing
        full = float(np.count_nonzero(self.status == ElemStatus.FLUID)) * hx * hy
        part = sum(
            abs(_signed_area(p)) for polys in self.pieces.values() for p in polys
        )
        return full + part

    def interface_length(self) -> float:
        return sum(s.length for s in self.segments)

    def elem_is_active(self, e: int) -> bool:
        return self.status[e] != ElemStatus.COVERED

    def ghost_facets(self, widened: bool = False) -> list[tuple[int, int, int, int]]:
        """Interior faces of the active mesh adjacent to at least one cut
        element. With `widened=True` faces adjacent to a neighbour of a cut
        element are included as well (used when the space is frozen while the
        interface keeps moving)."""
        g = self.grid
        cut = (self.status == ElemStatus.CUT).reshape(g.ny, g.nx)
        marked = cut.copy()
        if widened:
            marked[1:] |= cut[:-1]
            marked[:-1] |= cut[1:]
            marked[:, 1:] |= cut[:, :-1]
            marked[:, :-1] |= cut[:, 1:]
        marked = marked.ravel()
        active = self.status != ElemStatus.COVERED
        faces = g.interior_faces()
        el, er = faces[:, 0], faces[:, 1]
        keep = active[el] & active[er] & (marked[el] | marked[er])
        return [tuple(f) for f in faces[keep].tolist()]

    def same_active_space(self, other: "CutConfiguration") -> bool:
        return (
            self.grid is other.grid
            and np.array_equal(self.active_nodes, other.active_nodes)
            and np.array_equal(self.node_role, other.node_role)
        )


def _all_fluid_configuration(grid):
    status = np.full(grid.n_elems, ElemStatus.FLUID, dtype=np.int8)
    node_role = np.full(grid.n_nodes, NodeRole.STANDARD, dtype=np.int8)
    return CutConfiguration(grid, status, {}, [], None, node_role)


def build_cut_configuration(
    grid: StructuredGrid,
    loop_vertices: np.ndarray | None,
    wet_mask: np.ndarray | None = None,
) -> CutConfiguration:
    """Intersect the grid with a closed CCW interface polygon.

    `loop_vertices` is the (m, 2) polygon; edge k runs from vertex k to
    vertex k+1 (mod m). `wet_mask` marks edges that carry interface coupling
    terms (default: all). Passing None builds an uncut, fully fluid
    configuration.
    """
    if loop_vertices is None:
        return _all_fluid_configuration(grid)
    loop = snap_to_grid(grid, loop_vertices)
    m = loop.shape[0]
    if m < 3:
        raise GeometryError("interface polygon needs at least 3 vertices")
    if _signed_area(loop) <= 0.0:
        raise GeometryError("interface polygon must be counterclockwise")
    if wet_mask is None:
        wet_mask = np.ones(m, dtype=bool)

    hx, hy = grid.spacing
    diam = grid.elem_diameter()
    cell_area = hx * hy
    tol_line = 1e-12 * diam

    # Candidate cut elements: cells overlapped by each edge's bounding box.
    edges = [(loop[k], loop[(k + 1) % m]) for k in range(m)]
    crossing: dict[int, list[int]] = {}
    for k, (a, b) in enumerate(edges):
        i0 = int(np.floor((min(a[0], b[0]) - grid.origin[0]) / hx - 1e-12))
        i1 = int(np.floor((max(a[0], b[0]) - grid.origin[0]) / hx + 1e-12))
        j0 = int(np.floor((min(a[1], b[1]) - grid.origin[1]) / hy - 1e-12))
        j1 = int(np.floor((max(a[1], b[1]) - grid.origin[1]) / hy + 1e-12))
        for j in range(max(j0, 0), min(j1, grid.ny - 1) + 1):
            for i in range(max(i0, 0), min(i1, grid.nx - 1) + 1):
                e = grid.elem_id(i, j)
                rect = grid.elem_bbox(e)
                if _segment_param_in_rect(a, b, rect) is not None:
                    crossing.setdefault(e, []).append(k)

    status = np.empty(grid.n_elems, dtype=np.int8)
    pieces: dict[int, list[np.ndarray]] = {}
    xy = grid.node_coords()
    for e in range(grid.n_elems):
        rect = grid.elem_bbox(e)
        if e not in crossing:
            cx, cy = 0.5 * (rect[0] + rect[2]), 0.5 * (rect[1] + rect[3])
            inside = point_in_polygon((cx, cy), loop)
            status[e] = ElemStatus.COVERED if inside else ElemStatus.FLUID
            continue
        poly0 = np.array(
            [[rect[0], rect[1]], [rect[2], rect[1]], [rect[2], rect[3]], [rect[0], rect[3]]]
        )
        parts = [poly0]
        for k in crossing[e]:
            a, b = edges[k]
            nrm = np.array([-(b[1] - a[1]), b[0] - a[0]])
            nlen = np.hypot(*nrm)
            if nlen == 0.0:
                continue
            nrm /= nlen
            c = float(nrm @ a)
            nxt: list[np.ndarray] = []
            for poly in parts:
                lo, hi = _split_convex(poly, poly @ nrm - c, tol_line)
                if lo is not None:
                    nxt.append(lo)
                if hi is not None:
                    nxt.append(hi)
            parts = nxt
        fluid_parts = [p for p in parts if not point_in_polygon(p.mean(axis=0), loop)]
        a_f = sum(abs(_signed_area(p)) for p in fluid_parts)
        if a_f <= AREA_TOL_REL * cell_area:
            status[e] = ElemStatus.COVERED
        elif a_f >= (1.0 - AREA_TOL_REL) * cell_area:
            status[e] = ElemStatus.FLUID
        else:
            status[e] = ElemStatus.CUT
            pieces[e] = fluid_parts

    # Partition wet edges into per-element interface segments; pieces outside
    # the grid carry no coupling and are dropped.
    eps = 1e-6 * min(hx, hy)
    grid_box = (
        grid.origin[0],
        grid.origin[1],
        grid.origin[0] + grid.nx * hx,
        grid.origin[1] + grid.ny * hy,
    )
    segments: list[InterfaceSegment] = []
    for k, (a, b) in enumerate(edges):
        if not wet_mask[k]:
            continue
        d = b - a
        length = float(np.hypot(*d))
        if length == 0.0:
            continue
        window = _segment_param_in_rect(a, b, grid_box)
        if window is None:
            continue
        nrm = np.array([-d[1], d[0]]) / length  # unit, fluid -> covered side
        ts = set(window)
        for axis, h, o in ((0, hx, grid.origin[0]), (1, hy, grid.origin[1])):
            if d[axis] != 0.0:
                f0 = (a[axis] - o) / h
                f1 = (b[axis] - o) / h
                lo, hi = min(f0, f1), max(f0, f1)
                for line in range(int(np.ceil(lo - 1e-12)), int(np.floor(hi + 1e-12)) + 1):
                    t = (line - f0) / (f1 - f0)
                    if window[0] + 1e-14 < t < window[1] - 1e-14:
                        ts.add(float(t))
        params = sorted(ts)
        for t0, t1 in zip(params[:-1], params[1:]):
            if t1 - t0 <= 1e-14:
                continue
            p0 = a + t0 * d
            p1 = a + t1 * d
            mid = 0.5 * (p0 + p1)
            sample = mid - eps * nrm
            try:
                owner = grid.locate(sample)
            except ValueError:
                raise GeometryError(
                    f"wet interface edge {k} has its fluid side outside the grid"
                ) from None
            if status[owner] == ElemStatus.COVERED:
                raise GeometryError(
                    f"wet interface edge {k} lies in an element without fluid"
                )
            segments.append(
                InterfaceSegment(p0, p1, nrm.copy(), owner, k, float(t0), float(t1))
            )

    # Node roles: nodes of active elements are active; those strictly inside
    # the interface polygon only support the discrete extension (ghost role).
    node_role = np.full(grid.n_nodes, NodeRole.INACTIVE, dtype=np.int8)
    conn = grid.all_elem_nodes()
    fluid_nodes = np.unique(conn[status == ElemStatus.FLUID])
    node_role[fluid_nodes] = NodeRole.STANDARD
    cut_nodes = np.unique(conn[status == ElemStatus.CUT])
    on_tol = 1e-12 * diam
    for n in cut_nodes:
        if node_role[n] == NodeRole.STANDARD:
            continue
        p = xy[n]
        if _dist_to_segments(p, loop) <= on_tol:
            node_role[n] = NodeRole.STANDARD
        elif point_in_polygon(p, loop):
            node_role[n] = NodeRole.GHOST
        else:
            node_role[n] = NodeRole.STANDARD

    return CutConfiguration(grid, status, pieces, segments, loop, node_role)
