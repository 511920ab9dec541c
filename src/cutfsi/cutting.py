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
from .quadrature import signed_area

__all__ = [
    "ElemStatus",
    "NodeRole",
    "GeometryError",
    "InterfaceSegment",
    "CutConfiguration",
    "build_cut_configuration",
    "snap_to_grid",
    "grid_line_params",
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


def _inside(points, poly):
    """Crossing-number (even-odd) test of (P, 2) points against a closed
    polygon, as one (points x edges) expression: (P,) bool, True strictly
    inside. Points on the boundary are not guaranteed either way and must be
    filtered by the caller."""
    x, y = points[:, :1], points[:, 1:]
    xi, yi = poly[:, 0], poly[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)  # edge j -> i
    straddles = (yi > y) != (yj > y)
    # a non-straddling edge gets a unit denominator; its crossing is unused
    x_cross = xj + (y - yj) / np.where(straddles, yi - yj, 1.0) * (xi - xj)
    return np.count_nonzero(straddles & (x < x_cross), axis=1) % 2 == 1


def _dist_to_segments(points, poly):
    """Distance of each of the (P, 2) points to the closed polygon."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    ap = points[:, None, :] - a[None]
    denom = np.einsum("ij,ij->i", ab, ab)
    # a zero-length edge (repeated vertex) projects onto its start point
    t = np.clip(np.einsum("pij,ij->pi", ap, ab) / np.where(denom > 0, denom, 1.0), 0.0, 1.0)
    closest = a[None] + t[..., None] * ab[None]
    off = points[:, None, :] - closest
    return np.min(np.hypot(off[..., 0], off[..., 1]), axis=1)


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
    if arr.shape[0] < 3 or abs(signed_area(arr)) <= tol * tol:
        return None
    return arr


def _segment_windows(a, b, rects):
    """Liang-Barsky: parameter windows [t0, t1] of segment a->b inside each
    closed rectangle (x0, y0, x1, y1) of `rects` (R, 4). Returns (t0, t1,
    meets); `meets` marks the windows longer than 1e-14."""
    d = b - a
    p = np.array([-d[0], d[0], -d[1], d[1]])
    q = np.column_stack(
        [a[0] - rects[:, 0], rects[:, 2] - a[0], a[1] - rects[:, 1], rects[:, 3] - a[1]]
    )
    r = q / np.where(p == 0.0, 1.0, p)
    # + 0.0 turns a -0.0 entry parameter into 0.0, the start of the window
    t0 = np.max(np.where(p < 0.0, r, 0.0), axis=1) + 0.0
    t1 = np.min(np.where(p > 0.0, r, 1.0), axis=1)
    parallel_outside = np.any((p == 0.0) & (q < 0.0), axis=1)
    return t0, t1, ~parallel_outside & (t1 - t0 > 1e-14)


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


class CutConfiguration:
    """Frozen result of intersecting a grid with an interface polygon."""

    def __init__(self, grid, status, pieces, segments, loop, node_role):
        self.grid = grid
        self.status = status  # (n_elems,) ElemStatus values
        self.pieces = pieces  # {cut elem: [convex CCW fluid polygon, ...]}
        self.segments = segments  # list[InterfaceSegment]
        self.loop = loop  # snapped closed CCW polygon or None
        self.node_role = node_role  # (n_nodes,) NodeRole values
        self.cut_batch = None  # padded cut-element rules, set by the flow assembly
        self.batch_forces = None  # (callable, time, values per batch), set there too
        self.two_mesh_rule = None  # (embedded grid, rule, sides), set by the coupling
        self.active_elems = np.flatnonzero(status != ElemStatus.COVERED)
        self.active_nodes = np.flatnonzero(node_role != NodeRole.INACTIVE)

    def fluid_area(self) -> float:
        hx, hy = self.grid.spacing
        full = float(np.count_nonzero(self.status == ElemStatus.FLUID)) * hx * hy
        part = sum(
            abs(signed_area(p)) for polys in self.pieces.values() for p in polys
        )
        return full + part

    def interface_length(self) -> float:
        return sum(s.length for s in self.segments)

    def ghost_facets(self, widened: bool = False) -> np.ndarray:
        """Interior faces of the active mesh adjacent to at least one cut
        element, as (F, 4) int64 rows of `StructuredGrid.interior_faces`.
        With `widened=True` faces adjacent to a neighbour of a cut element are
        included as well (used when the space is frozen while the interface
        keeps moving)."""
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
        return faces[keep]

    def same_active_space(self, other: "CutConfiguration") -> bool:
        return (
            self.grid is other.grid
            and np.array_equal(self.active_nodes, other.active_nodes)
            and np.array_equal(self.node_role, other.node_role)
        )


def grid_line_params(grid: StructuredGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parameters t of the points a + t (b - a) where the segment meets a
    vertical or horizontal line of the grid, lines within 1e-12 cells beyond
    either end included; unsorted, and the caller picks the range it needs."""
    ts = []
    for axis in (0, 1):
        if b[axis] - a[axis] != 0.0:
            o, h = grid.origin[axis], grid.spacing[axis]
            f0 = (a[axis] - o) / h
            f1 = (b[axis] - o) / h
            lo, hi = min(f0, f1), max(f0, f1)
            lines = np.arange(np.ceil(lo - 1e-12), np.floor(hi + 1e-12) + 1.0)
            ts.append((lines - f0) / (f1 - f0))
    return np.concatenate(ts) if ts else np.zeros(0)


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
    if signed_area(loop) <= 0.0:
        raise GeometryError("interface polygon must be counterclockwise")
    if wet_mask is None:
        wet_mask = np.ones(m, dtype=bool)

    hx, hy = grid.spacing
    diam = grid.elem_diameter()
    cell_area = hx * hy
    tol_line = 1e-12 * diam

    # Cell rectangles (x0, y0, x1, y1), built as `StructuredGrid.elem_bbox`.
    xy = grid.node_coords()
    conn = grid.all_elem_nodes()
    lower_left = xy[conn[:, 0]]
    rects = np.column_stack([lower_left, lower_left[:, 0] + hx, lower_left[:, 1] + hy])

    # Crossing pairs: cells in an edge's bounding box that the edge meets.
    edges = [(loop[k], loop[(k + 1) % m]) for k in range(m)]
    hits = np.zeros((grid.n_elems, m), dtype=bool)
    for k, (a, b) in enumerate(edges):
        i0 = int(np.floor((min(a[0], b[0]) - grid.origin[0]) / hx - 1e-12))
        i1 = int(np.floor((max(a[0], b[0]) - grid.origin[0]) / hx + 1e-12))
        j0 = int(np.floor((min(a[1], b[1]) - grid.origin[1]) / hy - 1e-12))
        j1 = int(np.floor((max(a[1], b[1]) - grid.origin[1]) / hy + 1e-12))
        cols = np.arange(max(i0, 0), min(i1, grid.nx - 1) + 1)
        rows = np.arange(max(j0, 0), min(j1, grid.ny - 1) + 1)
        cells = (rows[:, None] * grid.nx + cols[None, :]).ravel()
        hits[cells, k] = _segment_windows(a, b, rects[cells])[2]
    crossed = hits.any(axis=1)

    # Uncrossed cells are classified by their centre.
    status = np.empty(grid.n_elems, dtype=np.int8)
    centres = 0.5 * (rects[~crossed, :2] + rects[~crossed, 2:])
    status[~crossed] = np.where(
        _inside(centres, loop), ElemStatus.COVERED, ElemStatus.FLUID
    )

    # Crossed cells are clipped by each edge's line into convex parts.
    lines = []
    for a, b in edges:
        nrm = np.array([-(b[1] - a[1]), b[0] - a[0]])
        nlen = np.hypot(*nrm)
        if nlen == 0.0:
            lines.append(None)
            continue
        nrm /= nlen
        lines.append((nrm, float(nrm @ a)))
    cut_cells = np.flatnonzero(crossed)
    cell_parts: list[list[np.ndarray]] = []
    for e in cut_cells:
        x0, y0, x1, y1 = rects[e]
        parts = [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])]
        for k in np.flatnonzero(hits[e]):
            if lines[k] is None:
                continue
            nrm, c = lines[k]
            nxt: list[np.ndarray] = []
            for poly in parts:
                lo, hi = _split_convex(poly, poly @ nrm - c, tol_line)
                if lo is not None:
                    nxt.append(lo)
                if hi is not None:
                    nxt.append(hi)
            parts = nxt
        cell_parts.append(parts)

    # A part is fluid when its vertex mean lies outside the polygon.
    means = np.array([p.mean(axis=0) for parts in cell_parts for p in parts])
    is_fluid = iter(~_inside(means.reshape(-1, 2), loop))
    pieces: dict[int, list[np.ndarray]] = {}
    for e, parts in zip(cut_cells.tolist(), cell_parts):
        fluid_parts = [p for p in parts if next(is_fluid)]
        a_f = sum(abs(signed_area(p)) for p in fluid_parts)
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
    grid_box = np.array(
        [[
            grid.origin[0],
            grid.origin[1],
            grid.origin[0] + grid.nx * hx,
            grid.origin[1] + grid.ny * hy,
        ]]
    )
    segments: list[InterfaceSegment] = []
    for k, (a, b) in enumerate(edges):
        if not wet_mask[k]:
            continue
        d = b - a
        length = float(np.hypot(*d))
        if length == 0.0:
            continue
        w0, w1, meets = _segment_windows(a, b, grid_box)
        if not meets[0]:
            continue
        window = (w0[0], w1[0])
        nrm = np.array([-d[1], d[0]]) / length  # unit, fluid -> covered side
        t = grid_line_params(grid, a, b)
        inner = t[(window[0] + 1e-14 < t) & (t < window[1] - 1e-14)]
        params = sorted({*window, *inner.tolist()})
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
    fluid_nodes = np.unique(conn[status == ElemStatus.FLUID])
    node_role[fluid_nodes] = NodeRole.STANDARD
    cut_nodes = np.unique(conn[status == ElemStatus.CUT])
    cut_nodes = cut_nodes[node_role[cut_nodes] != NodeRole.STANDARD]
    p = xy[cut_nodes]
    ghost = (_dist_to_segments(p, loop) > 1e-12 * diam) & _inside(p, loop)
    node_role[cut_nodes] = np.where(ghost, NodeRole.GHOST, NodeRole.STANDARD)

    return CutConfiguration(grid, status, pieces, segments, loop, node_role)
