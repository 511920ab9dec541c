"""Intersection of a structured background grid with a closed interface polygon.

The interface (a counterclockwise polyline, e.g. the current boundary of a
deformed solid) divides every background cell into a covered part and a fluid
part. Cells are classified as fully fluid, fully covered, or cut; cut cells
carry an exact decomposition of their fluid part into convex polygons, and the
interface itself is partitioned into per-cell segments used for surface
integration; both are arrays, in the order the cut makes them, which every
reader takes as they are. Node and facet bookkeeping for ghost stabilization
and function space updates lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .meshes import StructuredGrid
from .quadrature import signed_area, vertex_means

__all__ = [
    "ElemStatus",
    "NodeRole",
    "GeometryError",
    "InterfaceSegments",
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


def _compact(pts, keep):
    """The `keep` (P, L) rows of each part of pts (P, L, 2), moved to the
    front and zero-padded to at least one column, and their counts."""
    cnt = np.count_nonzero(keep, axis=1)
    out = np.zeros((pts.shape[0], max(1, cnt.max(initial=0)), 2))
    out[np.arange(out.shape[1]) < cnt[:, None]] = pts[keep]
    return out, cnt


def _finalize(pts, cnt, tol, fresh):
    """Clean-up of the vertex lists a split emits, vectorised over parts:
    a vertex within tol of the last kept one is dropped, then trailing
    vertices within tol of the first; a part left with fewer than 3
    vertices, or a `fresh` (P,) one with an area of at most tol^2, is
    dropped. Returns the padded vertices, the counts and the kept mask."""
    P, L, _ = pts.shape
    keep = (np.arange(L) < cnt[:, None]) & (cnt >= 3)[:, None]
    off = pts[:, 1:] - pts[:, :-1]
    near = keep[:, 1:] & (np.hypot(off[..., 0], off[..., 1]) <= tol)
    off = pts[np.arange(P), np.maximum(cnt - 1, 0)] - pts[:, 0]
    closing = keep[:, 0] & (np.hypot(off[:, 0], off[:, 1]) <= tol)
    # with no near pair every vertex stays; the others take the scalar walk
    for p in np.flatnonzero(near.any(axis=1) | closing):
        kept = [0]
        for i in range(1, cnt[p]):
            if np.hypot(*(pts[p, i] - pts[p, kept[-1]])) > tol:
                kept.append(i)
        while len(kept) > 1 and np.hypot(*(pts[p, kept[-1]] - pts[p, 0])) <= tol:
            kept.pop()
        keep[p] = np.isin(np.arange(L), kept)
    pts, cnt = _compact(pts, keep)
    ok = cnt >= 3
    fresh = fresh & ok
    ok[fresh] = np.abs(signed_area(pts[fresh], cnt[fresh])) > tol * tol
    return pts, cnt, ok


def _clip_round(verts, cnt, nrm, c, tol):
    """Split every convex CCW part (P, V, 2) with cnt (P,) vertices by its
    line nrm . x = c (rows of (P, 2), (P,); a NaN normal leaves the part
    whole) as Sutherland-Hodgman clipping does: the vertices with d <= 0
    (d within tol counts as 0) and the crossing points form the lower part,
    those with d >= 0 and the same crossing points the upper one, unless
    all vertices lie on one side. Returns the parts, lower before upper and
    parent by parent, their counts and the parent index of each."""
    P, V, _ = verts.shape
    slot = np.arange(V)
    valid = slot < cnt[:, None]
    # contiguous parts take the product path of a single part; no line: d = 0
    d = np.nan_to_num((np.ascontiguousarray(verts) @ nrm[:, :, None])[..., 0] - c[:, None])
    sign = np.where(np.abs(d) <= tol, 0, np.sign(d)) * valid
    lower = np.all(sign <= 0, axis=1)
    upper = np.all(sign >= 0, axis=1) & ~lower
    # per vertex i, the vertex and the crossing point of edge i -> i + 1
    # where that edge straddles the line
    nxt = np.where(slot + 1 < cnt[:, None], slot + 1, 0)
    straddles = sign * np.take_along_axis(sign, nxt, 1) < 0
    di, dj = d[straddles], np.take_along_axis(d, nxt, 1)[straddles]
    p0, p1 = verts[straddles], np.take_along_axis(verts, nxt[..., None], 1)[straddles]
    q = np.zeros_like(verts)
    q[straddles] = p0 + (di / (di - dj))[:, None] * (p1 - p0)
    emitted = np.stack([verts, q], axis=2).reshape(P, 2 * V, 2)
    sides = np.stack([valid & (sign <= 0) & ~upper[:, None], valid & (sign >= 0) & ~lower[:, None]])
    mask = np.stack([sides, np.broadcast_to(straddles, sides.shape)], axis=-1).reshape(2 * P, 2 * V)
    split = np.tile(~lower & ~upper, 2)  # a part left whole passed `_finalize` when it was made
    pts, m, ok = _finalize(*_compact(np.concatenate([emitted, emitted]), mask), tol, split)
    order = np.arange(2 * P).reshape(2, P).T.ravel()
    keep = order[ok[order]]
    return pts[keep], m[keep], keep % P


def _segment_windows(a, b, rects):
    """Liang-Barsky: parameter windows [t0, t1] of the segments a->b (R, 2)
    inside the closed rectangles (x0, y0, x1, y1) of `rects` (R, 4), one
    segment per rectangle. Returns (t0, t1, meets); `meets` marks the
    windows longer than 1e-14."""
    d = b - a
    p = np.column_stack([-d[:, 0], d[:, 0], -d[:, 1], d[:, 1]])
    q = np.column_stack([a - rects[:, :2], rects[:, 2:] - a])[:, [0, 2, 1, 3]]
    r = q / np.where(p == 0.0, 1.0, p)
    # + 0.0 turns a -0.0 entry parameter into 0.0, the start of the window
    t0 = np.max(np.where(p < 0.0, r, 0.0), axis=1) + 0.0
    t1 = np.min(np.where(p > 0.0, r, 1.0), axis=1)
    parallel_outside = np.any((p == 0.0) & (q < 0.0), axis=1)
    return t0, t1, ~parallel_outside & (t1 - t0 > 1e-14)


@dataclass(frozen=True)
class InterfaceSegments:
    """The S straight interface pieces of a cut, each contained in a single
    background element, as arrays in edge and then parameter order.

    `loop_index` is the index of the originating polyline edge; `t0`, `t1`
    are parameters along that edge so traces of fields living on the
    interface can be interpolated between its endpoint values.
    """

    p0: np.ndarray  # (S, 2)
    p1: np.ndarray  # (S, 2)
    normal: np.ndarray  # (S, 2) unit, pointing from the fluid into the covered side
    elem: np.ndarray  # (S,) owner element, just on the fluid side
    loop_index: np.ndarray  # (S,)
    t0: np.ndarray  # (S,)
    t1: np.ndarray  # (S,)

    def __len__(self):
        return self.elem.size


class CutConfiguration:
    """Result of intersecting a grid with an interface polygon: a fixed
    geometry, on which the flow assembly and the coupling keep the rules they
    build in `volume_batches`, `batch_forces` and `two_mesh_rule`."""

    def __init__(self, grid, status, pieces, segments, loop, node_role):
        self.grid = grid
        self.status = status  # (n_elems,) ElemStatus values
        # the convex CCW fluid polygons of the cut elements: owners (P,),
        # non-decreasing, zero-padded vertices (P, V, 2) and counts (P,)
        self.piece_elem, self.piece_verts, self.piece_counts = pieces
        self.segments = segments  # InterfaceSegments
        self.loop = loop  # snapped closed CCW polygon or None
        self.node_role = node_role  # (n_nodes,) NodeRole values
        self.volume_batches = None  # the fluid volume rules, set by the flow assembly
        self.batch_forces = None  # (callable, time, values per batch), set there too
        self.two_mesh_rule = None  # (embedded grid, rule, sides), set by the coupling
        self.active_elems = np.flatnonzero(status != ElemStatus.COVERED)
        self.active_nodes = np.flatnonzero(node_role != NodeRole.INACTIVE)

    @cached_property
    def pieces(self):
        """Read-only view {cut elem: [fluid polygon, ...]} of the piece arrays."""
        pieces = {}
        for e, poly, n in zip(self.piece_elem.tolist(), self.piece_verts, self.piece_counts):
            pieces.setdefault(e, []).append(poly[:n])
        return MappingProxyType(pieces)

    def fluid_area(self) -> float:
        hx, hy = self.grid.spacing
        full = float(np.count_nonzero(self.status == ElemStatus.FLUID)) * hx * hy
        return full + sum(np.abs(signed_area(self.piece_verts, self.piece_counts)).tolist())

    def interface_length(self) -> float:
        d = self.segments.p1 - self.segments.p0
        return sum(np.hypot(d[:, 0], d[:, 1]).tolist())

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
        status = np.full(grid.n_elems, ElemStatus.FLUID, dtype=np.int8)
        node_role = np.full(grid.n_nodes, NodeRole.STANDARD, dtype=np.int8)
        index, points = np.zeros(0, dtype=np.intp), np.zeros((0, 2))
        pieces = (index, np.zeros((0, 3, 2)), index)
        segments = InterfaceSegments(*[points] * 3, index, index, points[:, 0], points[:, 0])
        return CutConfiguration(grid, status, pieces, segments, None, node_role)
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

    # Edge k runs from loop[k] to ends[k] along d[k]; its unit normal points
    # from the fluid into the covered side, NaN for a zero-length edge.
    ends = np.roll(loop, -1, axis=0)
    d = ends - loop
    length = np.hypot(d[:, 0], d[:, 1])
    nrm = np.column_stack([-d[:, 1], d[:, 0]]) / np.where(length == 0.0, np.nan, length)[:, None]

    # Crossing pairs: cells in an edge's bounding box that the edge meets,
    # all (edge, cell) candidates in one pass.
    h = np.array([hx, hy])
    lo = np.floor((np.minimum(loop, ends) - grid.origin) / h - 1e-12)
    hi = np.floor((np.maximum(loop, ends) - grid.origin) / h + 1e-12)
    lo = np.maximum(lo, 0).astype(np.intp)
    span = np.minimum(hi, [grid.nx - 1, grid.ny - 1]).astype(np.intp) - lo  # < 0: empty box
    offsets = np.meshgrid(*map(np.arange, span.max(axis=0) + 1), indexing="ij")
    box = np.stack(offsets, axis=-1).reshape(-1, 2)
    edge, k = np.nonzero(np.all(box <= span[:, None], axis=2))
    cells = (lo[edge, 1] + box[k, 1]) * grid.nx + lo[edge, 0] + box[k, 0]
    hits = np.zeros((grid.n_elems, m), dtype=bool)
    hits[cells, edge] = _segment_windows(loop[edge], ends[edge], rects[cells])[2]
    crossed = hits.any(axis=1)

    # Uncrossed cells are classified by their centre.
    status = np.empty(grid.n_elems, dtype=np.int8)
    centres = 0.5 * (rects[~crossed, :2] + rects[~crossed, 2:])
    status[~crossed] = np.where(_inside(centres, loop), ElemStatus.COVERED, ElemStatus.FLUID)

    # Crossed cells are clipped into convex parts by the lines of their
    # edges, one round per edge: round r splits every part of a cell by the
    # cell's r-th edge. Zero-length edges have no line.
    c = (nrm[:, None] @ loop[:, :, None])[:, 0, 0]
    cut_cells = np.flatnonzero(crossed)
    cell_hits = hits[cut_cells]
    row, k_hit = np.nonzero(cell_hits)
    order = np.full(cell_hits.shape, -1)  # order[i, r]: the r-th edge of cell i
    order[row, np.cumsum(cell_hits, axis=1)[cell_hits] - 1] = k_hit
    parts = rects[cut_cells][:, [0, 1, 2, 1, 2, 3, 0, 3]].reshape(-1, 4, 2)
    n_vert = np.full(cut_cells.size, 4)
    owner = np.arange(cut_cells.size)
    for r in range(cell_hits.sum(axis=1).max(initial=0)):
        k = order[owner, r]
        line = np.where(k[:, None] >= 0, nrm[k], np.nan)
        parts, n_vert, parent = _clip_round(parts, n_vert, line, c[k], tol_line)
        owner = owner[parent]

    # A part is fluid when its vertex mean lies outside the polygon; a cell
    # is classified by its fluid area.
    fluid = ~_inside(vertex_means(parts, n_vert), loop)
    area = np.abs(signed_area(parts[fluid], n_vert[fluid]))
    a_f = np.bincount(owner[fluid], weights=area, minlength=cut_cells.size)
    status[cut_cells] = np.select(
        [a_f <= AREA_TOL_REL * cell_area, a_f >= (1.0 - AREA_TOL_REL) * cell_area],
        [ElemStatus.COVERED, ElemStatus.FLUID],
        ElemStatus.CUT,
    )
    # The fluid parts of the cut cells, padded to the widest one.
    kept = fluid & (status[cut_cells[owner]] == ElemStatus.CUT)
    width = n_vert[kept].max(initial=3)
    pieces = (cut_cells[owner[kept]], parts[kept][:, :width], n_vert[kept])

    # Partition wet edges into per-element interface segments at the grid
    # lines; pieces outside the grid carry no coupling and are dropped. A
    # segment belongs to the element just on its fluid side.
    box = np.array([[*grid.origin, grid.origin[0] + grid.nx * hx, grid.origin[1] + grid.ny * hy]])
    w0, w1, meets = _segment_windows(loop, ends, np.repeat(box, m, axis=0))
    spans = [np.zeros((0, 3))]  # (edge, t0, t1) rows
    for k in np.flatnonzero(wet_mask & (length > 0.0) & meets):
        t = grid_line_params(grid, loop[k], ends[k])
        params = np.unique([w0[k], w1[k], *t[(w0[k] + 1e-14 < t) & (t < w1[k] - 1e-14)]])
        apart = np.diff(params) > 1e-14
        edge = np.full(np.count_nonzero(apart), k)
        spans.append(np.column_stack([edge, params[:-1][apart], params[1:][apart]]))
    k, t0, t1 = np.concatenate(spans).T
    k = k.astype(np.intp)
    p0, p1 = loop[k] + t0[:, None] * d[k], loop[k] + t1[:, None] * d[k]
    f = (0.5 * (p0 + p1) - 1e-6 * min(hx, hy) * nrm[k] - grid.origin) / h
    tol = 1e-12 * max(hx, hy)  # as `StructuredGrid.locate`
    outside = np.any((f < -tol) | (f > np.array([grid.nx, grid.ny]) + tol), axis=1)
    owner = np.clip(np.floor(f), 0, [grid.nx - 1, grid.ny - 1]).astype(np.intp) @ [1, grid.nx]
    bad = np.flatnonzero(outside | (status[owner] == ElemStatus.COVERED))
    if bad.size and outside[bad[0]]:
        raise GeometryError(f"wet interface edge {k[bad[0]]} has its fluid side outside the grid")
    if bad.size:
        raise GeometryError(f"wet interface edge {k[bad[0]]} lies in an element without fluid")
    segments = InterfaceSegments(p0, p1, nrm[k], owner, k, t0, t1)

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
