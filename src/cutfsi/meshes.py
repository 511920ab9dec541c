"""Structured background grids, boundary-fitted quad meshes, and text I/O.

The background grid is an axis-aligned uniform rectangle mesh defined by an
origin, spacings and cell counts; it is never read from a file. Fitted meshes
(the solid, or an embedded fluid patch) use a small text format::

    dim 2
    N <x> <y>          # one line per node, id = order of appearance
    E <n0> <n1> <n2> <n3>  # bilinear quad, counterclockwise corners
    B <n0> <n1> <tag>  # boundary edge segment with a string tag

Blank lines and ``#`` comments are allowed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "StructuredGrid",
    "FittedMesh",
    "read_mesh_text",
    "write_mesh_text",
    "rectangle_fitted_mesh",
]


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform axis-aligned quad grid.

    Nodes are numbered row-major: ``node(i, j) = j * (nx + 1) + i`` with
    ``0 <= i <= nx`` and ``0 <= j <= ny``. Elements likewise:
    ``elem(i, j) = j * nx + i``. Element corners are counterclockwise
    starting at the lower-left node.
    """

    origin: tuple[float, float]
    spacing: tuple[float, float]
    counts: tuple[int, int]

    def __post_init__(self):
        nx, ny = self.counts
        if nx < 1 or ny < 1:
            raise ValueError("grid needs at least one cell per direction")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def nx(self) -> int:
        return self.counts[0]

    @property
    def ny(self) -> int:
        return self.counts[1]

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elems(self) -> int:
        return self.nx * self.ny

    def node_id(self, i: int, j: int) -> int:
        return j * (self.nx + 1) + i

    def elem_id(self, i: int, j: int) -> int:
        return j * self.nx + i

    def elem_ij(self, e: int) -> tuple[int, int]:
        return e % self.nx, e // self.nx

    def node_coords(self) -> np.ndarray:
        xs = self.origin[0] + self.spacing[0] * np.arange(self.nx + 1)
        ys = self.origin[1] + self.spacing[1] * np.arange(self.ny + 1)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def elem_nodes(self, e: int) -> np.ndarray:
        i, j = self.elem_ij(e)
        return np.array(
            [
                self.node_id(i, j),
                self.node_id(i + 1, j),
                self.node_id(i + 1, j + 1),
                self.node_id(i, j + 1),
            ]
        )

    def all_elem_nodes(self) -> np.ndarray:
        """(n_elems, 4) connectivity, counterclockwise from lower-left."""
        i = np.arange(self.nx)
        j = np.arange(self.ny)
        I, J = np.meshgrid(i, j, indexing="xy")
        ll = J * (self.nx + 1) + I
        return np.column_stack(
            [
                ll.ravel(),
                (ll + 1).ravel(),
                (ll + self.nx + 2).ravel(),
                (ll + self.nx + 1).ravel(),
            ]
        )

    def elem_bbox(self, e: int) -> tuple[float, float, float, float]:
        i, j = self.elem_ij(e)
        x0 = self.origin[0] + i * self.spacing[0]
        y0 = self.origin[1] + j * self.spacing[1]
        return x0, y0, x0 + self.spacing[0], y0 + self.spacing[1]

    def elem_diameter(self) -> float:
        return float(np.hypot(*self.spacing))

    def locate(self, p) -> int:
        """Element index containing point p; points on edges go to the
        lower-index cell, points outside raise."""
        x, y = float(p[0]), float(p[1])
        fx = (x - self.origin[0]) / self.spacing[0]
        fy = (y - self.origin[1]) / self.spacing[1]
        i = min(max(int(np.floor(fx)), 0), self.nx - 1)
        j = min(max(int(np.floor(fy)), 0), self.ny - 1)
        tol = 1e-12 * max(self.spacing)
        if fx < -tol or fx > self.nx + tol or fy < -tol or fy > self.ny + tol:
            raise ValueError(f"point {p} outside grid")
        return self.elem_id(i, j)

    def interior_faces(self) -> np.ndarray:
        """All interior faces as (n_faces, 4) rows (elem_left, elem_right,
        node_a, node_b).

        Vertical faces pair (i,j) with (i+1,j) and come first; horizontal
        faces pair (i,j) with (i,j+1). Each group runs over j, then i. Node
        pair is the shared edge, ordered so the left/lower element sees it
        counterclockwise.
        """
        i, j = (a.ravel() for a in np.meshgrid(np.arange(self.nx - 1), np.arange(self.ny)))
        vertical = np.column_stack([
            self.elem_id(i, j), self.elem_id(i + 1, j),
            self.node_id(i + 1, j), self.node_id(i + 1, j + 1),
        ])
        i, j = (a.ravel() for a in np.meshgrid(np.arange(self.nx), np.arange(self.ny - 1)))
        horizontal = np.column_stack([
            self.elem_id(i, j), self.elem_id(i, j + 1),
            self.node_id(i, j + 1), self.node_id(i + 1, j + 1),
        ])
        return np.concatenate([vertical, horizontal])

    def boundary_nodes(self, side: str) -> np.ndarray:
        """Node ids on one side: 'left', 'right', 'bottom', 'top'."""
        if side == "left":
            return np.array([self.node_id(0, j) for j in range(self.ny + 1)])
        if side == "right":
            return np.array([self.node_id(self.nx, j) for j in range(self.ny + 1)])
        if side == "bottom":
            return np.array([self.node_id(i, 0) for i in range(self.nx + 1)])
        if side == "top":
            return np.array([self.node_id(i, self.ny) for i in range(self.nx + 1)])
        raise ValueError(f"unknown side {side!r}")


@dataclass
class FittedMesh:
    """Boundary-fitted bilinear quad mesh with tagged boundary segments."""

    nodes: np.ndarray  # (n_nodes, 2)
    elems: np.ndarray  # (n_elems, 4) counterclockwise
    boundary: list[tuple[int, int, str]] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 2)
        self.elems = np.asarray(self.elems, dtype=int).reshape(-1, 4)
        if self.elems.size and (self.elems.min() < 0 or self.elems.max() >= len(self.nodes)):
            raise ValueError("element connectivity references missing node")
        for n0, n1, _tag in self.boundary:
            if not (0 <= n0 < len(self.nodes) and 0 <= n1 < len(self.nodes)):
                raise ValueError("boundary segment references missing node")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]

    def boundary_with_tag(self, tag: str) -> list[tuple[int, int]]:
        return [(a, b) for a, b, t in self.boundary if t == tag]

    def boundary_nodes_with_tag(self, tag: str) -> np.ndarray:
        ids = set()
        for a, b in self.boundary_with_tag(tag):
            ids.add(a)
            ids.add(b)
        return np.array(sorted(ids), dtype=int)

    def boundary_loop(self, tags: set[str] | None = None) -> list[int]:
        """Chain boundary segments (optionally restricted to tags) into a
        counterclockwise closed node loop. Raises if segments do not form a
        single closed loop."""
        segs = [(a, b) for a, b, t in self.boundary if tags is None or t in tags]
        if not segs:
            raise ValueError("no boundary segments to chain")
        succ: dict[int, list[int]] = {}
        for a, b in segs:
            succ.setdefault(a, []).append(b)
            succ.setdefault(b, []).append(a)
        for node, nbrs in succ.items():
            if len(nbrs) != 2:
                raise ValueError(f"boundary node {node} has {len(nbrs)} neighbours; not a single loop")
        start = segs[0][0]
        loop = [start]
        prev = None
        cur = start
        while True:
            nxt = [n for n in succ[cur] if n != prev]
            if not nxt:
                raise ValueError("boundary chain broke early")
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            loop.append(cur)
            if len(loop) > len(segs):
                raise ValueError("boundary segments do not close into one loop")
        if len(loop) != len(segs):
            raise ValueError("boundary segments form more than one loop")
        pts = self.nodes[loop]
        area2 = float(
            np.dot(pts[:, 0], np.roll(pts[:, 1], -1)) - np.dot(pts[:, 1], np.roll(pts[:, 0], -1))
        )
        if area2 < 0.0:
            loop.reverse()
        return loop

    def elem_coords(self, e: int) -> np.ndarray:
        return self.nodes[self.elems[e]]


def read_mesh_text(path) -> FittedMesh:
    """Parse the mesh text format; raises ValueError with line numbers."""
    nodes: list[list[float]] = []
    elems: list[list[int]] = []
    boundary: list[tuple[int, int, str]] = []
    dim_seen = False
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "dim":
                if len(parts) != 2 or int(parts[1]) != 2:
                    raise ValueError("only 'dim 2' is supported")
                dim_seen = True
            elif kind == "N":
                if len(parts) != 3:
                    raise ValueError("node line needs 'N x y'")
                nodes.append([float(parts[1]), float(parts[2])])
            elif kind == "E":
                if len(parts) != 5:
                    raise ValueError("element line needs 'E n0 n1 n2 n3'")
                elems.append([int(p) for p in parts[1:]])
            elif kind == "B":
                if len(parts) != 4:
                    raise ValueError("boundary line needs 'B n0 n1 tag'")
                boundary.append((int(parts[1]), int(parts[2]), parts[3]))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    if not dim_seen:
        raise ValueError(f"{path}: missing 'dim 2' header")
    if not nodes:
        raise ValueError(f"{path}: no nodes")
    mesh = FittedMesh(np.array(nodes), np.array(elems, dtype=int).reshape(-1, 4), boundary)
    for e in range(mesh.n_elems):
        quad = mesh.elem_coords(e)
        area2 = float(
            np.dot(quad[:, 0], np.roll(quad[:, 1], -1)) - np.dot(quad[:, 1], np.roll(quad[:, 0], -1))
        )
        if area2 <= 0.0:
            raise ValueError(f"{path}: element {e} is not counterclockwise")
    return mesh


def write_mesh_text(path, mesh: FittedMesh) -> None:
    lines = ["dim 2"]
    for x, y in mesh.nodes:
        lines.append(f"N {float(x)!r} {float(y)!r}")
    for quad in mesh.elems:
        lines.append("E " + " ".join(str(int(n)) for n in quad))
    for a, b, tag in mesh.boundary:
        lines.append(f"B {a} {b} {tag}")
    Path(path).write_text("\n".join(lines) + "\n")


def rectangle_fitted_mesh(
    x0: float,
    y0: float,
    width: float,
    height: float,
    nx: int,
    ny: int,
    tags: dict[str, str] | None = None,
) -> FittedMesh:
    """Fitted quad mesh of an axis-aligned rectangle.

    ``tags`` maps sides ('left', 'right', 'bottom', 'top') to boundary tags;
    sides default to 'wet'.
    """
    tags = tags or {}
    xs = x0 + width * np.arange(nx + 1) / nx
    ys = y0 + height * np.arange(ny + 1) / ny
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    elems = []
    for j in range(ny):
        for i in range(nx):
            elems.append([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)])
    boundary = []
    for i in range(nx):
        boundary.append((nid(i, 0), nid(i + 1, 0), tags.get("bottom", "wet")))
        boundary.append((nid(i + 1, ny), nid(i, ny), tags.get("top", "wet")))
    for j in range(ny):
        boundary.append((nid(nx, j), nid(nx, j + 1), tags.get("right", "wet")))
        boundary.append((nid(0, j + 1), nid(0, j), tags.get("left", "wet")))
    return FittedMesh(nodes, np.array(elems, dtype=int), boundary)
