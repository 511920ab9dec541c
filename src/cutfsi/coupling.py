"""Weak (Nitsche-type) enforcement of conditions on embedded interfaces.

Two assemblers are provided. ``assemble_fs_coupling`` ties the velocity of
the cut background fluid to the interface velocity of a boundary-fitted
solid: traction consistency, the adjoint term of the non-symmetric
(adjoint-inconsistent) variant, and viscous plus directional penalties,
integrated over the interface segments of a cut configuration.
``assemble_ff_coupling`` couples two overlapping fluid meshes along the
boundary of the embedded one: the interface flux, its adjoint term and the
penalty scalings are taken from the uncut embedded mesh alone (the
embedded-sided weighting), with jump penalties and interface transport terms.

Each call integrates over one interface rule: the two-point Gauss rule on
every interface segment (fluid-solid), or on every piece the embedded grid's
lines cut a segment into (fluid-fluid, and ``interface_jump_norms``), split
by the cut's own `split_at_grid_lines` and owned on the embedded grid by
`StructuredGrid.locate`, both in one array pass over all segments. The
rule is read off the segment arrays of the cut configuration and holds the
points (S, 2, 2), weights (S, 2) and normals (S, 2) of all S segments or
pieces, with the owner connectivity and basis tables N (S, 2, 4) and
grad N (S, 2, 4, 2) on each mesh. Every residual and derivative term is
an einsum over all points at once: each term is a point vector (or, for the
derivatives, its table over the trial dofs) tested with a basis table, and
each block is returned as the `LocalBlocks` of all segments or pieces.

Interface geometry (segment positions, normals, integration weights) is
treated as data: the derivative blocks returned by the assemblers are taken
at fixed geometry, so interface motion enters Newton updates in a
fixed-point fashion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutting import CutConfiguration, GeometryError, split_at_grid_lines
from .fluid import FluidParams, grid_basis
from .linalg import LocalBlocks
from .meshes import StructuredGrid

__all__ = [
    "NitscheParams",
    "assemble_fs_coupling",
    "assemble_ff_coupling",
    "interface_jump_norms",
]

# Two-point Gauss rule on the unit interval.
_G2_PTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_G2_WTS = np.array([0.5, 0.5])

_I2 = np.eye(2)


@dataclass(frozen=True)
class NitscheParams:
    """The Nitsche penalty constant ``gamma`` of both interface operators."""

    gamma: float = 35.0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("penalty constant gamma must be positive")


@dataclass(frozen=True)
class _Rule:
    """Two-point Gauss rule on S interface segments or pieces of them."""

    elem: np.ndarray  # (S,) owner element on the cut grid
    pts: np.ndarray  # (S, 2, 2)
    w: np.ndarray  # (S, 2)
    normal: np.ndarray  # (S, 2), from the fluid into the covered side


@dataclass(frozen=True)
class _Side:
    """Basis data of one mesh at the points of a rule."""

    conn: np.ndarray  # (S, 4) owner element nodes
    N: np.ndarray  # (S, 2, 4)
    g: np.ndarray  # (S, 2, 4, 2); g[..., b, i] = dN_b / dx_i

    @property
    def udofs(self) -> np.ndarray:
        return (2 * self.conn[..., None] + np.arange(2)).reshape(-1, 8)


def _interface_rule(cfg: CutConfiguration, pieces=None) -> _Rule:
    """Rule on every segment of ``cfg``, or on the pieces ``(seg, a0, a1)``:
    segment indices with start and end parameters along their segment. Read
    off the segment arrays; the cut owns each segment to an element with fluid."""
    segs = cfg.segments
    d = segs.p1 - segs.p0
    length = np.hypot(d[:, 0], d[:, 1])
    if pieces is None:
        seg = np.arange(len(segs))
        a0, a1 = np.zeros(seg.size), np.ones(seg.size)
    else:
        seg, a0, a1 = pieces
    apts = (a0[:, None] + _G2_PTS * (a1 - a0)[:, None])[..., None]
    return _Rule(
        elem=segs.elem[seg],
        pts=segs.p0[seg, None] + apts * d[seg, None],
        w=_G2_WTS * (a1 - a0)[:, None] * length[seg, None],
        normal=segs.normal[seg],
    )


def _grid_side(grid: StructuredGrid, elems, pts, clip: bool = False) -> _Side:
    """Basis tables of ``elems`` at ``pts`` (S, Q, 2), one per point set;
    ``clip`` clamps the local coordinates onto the element."""
    N, Dx, Dy, _ = grid_basis(grid, elems, pts, clip)
    return _Side(grid.all_elem_nodes()[elems], N, np.stack([Dx, Dy], axis=-1))


def _traction_tables(mu, side: _Side, nrm):
    """d(2 mu eps(u) n)_i / d u_{b,k} at every point, as (S, Q, i, b, k)."""
    gn = np.einsum("sqbl,sl->sqb", side.g, nrm)
    return mu * (
        np.einsum("ik,sqb->sqibk", _I2, gn) + np.einsum("sqbi,sk->sqibk", side.g, nrm)
    )


def _jump_tables(N, scale):
    """d j_l / d u_{b,k} = scale N_b delta_lk, as (S, Q, l, b, k)."""
    return scale * np.einsum("lk,sqb->sqlbk", _I2, N)


def _normal_part(nrm, v):
    """n . v over the first axis after the points: (S, Q, 2, ...) -> (S, Q, ...)."""
    return np.einsum("sl,sql...->sq...", nrm, v)


def _penalty(pen_v, pen_n, nrm, v):
    """pen_v v + pen_n (n . v) n for a jump or a jump table ``v``."""
    return pen_v * v + np.einsum("sq,si,sq...->sqi...", pen_n, nrm, _normal_part(nrm, v))


def _test(w, T, v):
    """Integral of T_a v over the rule: (S, Q, a) x (S, Q, ...) -> (S, a, ...)."""
    return np.einsum("sq,sqa,sq...->sa...", w, T, v)


def _test_adjoint(w, dtr, v):
    """Integral of the adjoint flux 2 mu eps(N_a e_i) n . v: (S, a, i, ...)."""
    return np.einsum("sq,sqlai,sql...->sai...", w, dtr, v)


def _pointwise(c, table):
    """Scale a (S, Q, ...) table by the point values ``c`` (S, Q)."""
    return c.reshape(c.shape + (1,) * (table.ndim - 2)) * table


def _scatter(sizes, dofs, residuals, blocks):
    """Sum per-segment vectors into global residuals, and hold the
    per-segment blocks as `LocalBlocks`; ``dofs[key]`` (S, m) numbers the
    local entries of ``key``."""
    res = {
        key: np.bincount(dofs[key].ravel(), weights=local.ravel(), minlength=sizes[key])
        for key, local in residuals.items()
    }
    if blocks is None:
        return res, None
    jac = {}
    for (r, c), local in blocks.items():
        shape = (dofs[r].shape[0], dofs[r].shape[1], dofs[c].shape[1])
        jac[r, c] = LocalBlocks((sizes[r], sizes[c]), dofs[r], dofs[c], local.reshape(shape))
    return res, jac


def assemble_fs_coupling(
    grid: StructuredGrid,
    cfg: CutConfiguration,
    params: FluidParams,
    nitsche: NitscheParams,
    U: np.ndarray,
    P: np.ndarray,
    C_frozen: np.ndarray,
    loop_nodes: np.ndarray,
    solid_velocity: np.ndarray,
    theta_iface: float,
    dt: float,
    sigma: float,
    tangent: bool = True,
):
    """Interface operator between the cut fluid and a fitted solid boundary.

    ``loop_nodes`` lists the solid mesh nodes whose (deformed) positions
    built the interface polygon of ``cfg``, in the same order; segment trace
    parameters refer to edges of that polygon. ``solid_velocity`` holds the
    solid interface velocity, flat with two entries per solid node; its
    derivative with respect to the solid displacement is
    ``1 / (theta_iface * dt)``, which scales every displacement column.
    ``sigma`` is the reactive scale of the flow time discretization and
    enters the directional penalty ``gamma * (rho sigma h + rho |c| + mu/h)``.

    Returns ``(residuals, jacobians)``: residuals keyed ``'u'``, ``'p'``,
    ``'d'`` in full-grid / solid numbering, derivative blocks keyed by
    (row, column) key pairs, or None when ``tangent`` is false.
    """
    n = grid.n_nodes
    nd = solid_velocity.size
    if nd % 2:
        raise ValueError("solid_velocity must have two entries per node")
    mu, rho = params.viscosity, params.density
    gamma = nitsche.gamma
    h = grid.elem_diameter()
    pen_v = gamma * mu / h
    vel_scale = 1.0 / (theta_iface * dt)

    rule = _interface_rule(cfg)
    w, nrm = rule.w, rule.normal
    fl = _grid_side(grid, rule.elem, rule.pts)
    k, t0, t1 = cfg.segments.loop_index, cfg.segments.t0, cfg.segments.t1
    loop_nodes = np.asarray(loop_nodes)
    edge = np.stack([loop_nodes[k], loop_nodes[(k + 1) % len(loop_nodes)]], axis=1)
    tpar = t0[:, None] + _G2_PTS * (t1 - t0)[:, None]
    phi = np.stack([1.0 - tpar, tpar], axis=-1)  # (S, Q, 2) solid edge basis

    ue = U.reshape(n, 2)[fl.conn]
    dtr = _traction_tables(mu, fl, nrm)
    tr = np.einsum("sqibk,sbk->sqi", dtr, ue)
    pf = np.einsum("sqa,sa->sq", fl.N, P[fl.conn])
    cmag = np.linalg.norm(fl.N @ C_frozen.reshape(n, 2)[fl.conn], axis=-1)
    pen_n = gamma * (rho * sigma * h + rho * cmag + mu / h)
    jmp = fl.N @ ue - phi @ solid_velocity.reshape(-1, 2)[edge]

    # Traction and pressure consistency plus the viscous and directional
    # penalties form one point force F, tested with the jump v - w; the
    # adjoint term carries fluid test functions only.
    F = -tr + pf[..., None] * nrm[:, None] + _penalty(pen_v, pen_n, nrm, jmp)
    residuals = {
        "u": _test(w, fl.N, F) + _test_adjoint(w, dtr, jmp),
        "p": -_test(w, fl.N, _normal_part(nrm, jmp)),
        "d": -_test(w, phi, F),
    }
    dofs = {
        "u": fl.udofs,
        "p": fl.conn,
        "d": (2 * edge[..., None] + np.arange(2)).reshape(-1, 4),
    }
    sizes = {"u": 2 * n, "p": n, "d": nd}
    if not tangent:
        return _scatter(sizes, dofs, residuals, None)

    dj_u = _jump_tables(fl.N, 1.0)
    dj_d = _jump_tables(phi, -vel_scale)
    dF_u = -dtr + _penalty(pen_v, pen_n, nrm, dj_u)
    dF_d = _penalty(pen_v, pen_n, nrm, dj_d)
    dF_p = np.einsum("si,sqb->sqib", nrm, fl.N)
    blocks = {
        ("u", "u"): _test(w, fl.N, dF_u) + _test_adjoint(w, dtr, dj_u),
        ("u", "p"): _test(w, fl.N, dF_p),
        ("u", "d"): _test(w, fl.N, dF_d) + _test_adjoint(w, dtr, dj_d),
        ("p", "u"): -_test(w, fl.N, _normal_part(nrm, dj_u)),
        ("p", "d"): -_test(w, fl.N, _normal_part(nrm, dj_d)),
        ("d", "u"): -_test(w, phi, dF_u),
        ("d", "p"): -_test(w, phi, dF_p),
        ("d", "d"): -_test(w, phi, dF_d),
    }
    return _scatter(sizes, dofs, residuals, blocks)


@lru_cache(maxsize=1)
def _two_mesh_rule(grid1: StructuredGrid, cfg1: CutConfiguration, grid2: StructuredGrid):
    """Rule on the pieces the embedded grid's lines cut the background
    segments into, with the basis tables of both meshes; a piece belongs to
    the embedded element just across its midpoint, on the embedded side.
    A pure function of its arguments, memoised for the Newton iterations of
    one overlap solve and its jump diagnostics; an overlap assembly reads
    one two-mesh interface."""
    s = cfg1.segments
    seg, a0, a1 = split_at_grid_lines(grid2, s.p0, s.p1, np.zeros(len(s)), np.ones(len(s)))
    mid = s.p0[seg] + (0.5 * (a0 + a1))[:, None] * (s.p1 - s.p0)[seg]
    try:
        e2 = grid2.locate(mid + 1e-6 * min(grid2.spacing) * s.normal[seg])
    except ValueError:
        raise GeometryError(
            "interface quadrature point lies outside the embedded mesh"
        ) from None
    rule = _interface_rule(cfg1, (seg, a0, a1))
    side1 = _grid_side(grid1, rule.elem, rule.pts)
    side2 = _grid_side(grid2, e2, rule.pts, clip=True)
    return rule, side1, side2


def assemble_ff_coupling(
    grid1: StructuredGrid,
    cfg1: CutConfiguration,
    grid2: StructuredGrid,
    params: FluidParams,
    nitsche: NitscheParams,
    U1: np.ndarray,
    U2: np.ndarray,
    P2: np.ndarray,
    C2_frozen: np.ndarray,
    sigma: float,
):
    """Interface operator between a cut background mesh and an embedded mesh.

    ``cfg1`` must be the cut configuration of ``grid1`` against the boundary
    of ``grid2``'s rectangle, so segment normals point from the background
    fluid into the embedded mesh and the jump is (background - embedded).
    The interface flux, the pressure in it, its adjoint term and the penalty
    scalings come from the uncut embedded mesh alone, so the background
    pressure does not enter; the transport and upwind terms use the plain
    mean of both velocities and are differentiated exactly. Penalty
    scalings are frozen at the embedded mesh's advection field
    ``C2_frozen``.

    Returns ``(residuals, jacobians)`` keyed ``'u1'``, ``'u2'``, ``'p2'``
    and by (row, column) pairs of ``'u1'``, ``'u2'``, ``'p2'``.
    """
    n1, n2 = grid1.n_nodes, grid2.n_nodes
    mu, rho = params.viscosity, params.density
    nu = params.kinematic_viscosity
    gamma = nitsche.gamma
    h2 = grid2.elem_diameter()
    # viscous penalty from the trace bound (f_k)^2 = 12 / h_k on the embedded mesh
    pen_v = gamma * 0.5 * (mu * 12.0 / h2)

    rule, s1, s2 = _two_mesh_rule(grid1, cfg1, grid2)
    w, nrm = rule.w, rule.normal
    ue1, ue2 = U1.reshape(n1, 2)[s1.conn], U2.reshape(n2, 2)[s2.conn]
    cmax2 = np.abs(C2_frozen.reshape(n2, 2)[s2.conn]).max(axis=(1, 2))
    phi2 = nu + cmax2 * h2 + sigma * h2 * h2
    pen_n = gamma * 0.5 * (rho * phi2 / h2)
    pen_n = np.repeat(pen_n[:, None], 2, axis=1)

    dtr2 = _traction_tables(mu, s2, nrm)
    flux = np.einsum("sqibk,sbk->sqi", dtr2, ue2)
    p2 = np.einsum("sqa,sa->sq", s2.N, P2[s2.conn])
    uf1, uf2 = s1.N @ ue1, s2.N @ ue2
    jmp = uf1 - uf2
    jn = _normal_part(nrm, jmp)
    m = rho * 0.5 * _normal_part(nrm, uf1 + uf2)
    up1, up2 = 0.5 * (m + np.abs(m)), 0.5 * (m - np.abs(m))
    cm = 0.5 * (1.0 + np.sign(m))

    # (1) flux and pressure consistency and (3, 4) the viscous and
    # directional jump penalties, tested with the jump; (5) interface
    # transport against the mean test function and (6) its upwind companion
    # against the jump; (2) the adjoint term tested with the embedded flux.
    F = -flux + p2[..., None] * nrm[:, None] + _penalty(pen_v, pen_n, nrm, jmp)
    residuals = {
        "u1": _test(w, s1.N, F + up1[..., None] * jmp),
        "u2": _test(w, s2.N, -F + up2[..., None] * jmp) + _test_adjoint(w, dtr2, jmp),
        "p2": -_test(w, s2.N, jn),
    }
    dofs = {"u1": s1.udofs, "u2": s2.udofs, "p2": s2.conn}
    sizes = {"u1": 2 * n1, "u2": 2 * n2, "p2": n2}

    # Jump derivative: +N1 on mesh-1 columns, -N2 on mesh-2 ones; the mean
    # normal flux m has derivative rho/2 N_b n_k on both; the flux depends
    # on the mesh-2 velocity only.
    blocks = {}
    for c, side, dflux, jsign in (("1", s1, 0.0, 1.0), ("2", s2, dtr2, -1.0)):
        dj = _jump_tables(side.N, jsign)
        dF = -dflux + _penalty(pen_v, pen_n, nrm, dj)
        jdm = 0.5 * rho * np.einsum("sqi,sqb,sk->sqibk", jmp, side.N, nrm)
        blocks["u1", "u" + c] = _test(w, s1.N, dF + _pointwise(up1, dj) + _pointwise(cm, jdm))
        blocks["u2", "u" + c] = _test(
            w, s2.N, -dF + _pointwise(up2, dj) + _pointwise(1.0 - cm, jdm)
        ) + _test_adjoint(w, dtr2, dj)
        if c == "2":
            dF_p = np.einsum("si,sqb->sqib", nrm, s2.N)
            blocks["u1", "p2"] = _test(w, s1.N, dF_p)
            blocks["u2", "p2"] = -_test(w, s2.N, dF_p)
        blocks["p2", "u" + c] = -_test(w, s2.N, _normal_part(nrm, dj))
    return _scatter(sizes, dofs, residuals, blocks)


def interface_jump_norms(
    grid1: StructuredGrid,
    cfg1: CutConfiguration,
    grid2: StructuredGrid,
    U1: np.ndarray,
    U2: np.ndarray,
):
    """Jump diagnostics along the two-mesh interface.

    Returns a dict with the interface length, the L2 norm of the velocity
    jump, and the signed mass defect (integral of the normal jump).
    """
    rule, s1, s2 = _two_mesh_rule(grid1, cfg1, grid2)
    j = s1.N @ U1.reshape(-1, 2)[s1.conn] - s2.N @ U2.reshape(-1, 2)[s2.conn]
    return {
        "length": float(np.sum(rule.w)),
        "jump_l2": np.sqrt(float(np.sum(rule.w * np.sum(j * j, axis=-1)))),
        "mass_defect": float(np.sum(rule.w * _normal_part(rule.normal, j))),
    }
