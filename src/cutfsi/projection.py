"""Carry fluid unknowns across a change of the active (cut) function space.

When the interface moves, background nodes enter or leave the active set.
Values at nodes active before and after the move are copied bitwise; values
at newly activated extension-zone (ghost) nodes are produced by minimizing
squared normal-derivative jumps across the interface-zone facets, with the
copied values acting as Dirichlet data. A node that enters the in-domain
(standard) set without having been active before means the interface moved
further than one element support in a single step; this violates the
step-size restriction the mover must obey and is reported as a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
import scipy.sparse as sp

from .cutting import CutConfiguration, NodeRole
from .fluid import facet_jump_grams
from .linalg import LocalBlocks, factor

__all__ = [
    "ProjectionError",
    "DofStatus",
    "DofCorrespondence",
    "SpaceProjector",
]

CFL_MESSAGE = "the CFL-like condition is not satisfied!"


class ProjectionError(RuntimeError):
    """Raised when values cannot be carried into the new function space."""

    def __init__(self, message, correspondence=None):
        super().__init__(message)
        self.correspondence = correspondence


class DofStatus(IntEnum):
    INACTIVE = 0
    COPIED = 1
    NEEDS_EXTENSION = 2
    VIOLATION = 3


@dataclass(frozen=True)
class DofCorrespondence:
    """Node-wise transfer plan between two active spaces on one grid; a
    copied node takes its own value, since both spaces share the grid."""

    status: np.ndarray

    @property
    def copied_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.status == DofStatus.COPIED)

    @property
    def extension_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.status == DofStatus.NEEDS_EXTENSION)

    @property
    def violation_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.status == DofStatus.VIOLATION)


def _build_correspondence(cfg_prev: CutConfiguration, cfg_curr: CutConfiguration):
    if cfg_prev.grid is not cfg_curr.grid:
        raise ValueError("both configurations must live on the same grid")
    n = cfg_curr.grid.n_nodes
    status = np.full(n, DofStatus.INACTIVE, dtype=np.int8)
    role = cfg_curr.node_role
    active = role != NodeRole.INACTIVE
    prev_active = cfg_prev.node_role != NodeRole.INACTIVE
    copied = active & prev_active
    fresh = active & ~prev_active
    status[copied] = DofStatus.COPIED
    status[fresh & (role == NodeRole.GHOST)] = DofStatus.NEEDS_EXTENSION
    # A node inside the new domain with no value to inherit.
    status[fresh & (role != NodeRole.GHOST)] = DofStatus.VIOLATION
    return DofCorrespondence(status=status)


def _extension_matrix(cfg: CutConfiguration, widened: bool) -> sp.csr_matrix:
    """Bilinear form of squared facet jumps of the normal derivative.

    Value jumps (derivative order zero) vanish identically for the
    continuous bilinear basis, so only the first-order term contributes;
    it is scaled by the cube of the facet length.
    """
    nodes, length, Mn, _ = facet_jump_grams(cfg.grid, cfg.ghost_facets(widened=widened))
    n = cfg.grid.n_nodes
    return LocalBlocks((n, n), nodes, nodes, length[:, None, None] ** 3 * Mn).tocsr()


class SpaceProjector:
    """Reusable projector between two cut configurations.

    Builds the transfer plan and factorizes the extension system once, so
    several vectors (velocity, pressure, acceleration) can be mapped with
    one geometric setup. Vectors are flat with one or two entries per node.
    """

    def __init__(
        self,
        cfg_prev: CutConfiguration,
        cfg_curr: CutConfiguration,
        widened: bool = False,
    ):
        self.correspondence = _build_correspondence(cfg_prev, cfg_curr)
        bad = self.correspondence.violation_nodes
        if bad.size:
            raise ProjectionError(CFL_MESSAGE, correspondence=self.correspondence)
        self.n_nodes = cfg_curr.grid.n_nodes
        self._solve = None
        free = self.correspondence.extension_nodes
        if free.size:
            A = _extension_matrix(cfg_curr, widened)
            reach = np.flatnonzero(np.diff(A.indptr))
            unreached = np.setdiff1d(free, reach)
            if unreached.size:
                raise ProjectionError(
                    f"extension cannot reach node(s) {unreached.tolist()}: no "
                    "interface-zone facet couples them to known values",
                    correspondence=self.correspondence,
                )
            fixed = self.correspondence.copied_nodes
            self._A_fc = A[np.ix_(free, fixed)]
            self._solve = factor(A[np.ix_(free, free)])

    def apply(self, vec: np.ndarray) -> np.ndarray:
        n = self.n_nodes
        vec = np.asarray(vec, dtype=float)
        if vec.size % n:
            raise ValueError("vector length is not a multiple of the node count")
        comps = vec.size // n
        nodal = vec.reshape(n, comps)
        out = np.zeros_like(nodal)
        copied = self.correspondence.copied_nodes
        out[copied] = nodal[copied]
        if self._solve is not None:
            free = self.correspondence.extension_nodes
            out[free] = self._solve(-self._A_fc @ out[copied])
        return out.reshape(vec.shape)
