"""COO reference assembly of local blocks, kept beside the tests.

The program scatters every local block through a fixed pattern
(`cutfsi.linalg.AssemblyPlan`); these helpers build the same matrices the
plain way, with one scipy COO -> CSR conversion per matrix, as the
reference the plan is checked against and as the sparse view the tests of
single assemblers read.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _triplets(blocks, row_offset=0, col_offset=0):
    lead = np.broadcast_shapes(blocks.rows.shape[:-1], blocks.cols.shape[:-1])
    shape = lead + (blocks.rows.shape[-1], blocks.cols.shape[-1])
    rows = np.broadcast_to(blocks.rows[..., :, None], shape).ravel() + row_offset
    cols = np.broadcast_to(blocks.cols[..., None, :], shape).ravel() + col_offset
    return rows, cols, np.broadcast_to(blocks.vals, shape).ravel()


def coo(blocks) -> sp.csr_matrix:
    """The `LocalBlocks` as a CSR matrix of their shape."""
    rows, cols, vals = _triplets(blocks)
    return sp.coo_matrix((vals, (rows, cols)), shape=blocks.shape).tocsr()


def flow_blocks(result):
    """``assemble_navier_stokes``'s (Ru, Rp, jac) as (Ru, Rp, Juu, Jup,
    Jpu, Jpp) with CSR blocks."""
    Ru, Rp, jac = result
    sizes = {"u": Ru.size, "p": Rp.size}
    out = {
        key: sp.csr_matrix((sizes[key[0]], sizes[key[1]]))
        for key in (("u", "u"), ("u", "p"), ("p", "u"), ("p", "p"))
    }
    for r, c, blocks in jac:
        out[r, c] = (out[r, c] + coo(blocks)).tocsr()
    return (Ru, Rp, *out.values())


def flow_matrix(result) -> sp.csr_matrix:
    """The (velocity, pressure) Jacobian of ``assemble_navier_stokes``."""
    _, _, Juu, Jup, Jpu, Jpp = flow_blocks(result)
    return sp.bmat([[Juu, Jup], [Jpu, Jpp]], format="csr")


def raw_matrix(system) -> sp.csr_matrix:
    """Every term of a `BlockSystem`, summed by one COO conversion."""
    parts = [
        _triplets(blocks, system.offsets[r], system.offsets[c])
        for r, c, blocks in system.terms
    ]
    rows, cols, vals = (np.concatenate(k) for k in zip(*parts))
    return sp.coo_matrix((vals, (rows, cols)), shape=(system.n, system.n)).tocsr()


def solved_matrix(A: sp.csr_matrix, fixed: np.ndarray) -> sp.csr_matrix:
    """``A`` with the rows and columns of ``fixed`` unknowns replaced by
    unit diagonals."""
    free = sp.diags((~fixed).astype(float))
    return (free @ A @ free + sp.diags(fixed.astype(float))).tocsr()
