"""Sparse assembly containers and direct linear solves.

Every sparse matrix is built as dense local blocks (`LocalBlocks`) and
summed into CSR through the fixed assembly plan of a block system, or by
`LocalBlocks.tocsr` outside one. Also guarded LU solves and matrix-market
export for offline inspection. Every LU keeps SuperLU's diagonal pivots
in a minimum-degree ordering of A^T + A, which the matrices of one
assembly plan share (see `factor_solve`). Every solve is residual-guarded,
iterative refinement on a nearby matrix's LU (`LU.refine`) included.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "LocalBlocks",
    "BlockSystem",
    "AssemblyPlan",
    "factor",
    "factor_solve",
    "export_matrix_market",
    "LinearSolveError",
]


class LinearSolveError(RuntimeError):
    """Raised when a direct solve fails or its residual is untrustworthy."""


# relative backward-residual bound above which a direct solve is refused
_TRUST_REL = 1e-10
# `LU.refine` stops after this many solves, or on a correction this small relative to x
_REFINE_SOLVES = 6
_REFINE_SETTLED = 1e-13
# SuperLU settings of every factorisation; see `factor_solve`
_SPLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "relax": 2, "panel_size": 8,
}
try:  # glibc's malloc_trim, called before each plan's ordering is built
    _trim_heap = ctypes.CDLL(None).malloc_trim
    _trim_heap.argtypes, _trim_heap.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # another C library: no-op
    _trim_heap = lambda pad: 0  # noqa: E731


@dataclass(frozen=True)
class LocalBlocks:
    """A sparse ``shape`` matrix held as dense local blocks: the sum of the
    blocks ``vals`` (..., r, c) at the rows ``rows`` (..., r) and columns
    ``cols`` (..., c); leading axes batch the blocks and broadcast against
    each other."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = (self.vals @ x[self.cols][..., None])[..., 0]
        rows = np.broadcast_to(self.rows, y.shape)
        return np.bincount(rows.ravel(), weights=y.ravel(), minlength=self.shape[0])

    @property
    def entry_shape(self) -> tuple[int, ...]:
        """Shape (..., r, c) of the local entries, leading axes broadcast."""
        lead = np.broadcast_shapes(self.rows.shape[:-1], self.cols.shape[:-1])
        return lead + (self.rows.shape[-1], self.cols.shape[-1])

    def tocsr(self) -> sp.csr_matrix:
        """The blocks summed into one CSR matrix of ``shape``."""
        shape = self.entry_shape
        rows = np.broadcast_to(self.rows[..., :, None], shape).ravel()
        cols = np.broadcast_to(self.cols[..., None, :], shape).ravel()
        vals = np.broadcast_to(self.vals, shape).ravel()
        return sp.coo_matrix((vals, (rows, cols)), shape=self.shape).tocsr()


class BlockSystem:
    """Square block matrix with named blocks and a matching residual vector.

    The matrix is the sum of the local blocks added to it (`add`), scattered
    into the fixed pattern of `plan` by `assemble`."""

    def __init__(self, sizes: dict[str, int]):
        self.names = list(sizes)
        self.sizes = dict(sizes)
        self.offsets: dict[str, int] = {}
        off = 0
        for name in self.names:
            self.offsets[name] = off
            off += self.sizes[name]
        self.n = off
        self.terms: list[tuple[str, str, LocalBlocks]] = []
        self.residual = np.zeros(self.n)
        self.plan: AssemblyPlan | None = None

    def add(self, row: str, col: str, blocks: LocalBlocks):
        if blocks.shape != (self.sizes[row], self.sizes[col]):
            raise ValueError(
                f"block ({row},{col}) has shape {blocks.shape}, "
                f"expected {(self.sizes[row], self.sizes[col])}"
            )
        self.terms.append((row, col, blocks))

    def set_residual(self, name: str, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.sizes[name],):
            raise ValueError(f"residual block {name} has wrong length")
        o = self.offsets[name]
        self.residual[o : o + self.sizes[name]] = vec

    def assemble(self) -> sp.csr_matrix:
        """The unconstrained matrix: one `np.bincount` of every local entry
        into the data of the plan's pattern."""
        plan = self.plan
        vals = np.concatenate([
            b.vals.ravel() if b.vals.shape == shape else np.broadcast_to(b.vals, shape).ravel()
            for (_, _, b), shape in zip(self.terms, plan.term_shapes)
        ])
        data = np.bincount(plan.slots, weights=vals, minlength=plan.nnz)
        return _csr(data, plan.indices, plan.indptr, self.n)

    def split(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for name in self.names:
            o = self.offsets[name]
            out[name] = vec[o : o + self.sizes[name]]
        return out


def _csr(data, indices, indptr, n):
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=False)
    A.has_sorted_indices = True
    return A


def _pattern(entries: np.ndarray, n: int):
    """CSR indptr and indices (int32) of the sorted flat entries row * n + col."""
    rows, cols = np.divmod(entries, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr.astype(np.int32), cols.astype(np.int32)


class AssemblyPlan:
    """The fixed sparsity of a `BlockSystem` and the place of every local
    entry in it, built once per structure.

    The structure is the row and column maps of the system's terms and the
    mask of fixed unknowns; the element status, node roles, ghost-facet
    width and interface pieces enter only through them, and the plan is a
    pure function of them. It holds the CSR pattern (`indptr`, `indices`)
    of the unconstrained matrix, which stores every diagonal, the data slot
    (`slots`, int32) of every local entry in term order, and the selector
    `keep` of the solved pattern: the free entries, and the diagonal of
    each fixed unknown as its only entry in its row and column (`keep` is
    -1 there). The fill-reducing ordering of the solved pattern is built
    at the first factorisation (`ordering`) and kept.
    """

    def __init__(self, system: BlockSystem, fixed: np.ndarray):
        n = self.n = system.n
        self.maps = [(r, c, b.rows, b.cols) for r, c, b in system.terms]
        self.fixed = np.array(fixed, dtype=bool)
        self.term_shapes = [b.entry_shape for _, _, b in system.terms]
        # flat entries row * n + col of every local entry, then every diagonal
        size = sum(int(np.prod(shape)) for shape in self.term_shapes)
        key = np.empty(size + n, dtype=np.int32 if n * n < 2**31 else np.int64)
        pos = 0
        for (r, c, b), shape in zip(system.terms, self.term_shapes):
            out = key[pos : pos + int(np.prod(shape))]
            rows = (b.rows[..., :, None] + system.offsets[r]) * n
            cols = b.cols[..., None, :] + system.offsets[c]
            np.add(rows, cols, out=out.reshape(shape), casting="unsafe")
            pos += out.size
        key[pos:] = np.arange(n) * (n + 1)
        order = np.argsort(key)
        key.sort()
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        entries = key[new]
        np.cumsum(new, dtype=key.dtype, out=key)
        key -= 1  # the slot of each sorted entry
        slots = np.empty(key.size, dtype=np.int32)
        slots[order] = key
        del order, key
        self.slots = slots[:size]
        self.nnz = entries.size
        self.indptr, self.indices = _pattern(entries, n)
        row, col = np.divmod(entries, n)
        free = ~(self.fixed[row] | self.fixed[col])
        solved = free | (row == col)
        self.keep = np.where(free, np.arange(self.nnz, dtype=np.int32), -1)[solved]
        self.units = np.flatnonzero(~free[solved])
        self.solved_indptr, self.solved_indices = _pattern(entries[solved], n)

    def fits(self, system: BlockSystem, fixed: np.ndarray) -> bool:
        """Whether `system` and `fixed` have the structure of this plan."""
        return (
            len(self.maps) == len(system.terms)
            and np.array_equal(fixed, self.fixed)
            and all(
                (r, c) == (r0, c0) and np.array_equal(b.rows, rows) and np.array_equal(b.cols, cols)
                for (r, c, b), (r0, c0, rows, cols) in zip(system.terms, self.maps)
            )
        )

    def constrain(self, A: sp.csr_matrix) -> sp.csr_matrix:
        """The solved matrix of the unconstrained `A` of this plan."""
        data = A.data[self.keep]
        data[self.units] = 1.0
        return _csr(data, self.solved_indices, self.solved_indptr, self.n)

    @functools.cached_property
    def ordering(self):
        """``(perm, take, indptr, indices)``, built at the first read: a
        solved matrix A of this plan, ordered as ``A[perm][:, perm]``, is the
        CSC matrix ``(A.data[take], indices, indptr)``. `perm` is SuperLU's
        postordered minimum degree on A^T + A for the pattern alone, read off
        an incomplete LU that drops every entry of the pattern matrix with 1
        off the diagonal and n on it (no pivot can vanish). Built at the
        plan's first LU, after glibc's `malloc_trim` returns the C heap's free
        pages: the LUs of earlier plans, kept through Newton assemblies, leave
        holes that this plan's LUs do not fit, and peak RSS would grow."""
        _trim_heap(0)
        n, indptr, indices = self.n, self.solved_indptr, self.solved_indices
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        # the ordering reads only A^T + A, so the CSR arrays serve as CSC
        S = sp.csc_matrix((np.where(rows == indices, n, 1.0), indices, indptr), (n, n))
        inverse = spla.spilu(S, drop_tol=np.inf, fill_factor=1, **_SPLU_OPTIONS).perm_c
        del S, rows
        perm = np.argsort(inverse)
        # the data slots of A, moved as the entries of A[perm][:, perm]
        slots = np.arange(indices.size, dtype=np.int32)
        P = sp.csr_matrix((slots, inverse[indices], indptr), (n, n))[perm].tocsc()
        return perm, P.data, P.indptr, P.indices


class LU:
    """SuperLU factors of a square matrix, the rows and columns taken in the
    symmetric permutation `perm`. It holds only what a solve needs, not the
    matrix itself."""

    def __init__(self, A, plan: AssemblyPlan | None = None):
        self.perm = slice(None)
        try:  # splu raises ValueError itself for a non-square A
            if plan is None:
                self.lu = spla.splu(sp.csc_matrix(A), **_SPLU_OPTIONS)
            else:
                self.perm, take, indptr, indices = plan.ordering
                B = sp.csc_matrix((A.data.take(take), indices, indptr), A.shape)
                self.lu = spla.splu(B, **{**_SPLU_OPTIONS, "permc_spec": "NATURAL"})
        except RuntimeError as err:
            raise LinearSolveError(f"sparse LU failed: {err}") from None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The unguarded solution of the factorised system."""
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x

    def refine(self, A, b: np.ndarray) -> np.ndarray | None:
        """``A x = b`` for a matrix `A` near the factorised one, by iterative
        refinement: one solve, then corrections ``dx = solve(b - A x)`` until
        one is at most ``_REFINE_SETTLED * |x|`` (a direct solve's round-off)
        and x passes the residual guard of `factor`; None if x fails it or is
        not finite, if a correction shrinks < 10x, or after `_REFINE_SOLVES` solves."""
        norm_A = spla.norm(A)
        x, last = self.solve(b), np.inf
        for _ in range(_REFINE_SOLVES - 1):
            if not np.all(np.isfinite(x)):
                return None
            res = b - A @ x
            dx = self.solve(res)
            size = np.linalg.norm(dx)
            if size <= _REFINE_SETTLED * np.linalg.norm(x):
                return x if _untrusted(norm_A, x, b, res) is None else None
            if not size < last / 10:
                return None
            last = size
            x = x + dx
        return None


def _untrusted(norm_A, x, b, res):
    """``(residual, bound)`` of the first column of `x` whose backward
    residual ``res = b - A x`` exceeds ``_TRUST_REL * (|A| |x| + |b|)``
    (Frobenius/l2 norms), or None when every column is trusted."""
    res = np.linalg.norm(res, axis=0)
    bound = _TRUST_REL * (norm_A * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0))
    for r, c in zip(np.ravel(res), np.ravel(bound)):
        if r > max(c, 1e-300):
            return r, c
    return None


def _guarded_solve(A, norm_A, lu: LU, b):
    b = np.asarray(b, dtype=float)
    if b.shape[:1] != A.shape[:1]:
        raise ValueError(f"b has shape {b.shape}, A has {A.shape[0]} rows")
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("sparse LU produced non-finite values")
    failed = _untrusted(norm_A, x, b, b - A @ x)
    if failed is not None:
        raise LinearSolveError(
            f"direct solve residual {failed[0]:.3e} exceeds trust bound {failed[1]:.3e}"
        )
    return x


def factor(A):
    """Guarded sparse LU of the square `A`, returned as ``solve(b)`` for b
    of shape (n,) or (n, k). `solve` raises LinearSolveError instead of
    returning a non-finite solution or one whose backward residual exceeds
    ``_TRUST_REL * (|A| |x| + |b|)`` (Frobenius/l2 norms) in any column."""
    return functools.partial(_guarded_solve, A, spla.norm(A), LU(A))


def factor_solve(A, b, plan: AssemblyPlan | None = None):
    """Solve ``A x = b`` with one LU and the residual guard of `factor`, as
    every Newton iteration that factorises does, passing the `plan` of its
    solved matrix; returns ``(x, lu)``. `lu` holds SuperLU's factors and the
    permutation, not A; the Newton attempt refines its later increments on
    it until a refinement gives up (see `driver._newton`).

    The LU is SuperLU with ``diag_pivot_thresh=0``, which keeps each
    non-zero diagonal pivot (the PSPG pressure block has a non-zero diagonal
    and the Nitsche blocks are structurally near-symmetric), in a
    minimum-degree ordering of A^T + A: on the 60x26 flap system (4,983
    dofs) the factors hold 0.54 M entries instead of COLAMD's 1.15 M, and at
    a threshold of 0.1 the two-mesh fill grows from 0.24 M to 1.5 M.
    Supernodes are relaxed over at most 2 columns and panels are 8 columns
    wide (SuperLU's 10 and 20 factorise the same fill more slowly). The
    ordering reads only the pattern, which a plan fixes, so each plan
    computes it once and its factorisations run SuperLU's symmetric mode in
    that order; as it depends on the pattern alone, a resumed run solves
    bitwise as the uninterrupted one. The residual guard is the trust
    check."""
    lu = LU(A, plan)
    return _guarded_solve(A, spla.norm(A), lu, b), lu


def export_matrix_market(path, A, comment: str = ""):
    """Write a sparse matrix in MatrixMarket coordinate format."""
    import scipy.io as sio

    sio.mmwrite(str(path), sp.coo_matrix(A), comment=comment)
