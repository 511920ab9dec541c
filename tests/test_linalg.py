from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutfsi.linalg import (
    AssemblyPlan,
    BlockSystem,
    LinearSolveError,
    LocalBlocks,
    export_matrix_market,
    factor,
    factor_solve,
)
from coo_reference import coo, raw_matrix, solved_matrix


def test_triplets_sum_duplicates():
    # triplets are 1x1 local blocks; the last two are the block row [2] x [0, 1]
    rows, cols = [0, 0, 1, 2, 2], [0, 0, 2, 0, 1]
    vals = [1.0, 2.0, 5.0, 3.0, 4.0]
    A = LocalBlocks((3, 3), np.array(rows)[:, None], np.array(cols)[:, None],
                    np.array(vals)[:, None, None]).tocsr()
    assert A[0, 0] == 3.0
    assert A[1, 2] == 5.0
    assert A[2, 0] == 3.0 and A[2, 1] == 4.0


def _dense_block(shape, rows, cols, vals):
    return LocalBlocks(shape, np.array([rows]), np.array([cols]), np.array([vals], dtype=float))


def test_block_system_assembly_and_split():
    sys = BlockSystem({"u": 2, "p": 1})
    sys.add("u", "u", _dense_block((2, 2), [0, 1], [0, 1], np.eye(2)))
    sys.add("u", "p", _dense_block((2, 1), [0, 1], [0], [[1.0], [0.0]]))
    sys.add("p", "u", _dense_block((1, 2), [0], [0, 1], [[0.0, 2.0]]))
    sys.add("p", "p", _dense_block((1, 1), [0], [0], [[4.0]]))
    sys.plan = AssemblyPlan(sys, np.zeros(3, dtype=bool))
    A = sys.assemble().toarray()
    assert np.allclose(A, [[1, 0, 1], [0, 1, 0], [0, 2, 4]])
    sys.set_residual("u", [1.0, 2.0])
    sys.set_residual("p", [3.0])
    parts = sys.split(sys.residual)
    assert np.allclose(parts["u"], [1, 2]) and np.allclose(parts["p"], [3])


def test_block_shape_validation():
    sys = BlockSystem({"u": 2, "p": 1})
    with pytest.raises(ValueError):
        sys.add("u", "p", _dense_block((2, 2), [0, 1], [0, 1], np.eye(2)))


def _random_system(rng, fixed_share=0.3):
    """Three blocks of sizes 7, 3 and 5 with batches of overlapping local
    blocks, broadcast rows included, and a random fixed set."""
    sizes = {"a": 7, "b": 3, "c": 5}
    sys = BlockSystem(sizes)
    for r, c in (("a", "a"), ("a", "b"), ("b", "a"), ("c", "c"), ("a", "c"), ("c", "a")):
        for batch in (4, 2):
            rows = rng.integers(0, sizes[r], (batch, 3))
            cols = rng.integers(0, sizes[c], (batch, 2))
            sys.add(r, c, LocalBlocks(
                (sizes[r], sizes[c]), rows, cols, rng.standard_normal((batch, 3, 2))
            ))
    comp = rng.integers(0, 7, (3, 1, 2))  # (3, 1) leading axes against (3, 2)
    sys.add("a", "a", LocalBlocks((7, 7), comp, rng.integers(0, 7, (3, 2, 2)), rng.standard_normal((3, 1, 2, 2))))
    return sys, rng.random(sys.n) < fixed_share


@pytest.mark.parametrize("seed", range(5))
def test_plan_matches_coo_reference(seed):
    rng = np.random.default_rng(seed)
    sys, fixed = _random_system(rng)
    plan = sys.plan = AssemblyPlan(sys, fixed)
    raw = sys.assemble()
    want = raw_matrix(sys)
    assert raw.has_canonical_format
    assert np.abs((raw - want).toarray()).max() <= 1e-14 * np.abs(want.data).max()
    # the pattern is the reference's plus a stored zero on each missing diagonal
    entries = set(zip(*raw.tocoo().coords))
    assert entries == set(zip(*want.tocoo().coords)) | {(i, i) for i in range(sys.n)}
    solved = plan.constrain(raw)
    assert np.abs((solved - solved_matrix(want, fixed)).toarray()).max() <= 1e-14 * np.abs(want.data).max()
    # fixed rows and columns store their unit diagonal and nothing else
    coo_solved = solved.tocoo()
    touches = fixed[coo_solved.row] | fixed[coo_solved.col]
    assert np.array_equal(coo_solved.row[touches], coo_solved.col[touches])
    assert np.all(coo_solved.data[touches] == 1.0)
    assert solved.nnz == np.count_nonzero(~touches) + fixed.sum()
    assert plan.fits(sys, fixed) and not plan.fits(sys, ~fixed)
    assert plan.slots.dtype == np.int32 and plan.indices.dtype == np.int32


@pytest.mark.parametrize("seed", range(3))
def test_local_blocks_tocsr_is_the_coo_reference(seed):
    # duplicate entries sum and broadcast rows (the last "a", "a" term)
    # expand exactly as in the reference conversion
    sys, _ = _random_system(np.random.default_rng(seed))
    for _, _, blocks in sys.terms:
        got, want = blocks.tocsr(), coo(blocks)
        assert got.shape == blocks.shape and got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


def test_local_blocks_tocsr_sums_duplicates_and_empty_blocks():
    blocks = LocalBlocks((3, 3), np.array([[0, 0], [2, 0]]), np.array([[0, 2], [0, 1]]),
                         np.array([[[1.0, 5.0], [2.0, 0.0]], [[3.0, 4.0], [6.0, 7.0]]]))
    assert np.array_equal(blocks.tocsr().toarray(), [[9.0, 7.0, 5.0], [0, 0, 0], [3.0, 4.0, 0]])
    # no ghost facets: zero blocks give the all-zero matrix of their shape
    empty = LocalBlocks((4, 4), np.zeros((0, 8), int), np.zeros((0, 8), int), np.zeros((0, 8, 8)))
    A = empty.tocsr()
    assert A.shape == (4, 4) and A.nnz == 0 and not A.toarray().any()


def test_local_blocks_matvec_matches_coo():
    rng = np.random.default_rng(3)
    sys, _ = _random_system(rng)
    for r, c, blocks in sys.terms:
        x = rng.standard_normal(sys.sizes[c])
        assert np.allclose(blocks.matvec(x), coo(blocks) @ x, rtol=0.0, atol=1e-14)


def test_factor_solve_matches_dense():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x, _ = factor_solve(sp.csr_matrix(A), b)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-12)


def test_factor_solve_rejects_singular():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(LinearSolveError):
        factor_solve(A, np.array([1.0, 0.0]))
    # refused at factorisation, before any right-hand side
    with pytest.raises(LinearSolveError):
        factor(A)


def _solved_or_refused(A, b):
    """`factor_solve`'s answer if it returns one, which must then satisfy the
    residual guard; None when it refuses with LinearSolveError."""
    try:
        x, _ = factor_solve(A, b)
    except LinearSolveError:
        return None
    bound = 1e-10 * (spla.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
    assert np.linalg.norm(A @ x - b) <= bound
    return x


def test_zero_diagonal_permutation_is_solved_exactly():
    # every diagonal entry is zero, so no pivot can stay on the diagonal
    n = 7
    A = sp.csr_matrix((np.arange(1.0, n + 1), (np.arange(n), np.roll(np.arange(n), 2))))
    b = np.linspace(-1.0, 2.0, n)
    x = _solved_or_refused(A, b)
    assert x is not None
    assert np.array_equal(A @ x, b)


def test_tiny_pivot_never_returns_a_wrong_solution():
    # both diagonal entries are 1e-20, so no symmetric ordering avoids a tiny
    # pivot; kept statically it gives x = (0, 1) with an O(1) residual,
    # while the exact solution is close to (2, 1)
    A = sp.csr_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
    b = np.array([1.0, 2.0])
    x = _solved_or_refused(A, b)
    if x is not None:
        assert np.allclose(x, [2.0, 1.0], rtol=1e-12)


def test_saddle_point_with_zero_pressure_block():
    rng = np.random.default_rng(1)
    nu, npr = 12, 5
    L = rng.standard_normal((nu, nu))
    K = L @ L.T + nu * np.eye(nu)
    B = rng.standard_normal((npr, nu))
    A = np.block([[K, B.T], [B, np.zeros((npr, npr))]])
    b = rng.standard_normal(nu + npr)
    # pressure unknowns first, so the leading pivots sit on zero diagonals
    perm = np.r_[nu:nu + npr, :nu]
    A, b = A[np.ix_(perm, perm)], b[perm]
    # the shape of the Newton systems: it must be solved, not refused
    x = _solved_or_refused(sp.csr_matrix(A), b)
    assert x is not None
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-9, atol=1e-12)


def test_factor_uses_symmetric_mode(monkeypatch):
    import cutfsi.linalg as linalg

    seen = []
    splu = linalg.spla.splu

    def recording(A, **kwargs):
        seen.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recording)
    factor_solve(sp.identity(3, format="csr"), np.ones(3))
    # a solved matrix of a plan is factorised in the plan's ordering
    sys = BlockSystem({"a": 3})
    sys.add("a", "a", _dense_block((3, 3), [0, 1, 2], [0, 1, 2], np.eye(3)))
    plan = sys.plan = AssemblyPlan(sys, np.zeros(3, dtype=bool))
    factor_solve(plan.constrain(sys.assemble()), np.ones(3), plan=plan)
    assert [(kw["permc_spec"], kw["diag_pivot_thresh"]) for kw in seen] == [
        ("MMD_AT_PLUS_A", 0.0), ("NATURAL", 0.0)
    ]


def _planned_system(seed):
    """A random plan (its pattern is not symmetric) and a solved matrix of
    it with random values and a dominant diagonal."""
    rng = np.random.default_rng(seed)
    sys, fixed = _random_system(rng)
    plan = sys.plan = AssemblyPlan(sys, fixed)
    A = plan.constrain(sys.assemble())
    rows = np.repeat(np.arange(sys.n), np.diff(A.indptr))
    A.data[:] = rng.standard_normal(A.nnz) + np.where(rows == A.indices, sys.n, 0.0)
    return plan, A, rng


@pytest.mark.parametrize("seed", range(5))
def test_planned_factor_matches_dense(seed):
    plan, A, rng = _planned_system(seed)
    B = rng.standard_normal((plan.n, 3))
    X = factor_solve(A, B, plan=plan)[0]
    assert np.allclose(X, np.linalg.solve(A.toarray(), B), rtol=1e-12, atol=1e-12)
    assert np.allclose(factor_solve(A, B[:, 0], plan=plan)[0], X[:, 0], rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        factor_solve(A, np.ones(plan.n + 1), plan=plan)
    # one ordering per plan, built at its first factorisation
    assert plan.ordering is plan.ordering


def test_refinement_on_a_nearby_lu_solves_within_the_guard():
    plan, A, rng = _planned_system(0)
    b = rng.standard_normal(plan.n)
    direct = factor_solve(A, b, plan=plan)[0]
    dense = np.linalg.solve(A.toarray(), b)

    def trusted(x):
        return np.linalg.norm(A @ x - b) <= 1e-10 * (spla.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))

    for perturbation in (1e-6, 1e-4):
        near = A.copy()
        near.data = near.data + perturbation * rng.standard_normal(A.nnz)
        _, lu = factor_solve(near, b, plan=plan)
        # one solve on the nearby factors alone fails the guard against A
        assert not trusted(lu.solve(b))
        x = lu.refine(A, b)
        assert trusted(x)
        assert np.allclose(x, dense, rtol=1e-9, atol=1e-12)
        # refined to the round-off of a direct solve, not just into the guard
        assert np.linalg.norm(x - direct) <= 1e-13 * np.linalg.norm(direct), perturbation


def test_refinement_on_an_unrelated_lu_falls_back():
    plan, A, rng = _planned_system(1)
    unrelated = A.copy()
    unrelated.data = rng.standard_normal(A.nnz)
    b = rng.standard_normal(plan.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, lu = factor_solve(unrelated, b, plan=plan)
        assert lu.refine(A, b) is None


def test_planned_factor_rejects_singular():
    plan, A, _ = _planned_system(0)
    free = np.flatnonzero(~plan.fixed)[0]
    A.data[A.indptr[free] : A.indptr[free + 1]] = 0.0
    with pytest.raises(LinearSolveError):
        factor_solve(A, np.ones(plan.n), plan=plan)


def test_factor_uses_small_supernodes(monkeypatch):
    # relax=2 and panel_size=8 beat SuperLU's 10 and 20 on the systems of
    # all three benchmark workloads, with the same fill
    import cutfsi.linalg as linalg

    seen = []
    splu = linalg.spla.splu

    def recording(A, **kwargs):
        seen.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recording)
    factor(sp.identity(3, format="csr"))
    assert [(kw["relax"], kw["panel_size"]) for kw in seen] == [(2, 8)]


def test_factor_solves_several_right_hand_sides():
    rng = np.random.default_rng(2)
    n = 30
    A = sp.random(n, n, density=0.15, random_state=3) + sp.diags(rng.uniform(1.0, 2.0, n))
    B = rng.standard_normal((n, 4))
    solve = factor(A)
    X = solve(B)
    assert X.shape == (n, 4)
    assert np.allclose(X, np.linalg.solve(A.toarray(), B), rtol=1e-12, atol=1e-12)
    # one column through the same factor and through factor_solve
    assert np.allclose(solve(B[:, 1]), X[:, 1], rtol=1e-14, atol=1e-14)
    assert np.allclose(factor_solve(A, B[:, 1])[0], X[:, 1], rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        solve(np.ones(n + 1))
    assert factor(sp.csr_matrix((0, 0)))(np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(ValueError):
        factor(sp.csr_matrix((3, 2)))


def test_matrix_market_roundtrip(tmp_path):
    import scipy.io as sio

    A = sp.csr_matrix(np.array([[1.5, 0.0], [0.0, -2.0]]))
    p = tmp_path / "mat.mtx"
    export_matrix_market(p, A, comment="debug dump")
    B = sio.mmread(p).tocsr()
    assert np.allclose(A.toarray(), B.toarray())
