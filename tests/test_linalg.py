from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutfsi.linalg import (
    BlockSystem,
    LinearSolveError,
    TripletAccumulator,
    export_matrix_market,
    factor,
    factor_solve,
)


def test_triplets_sum_duplicates():
    acc = TripletAccumulator(3, 3)
    acc.add([0, 0, 1], [0, 0, 2], [1.0, 2.0, 5.0])
    acc.add_block([2], [0, 1], np.array([[3.0, 4.0]]))
    A = acc.tocsr()
    assert A[0, 0] == 3.0
    assert A[1, 2] == 5.0
    assert A[2, 0] == 3.0 and A[2, 1] == 4.0


def test_block_system_assembly_and_split():
    sys = BlockSystem({"u": 2, "p": 1})
    sys.set_block("u", "u", np.eye(2))
    sys.set_block("u", "p", np.array([[1.0], [0.0]]))
    sys.set_block("p", "u", np.array([[0.0, 2.0]]))
    sys.set_block("p", "p", np.array([[4.0]]))
    A = sys.assemble().toarray()
    assert np.allclose(A, [[1, 0, 1], [0, 1, 0], [0, 2, 4]])
    sys.set_residual("u", [1.0, 2.0])
    sys.set_residual("p", [3.0])
    parts = sys.split(sys.residual)
    assert np.allclose(parts["u"], [1, 2]) and np.allclose(parts["p"], [3])


def test_block_shape_validation():
    sys = BlockSystem({"u": 2, "p": 1})
    with pytest.raises(ValueError):
        sys.set_block("u", "p", np.eye(2))


def test_factor_solve_matches_dense():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x = factor_solve(sp.csr_matrix(A), b)
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
        x = factor_solve(A, b)
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
    assert seen == [{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0}]


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
    assert np.allclose(factor_solve(A, B[:, 1]), X[:, 1], rtol=1e-14, atol=1e-14)
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
