from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi.linalg import (
    BlockSystem,
    LinearSolveError,
    TripletAccumulator,
    export_matrix_market,
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


def test_matrix_market_roundtrip(tmp_path):
    import scipy.io as sio

    A = sp.csr_matrix(np.array([[1.5, 0.0], [0.0, -2.0]]))
    p = tmp_path / "mat.mtx"
    export_matrix_market(p, A, comment="debug dump")
    B = sio.mmread(p).tocsr()
    assert np.allclose(A.toarray(), B.toarray())
