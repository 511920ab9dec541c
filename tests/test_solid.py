from __future__ import annotations

import warnings

import numpy as np
import pytest
import sympy as sy
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfsi import solid
from cutfsi.meshes import rectangle_fitted_mesh
from cutfsi.solid import (
    GenAlphaParams,
    NeoHookeanMaterial,
    SolidInversionError,
    SolidModel,
    SolidState,
    genalpha_displacement_residual,
    genalpha_effective_mass_scale,
    genalpha_recover_acceleration,
    genalpha_recover_velocity,
    interface_chain,
    lame_parameters,
    quad_shape,
    quad_shape_grad,
)
from coo_reference import coo

MAT = NeoHookeanMaterial(young=500.0, poisson=0.4)


def test_lame_parameters():
    lam, mu = lame_parameters(500.0, 0.4)
    assert lam == pytest.approx(500.0 * 0.4 / (1.4 * 0.2), rel=1e-15)
    assert mu == pytest.approx(500.0 / 2.8, rel=1e-15)
    with pytest.raises(ValueError):
        lame_parameters(1.0, 0.5)


def test_simple_shear_stress_closed_form():
    # F = [[1, 0.1], [0, 1]] is isochoric, so the volumetric term drops and
    # S = mu (I - C^{-1}) exactly.
    mat = NeoHookeanMaterial(young=2.6, poisson=0.3)  # mu = 1
    lam, mu = mat.lame
    assert mu == pytest.approx(1.0, rel=1e-15)
    F = np.array([[1.0, 0.1], [0.0, 1.0]])
    S = mat.pk2_stress(F.T @ F)
    expected = np.array([[-0.01, 0.1], [0.1, 0.0]])
    assert np.max(np.abs(S - expected)) < 1e-10


def _energy(mat, C, log=np.log):
    """Stored energy mu/2 (tr C + 1 - 3) - mu ln J + lambda/2 (ln J)^2 of the
    plane-strain material at C, a (2, 2) array or, with log=sympy.log, a
    sympy matrix: the oracle the stress is checked against."""
    lam, mu = mat.lame
    lnJ = 0.5 * log(C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0])
    return 0.5 * mu * (C[0, 0] + C[1, 1] + 1.0 - 3.0) - mu * lnJ + 0.5 * lam * lnJ**2


def _sympy_pk2(mat, C):
    c11, c22, c12 = sy.symbols("c11 c22 c12", positive=False)
    psi = _energy(mat, sy.Matrix([[c11, c12], [c12, c22]]), sy.log)
    subs = {c11: C[0, 0], c22: C[1, 1], c12: C[0, 1]}
    S11 = float((2 * sy.diff(psi, c11)).subs(subs))
    S22 = float((2 * sy.diff(psi, c22)).subs(subs))
    S12 = float(sy.diff(psi, c12).subs(subs))
    return np.array([[S11, S12], [S12, S22]])


def test_pk2_matches_energy_derivative():
    rng = np.random.default_rng(5)
    for _ in range(5):
        F = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        if np.linalg.det(F) <= 0.1:
            continue
        C = F.T @ F
        S = MAT.pk2_stress(C)
        assert np.allclose(S, S.T, atol=1e-14)
        assert np.allclose(S, _sympy_pk2(MAT, C), rtol=1e-10, atol=1e-10)


def test_material_tangent_matches_finite_differences():
    rng = np.random.default_rng(9)
    F = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    C = F.T @ F
    Ct = MAT.tangent(C)
    # 2 dS/dC contracted with a symmetric direction H: dS = 0.5 * Ct : H
    h = 1e-6
    for _ in range(4):
        H = rng.standard_normal((2, 2))
        H = 0.5 * (H + H.T)
        dS = (MAT.pk2_stress(C + h * H) - MAT.pk2_stress(C - h * H)) / (2 * h)
        assert np.allclose(np.einsum("jklm,lm->jk", Ct, H) * 0.5, dS, atol=1e-6)


def test_tangent_symmetries():
    F = np.array([[1.1, 0.2], [-0.1, 0.95]])
    Ct = MAT.tangent(F.T @ F)
    assert np.allclose(Ct, np.transpose(Ct, (1, 0, 2, 3)), atol=1e-12)
    assert np.allclose(Ct, np.transpose(Ct, (0, 1, 3, 2)), atol=1e-12)
    assert np.allclose(Ct, np.transpose(Ct, (2, 3, 0, 1)), atol=1e-12)


def test_energy_zero_and_stress_free_at_identity():
    assert _energy(MAT, np.eye(2)) == 0.0
    assert np.allclose(MAT.pk2_stress(np.eye(2)), 0.0, atol=1e-15)


def test_material_batch_matches_single_tensors():
    rng = np.random.default_rng(6)
    F = np.eye(2) + 0.2 * rng.standard_normal((3, 4, 2, 2))
    C = np.swapaxes(F, -1, -2) @ F
    S, Ct = MAT.pk2_stress(C), MAT.tangent(C)
    assert S.shape == (3, 4, 2, 2) and Ct.shape == (3, 4, 2, 2, 2, 2)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(S[idx], MAT.pk2_stress(C[idx]))
        assert np.allclose(Ct[idx], MAT.tangent(C[idx]), rtol=1e-15, atol=0.0)
    C[1, 2] = np.diag([1.0, -1.0])
    for evaluate in (MAT.pk2_stress, MAT.tangent):
        with pytest.raises(SolidInversionError, match="not positive definite"):
            evaluate(C)


def _single_element_model(mat=MAT, rho=1.0):
    mesh = rectangle_fitted_mesh(0.0, 0.0, 1.0, 1.0, 1, 1)
    return SolidModel(mesh, mat, rho)


def test_internal_force_uniform_deformation_patch():
    model = _single_element_model()
    B = np.array([[0.1, 0.05], [-0.02, 0.08]])
    X = model.mesh.nodes
    d = (X @ B.T).reshape(-1)
    f, _ = model.internal_force(d, tangent=False)
    F = np.eye(2) + B
    P = F @ MAT.pk2_stress(F.T @ F)
    # integral of grad(N_a) over the unit square, in node-id order
    # (node ids are row-major: (0,0), (1,0), (0,1), (1,1))
    g = 0.5 * np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=float)
    expected = g @ P.T
    assert np.allclose(f.reshape(-1, 2), expected, atol=1e-13)


def test_internal_force_zero_at_rest_and_rigid_kernel():
    model = _single_element_model()
    f, K = model.internal_force(np.zeros(model.n_dofs))
    assert np.allclose(f, 0.0, atol=1e-15)
    Kd = coo(K).toarray()
    assert np.allclose(Kd, Kd.T, atol=1e-12)
    # translations and the infinitesimal rotation are in the kernel at rest
    X = model.mesh.nodes
    tx = np.tile([1.0, 0.0], model.mesh.n_nodes)
    ty = np.tile([0.0, 1.0], model.mesh.n_nodes)
    rot = np.column_stack([-X[:, 1], X[:, 0]]).reshape(-1)
    for mode in (tx, ty, rot):
        assert np.max(np.abs(Kd @ mode)) < 1e-12 * np.max(np.abs(Kd))


def test_stiffness_matches_finite_differences():
    mesh = rectangle_fitted_mesh(0.0, 0.0, 1.0, 0.5, 2, 1)
    model = SolidModel(mesh, MAT, 1.0)
    rng = np.random.default_rng(3)
    d = 0.05 * rng.standard_normal(model.n_dofs)
    f0, K = model.internal_force(d)
    K = coo(K).toarray()
    h = 1e-7
    for j in range(model.n_dofs):
        dp = d.copy()
        dm = d.copy()
        dp[j] += h
        dm[j] -= h
        fp, _ = model.internal_force(dp, tangent=False)
        fm, _ = model.internal_force(dm, tangent=False)
        col = (fp - fm) / (2 * h)
        assert np.allclose(K[:, j], col, atol=1e-5 * max(1.0, np.abs(K).max()))


def test_internal_force_frame_indifference():
    mesh = rectangle_fitted_mesh(0.0, 0.0, 1.0, 0.5, 2, 1)
    model = SolidModel(mesh, MAT, 1.0)
    rng = np.random.default_rng(4)
    d = 0.05 * rng.standard_normal((model.mesh.n_nodes, 2))
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    X = model.mesh.nodes
    d_rot = (X + d) @ Q.T - X
    f, _ = model.internal_force(d.reshape(-1), tangent=False)
    f_rot, _ = model.internal_force(d_rot.reshape(-1), tangent=False)
    assert np.allclose(f_rot.reshape(-1, 2), f.reshape(-1, 2) @ Q.T, atol=1e-10)


def test_inverted_element_raises():
    model = _single_element_model()
    d = np.zeros(model.n_dofs)
    d[0::2] = [0.0, -2.0, 0.0, -2.0]  # reflect the element: x -> -x
    with pytest.raises(SolidInversionError):
        model.internal_force(d, tangent=False)


def test_mass_matrix_total_and_spd():
    mesh = rectangle_fitted_mesh(0.0, 0.0, 0.5, 0.25, 3, 2)
    model = SolidModel(mesh, MAT, 3.0)
    M = coo(model.mass_matrix()).toarray()
    assert np.allclose(M, M.T, atol=1e-14)
    total_x = M[0::2, 0::2].sum()
    assert total_x == pytest.approx(3.0 * 0.5 * 0.25, rel=1e-13)
    w = np.linalg.eigvalsh(M)
    assert w.min() > 0


def test_body_force_vector_total():
    mesh = rectangle_fitted_mesh(0.0, 0.0, 0.5, 0.25, 3, 2)
    model = SolidModel(mesh, MAT, 3.0)
    f = model.body_force_vector(np.array([0.0, -2.0]))
    assert f[0::2].sum() == pytest.approx(0.0, abs=1e-15)
    assert f[1::2].sum() == pytest.approx(3.0 * 0.5 * 0.25 * -2.0, rel=1e-13)


def _gauss(n):
    xi, wi = np.polynomial.legendre.leggauss(n)
    return [(xi[i], xi[j], wi[i] * wi[j]) for i in range(n) for j in range(n)]


def _loop_oracle(model, d, load):
    """Scalar per-element, per-point assembly of (f, K, M, body force), with
    the mass on the 3x3 rule and the inversion checks in mesh order."""
    mesh, mat, n = model.mesh, model.material, model.n_dofs
    f, b, K, M = np.zeros(n), np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    for e, nodes in enumerate(mesh.elems):
        X = mesh.nodes[nodes]
        dofs = np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()
        de = d[dofs].reshape(4, 2)
        for xi, eta, w in _gauss(3):
            N = quad_shape(xi, eta)
            detJ = np.linalg.det(quad_shape_grad(xi, eta).T @ X)
            M[np.ix_(dofs, dofs)] += model.density * w * detJ * np.kron(np.outer(N, N), np.eye(2))
        for xi, eta, w in _gauss(2):
            J = quad_shape_grad(xi, eta).T @ X
            detJ = np.linalg.det(J)
            if detJ <= 0.0:
                raise SolidInversionError(f"element {e} has inverted geometry")
            dN = quad_shape_grad(xi, eta) @ np.linalg.inv(J).T
            F = np.eye(2) + de.T @ dN
            if np.linalg.det(F) <= 0.0:
                raise SolidInversionError(f"element {e} inverted during deformation")
            C = F.T @ F
            S = mat.pk2_stress(C)
            f[dofs] += w * detJ * (dN @ (F @ S).T).ravel()
            A = np.einsum("iM,MJLN,kN->iJkL", F, mat.tangent(C), F)
            A += np.einsum("ik,JL->iJkL", np.eye(2), S)
            Ke = np.einsum("aJ,iJkL,bL->aibk", dN, A, dN).reshape(8, 8)
            K[np.ix_(dofs, dofs)] += w * detJ * Ke
            b[dofs] += model.density * w * detJ * np.outer(quad_shape(xi, eta), load).ravel()
    return f, K, M, b


def _distorted_model(nx=4, ny=3, seed=0):
    mesh = rectangle_fitted_mesh(0.0, 0.0, 0.8, 0.3, nx, ny, tags={"bottom": "clamped"})
    rng = np.random.default_rng(seed)
    mesh.nodes[:] += 0.15 * 0.1 * rng.uniform(-1.0, 1.0, mesh.nodes.shape)
    return SolidModel(mesh, MAT, 2.5)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_assembly_matches_scalar_loop(seed):
    model = _distorted_model(seed=seed)
    d = 0.01 * np.random.default_rng(seed + 10).standard_normal(model.n_dofs)
    load = np.array([0.7, -9.81])
    f_ref, K_ref, M_ref, b_ref = _loop_oracle(model, d, load)
    f, K = model.internal_force(d)
    f_only, no_K = model.internal_force(d, tangent=False)
    assert no_K is None
    assert _rel_err(f, f_ref) <= 1e-13 and _rel_err(f_only, f_ref) <= 1e-13
    assert _rel_err(coo(K).toarray(), K_ref) <= 1e-13
    assert _rel_err(coo(model.mass_matrix()).toarray(), M_ref) <= 1e-13
    assert _rel_err(model.body_force_vector(load), b_ref) <= 1e-13


def _inversion_message(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolidInversionError) as err:
            call()
    return str(err.value)


def test_later_inverted_element_is_named():
    # Of a 4x1 strip, element 2 folds at its last Gauss point only and
    # element 3 at its third: mesh order, then point order, names element 2.
    model = SolidModel(rectangle_fitted_mesh(0.0, 0.0, 4.0, 1.0, 4, 1), MAT, 1.0)
    d = np.zeros(model.n_dofs)
    d[[16, 17]] = -0.9  # node 8, shared by elements 2 and 3, to (2.1, 0.1)
    d[2 * np.array([4, 9])] = -1.5  # right edge of element 3 to x = 2.5
    msg = _inversion_message(lambda: model.internal_force(d, tangent=False))
    assert msg == "element 2 inverted during deformation"
    assert msg == _inversion_message(lambda: _loop_oracle(model, d, np.zeros(2)))


@pytest.mark.parametrize(
    "flipped, folded, message",
    [
        (0, 2, "element 0 has inverted geometry"),
        (2, 0, "element 0 inverted during deformation"),
    ],
)
def test_first_failing_element_decides_the_message(flipped, folded, message):
    mesh = rectangle_fitted_mesh(0.0, 0.0, 3.0, 1.0, 3, 1)
    mesh.elems[flipped] = mesh.elems[flipped][::-1]  # clockwise reference quad
    model = SolidModel(mesh, MAT, 1.0)
    d = np.zeros(model.n_dofs)
    d[2 * mesh.elems[folded][[1, 2]]] = -3.0  # right edge moved past the left
    for tangent in (True, False):
        msg = _inversion_message(lambda: model.internal_force(d, tangent=tangent))
        assert msg == message
    assert message == _inversion_message(lambda: _loop_oracle(model, d, np.zeros(2)))


def test_zero_area_element_is_refused_without_warnings():
    mesh = rectangle_fitted_mesh(0.0, 0.0, 2.0, 1.0, 2, 1)
    mesh.nodes[[2, 5]] = mesh.nodes[[1, 4]]  # element 1 collapses to a line
    model = SolidModel(mesh, MAT, 1.0)
    d = np.zeros(model.n_dofs)
    msg = _inversion_message(lambda: model.internal_force(d))
    assert msg == "element 1 has inverted geometry"
    assert msg == _inversion_message(lambda: _loop_oracle(model, d, np.zeros(2)))


def test_reference_table_is_built_once(monkeypatch):
    calls = []

    def counting(xi, eta):
        calls.append((xi, eta))
        return quad_shape_grad(xi, eta)

    monkeypatch.setattr(solid, "quad_shape_grad", counting)
    model = _distorted_model()
    d = np.zeros(model.n_dofs)
    model.internal_force(d)
    assert len(calls) == 4
    model.internal_force(d, tangent=False)
    model.mass_matrix()
    model.body_force_vector(np.array([0.0, -1.0]))
    assert len(calls) == 4


def test_genalpha_parameter_relations():
    p = GenAlphaParams(rho_inf=0.8)
    assert p.alpha_f == pytest.approx(0.8 / 1.8, rel=1e-15)
    assert p.alpha_m == pytest.approx(0.6 / 1.8, rel=1e-15)
    assert p.gamma == pytest.approx(0.5 - p.alpha_m + p.alpha_f, rel=1e-15)
    assert p.beta == pytest.approx(0.25 * (1 - p.alpha_m + p.alpha_f) ** 2, rel=1e-15)
    mid = GenAlphaParams(rho_inf=1.0)
    assert mid.alpha_f == pytest.approx(0.5) and mid.alpha_m == pytest.approx(0.5)
    assert mid.gamma == pytest.approx(0.5) and mid.beta == pytest.approx(0.25)


def _sdof_step_oracle(m, k, state, dt, p):
    """Solve the alpha-weighted SDOF balance directly for the new acceleration."""
    d0, v0, a0 = state
    # d1 = d0 + dt v0 + dt^2((1/2-b)a0 + b a1);  m[(1-am)a1 + am a0] + k[(1-af)d1 + af d0] = 0
    b, af, am, g = p.beta, p.alpha_f, p.alpha_m, p.gamma
    lhs = m * (1 - am) + k * (1 - af) * b * dt**2
    rhs = -(m * am * a0 + k * (1 - af) * (d0 + dt * v0 + dt**2 * (0.5 - b) * a0) + k * af * d0)
    a1 = rhs / lhs
    d1 = d0 + dt * v0 + dt**2 * ((0.5 - b) * a0 + b * a1)
    v1 = v0 + dt * ((1 - g) * a0 + g * a1)
    return d1, v1, a1


def test_genalpha_residual_matches_sdof_oracle():
    m, k = 2.0, 5.0
    p = GenAlphaParams(rho_inf=0.8)
    dt = 0.1
    d0, v0 = 1.0, 0.0
    a0 = -k * d0 / m
    state = SolidState(np.array([d0]), np.array([v0]), np.array([a0]))
    d1, v1, a1 = _sdof_step_oracle(m, k, (d0, v0, a0), dt, p)
    res = genalpha_displacement_residual(
        np.array([d1]),
        state,
        dt,
        p,
        mass_apply=lambda x: m * x,
        f_int_new=k * np.array([d1]),
        f_int_old=k * np.array([d0]),
        f_ext=np.zeros(1),
    )
    assert abs(res[0]) < 1e-12
    a_rec = genalpha_recover_acceleration(np.array([d1]), state, dt, p)
    v_rec = genalpha_recover_velocity(a_rec, state, dt, p)
    assert a_rec[0] == pytest.approx(a1, rel=1e-12)
    assert v_rec[0] == pytest.approx(v1, rel=1e-12)
    # effective tangent: d(res)/d(d1) = m*(1-am)/(b dt^2) + (1-af)*k
    scale = genalpha_effective_mass_scale(dt, p)
    h = 1e-7
    rp = genalpha_displacement_residual(
        np.array([d1 + h]), state, dt, p, lambda x: m * x,
        k * np.array([d1 + h]), k * np.array([d0]), np.zeros(1),
    )
    fd = (rp[0] - res[0]) / h
    assert fd == pytest.approx(m * scale + (1 - p.alpha_f) * k, rel=1e-6)


def test_interface_chain_wet_and_clamped():
    mesh = rectangle_fitted_mesh(0.0, 0.0, 0.2, 0.6, 1, 3, tags={"bottom": "clamped"})
    loop, wet = interface_chain(mesh)
    assert len(loop) == 8
    assert wet.sum() == 7  # one clamped bottom edge
    model = SolidModel(mesh, MAT, 1.0)
    clamped = model.clamped_dofs()
    assert set(clamped) == {0, 1, 2, 3}  # both dofs of the two bottom nodes


@given(st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_genalpha_second_order_consistency_property(rho_inf):
    # gamma - 1/2 = alpha_f - alpha_m must hold for second-order accuracy
    p = GenAlphaParams(rho_inf=rho_inf)
    assert abs((p.gamma - 0.5) - (p.alpha_f - p.alpha_m)) < 1e-15
    assert 0.0 <= p.alpha_f <= 0.5
    assert -1.0 <= p.alpha_m <= 0.5
