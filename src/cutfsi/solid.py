"""Hyperelastic solid: compressible neo-Hookean plane strain on bilinear
quads, total Lagrangian internal forces with analytic tangent, and a
generalized-alpha time integrator for the second-order dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TripletAccumulator
from .meshes import FittedMesh

__all__ = [
    "lame_parameters",
    "NeoHookeanMaterial",
    "SolidInversionError",
    "SolidModel",
    "GenAlphaParams",
    "SolidState",
    "genalpha_displacement_residual",
    "genalpha_effective_mass_scale",
    "genalpha_recover_acceleration",
    "genalpha_recover_velocity",
    "interface_chain",
    "quad_shape",
    "quad_shape_grad",
]


def lame_parameters(young: float, poisson: float) -> tuple[float, float]:
    """(lambda, mu) from Young's modulus and Poisson ratio."""
    if not -1.0 < poisson < 0.5:
        raise ValueError("Poisson ratio must lie in (-1, 0.5)")
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


class SolidInversionError(RuntimeError):
    """An element reached a non-positive Jacobian determinant."""


_I2 = np.eye(2)


@dataclass(frozen=True)
class NeoHookeanMaterial:
    """Compressible neo-Hookean solid in plane strain.

    The stored energy is
    mu/2 (tr C_3d - 3) - mu ln J + lambda/2 (ln J)^2 with the out-of-plane
    stretch frozen at one, so all tensors below are the in-plane 2x2 blocks.
    """

    young: float
    poisson: float

    @property
    def lame(self) -> tuple[float, float]:
        return lame_parameters(self.young, self.poisson)

    def energy(self, C: np.ndarray) -> float:
        lam, mu = self.lame
        detC = float(np.linalg.det(C))
        if detC <= 0.0:
            raise SolidInversionError("right Cauchy-Green tensor not positive definite")
        lnJ = 0.5 * np.log(detC)
        return 0.5 * mu * (float(np.trace(C)) + 1.0 - 3.0) - mu * lnJ + 0.5 * lam * lnJ**2

    def pk2_stress(self, C: np.ndarray) -> np.ndarray:
        """Second Piola-Kirchhoff stress mu (I - C^-1) + lambda ln J C^-1."""
        lam, mu = self.lame
        detC = float(np.linalg.det(C))
        if detC <= 0.0:
            raise SolidInversionError("right Cauchy-Green tensor not positive definite")
        Cinv = np.linalg.inv(C)
        lnJ = 0.5 * np.log(detC)
        return mu * (_I2 - Cinv) + lam * lnJ * Cinv

    def tangent(self, C: np.ndarray) -> np.ndarray:
        """Material tangent 2 dS/dC as a (2,2,2,2) array."""
        lam, mu = self.lame
        detC = float(np.linalg.det(C))
        if detC <= 0.0:
            raise SolidInversionError("right Cauchy-Green tensor not positive definite")
        Cinv = np.linalg.inv(C)
        lnJ = 0.5 * np.log(detC)
        t1 = lam * np.einsum("jk,lm->jklm", Cinv, Cinv)
        sym = 0.5 * (
            np.einsum("jl,km->jklm", Cinv, Cinv) + np.einsum("jm,kl->jklm", Cinv, Cinv)
        )
        return t1 + 2.0 * (mu - lam * lnJ) * sym


def quad_shape(xi: float, eta: float) -> np.ndarray:
    """Bilinear shape functions at (xi, eta) in [-1, 1]^2, CCW from (-1, -1)."""
    return 0.25 * np.array(
        [
            (1 - xi) * (1 - eta),
            (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta),
            (1 - xi) * (1 + eta),
        ]
    )


def quad_shape_grad(xi: float, eta: float) -> np.ndarray:
    """d N_a / d (xi, eta) as a (4, 2) array."""
    return 0.25 * np.array(
        [
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -(1 + xi)],
            [(1 + eta), (1 + xi)],
            [-(1 + eta), (1 - xi)],
        ]
    )


def _gauss_points(n: int):
    xi, wi = np.polynomial.legendre.leggauss(n)
    for i in range(n):
        for j in range(n):
            yield xi[i], xi[j], wi[i] * wi[j]


class SolidModel:
    """Boundary-fitted solid with two displacement dofs per node.

    Dof numbering: dof(node, comp) = 2*node + comp.
    """

    def __init__(self, mesh: FittedMesh, material: NeoHookeanMaterial, density: float):
        self.mesh = mesh
        self.material = material
        self.density = float(density)
        self.n_dofs = 2 * mesh.n_nodes
        self._mass = None

    def dof(self, node: int, comp: int) -> int:
        return 2 * node + comp

    def mass_matrix(self):
        """Consistent mass (referential density) as CSR; cached."""
        if self._mass is not None:
            return self._mass
        acc = TripletAccumulator(self.n_dofs, self.n_dofs)
        for e in range(self.mesh.n_elems):
            nodes = self.mesh.elems[e]
            X = self.mesh.nodes[nodes]
            Me = np.zeros((4, 4))
            for xi, eta, w in _gauss_points(3):
                N = quad_shape(xi, eta)
                J = quad_shape_grad(xi, eta).T @ X
                detJ = float(np.linalg.det(J))
                Me += self.density * w * detJ * np.outer(N, N)
            dofs = np.empty(8, dtype=int)
            dofs[0::2] = 2 * nodes
            dofs[1::2] = 2 * nodes + 1
            block = np.zeros((8, 8))
            block[0::2, 0::2] = Me
            block[1::2, 1::2] = Me
            acc.add_block(dofs, dofs, block)
        self._mass = acc.tocsr()
        return self._mass

    def internal_force(self, d: np.ndarray, tangent: bool = True):
        """Internal nodal forces and (optionally) the analytic stiffness.

        Raises SolidInversionError when any quadrature point has det F <= 0.
        """
        d = np.asarray(d, dtype=float)
        f = np.zeros(self.n_dofs)
        acc = TripletAccumulator(self.n_dofs, self.n_dofs) if tangent else None
        for e in range(self.mesh.n_elems):
            nodes = self.mesh.elems[e]
            X = self.mesh.nodes[nodes]
            de = np.column_stack([d[2 * nodes], d[2 * nodes + 1]])
            fe = np.zeros((4, 2))
            Ke = np.zeros((4, 2, 4, 2)) if tangent else None
            for xi, eta, w in _gauss_points(2):
                J = quad_shape_grad(xi, eta).T @ X
                detJ = float(np.linalg.det(J))
                if detJ <= 0.0:
                    raise SolidInversionError(f"element {e} has inverted geometry")
                dN = quad_shape_grad(xi, eta) @ np.linalg.inv(J).T
                F = _I2 + de.T @ dN
                if float(np.linalg.det(F)) <= 0.0:
                    raise SolidInversionError(f"element {e} inverted during deformation")
                C = F.T @ F
                S = self.material.pk2_stress(C)
                P = F @ S
                fe += w * detJ * dN @ P.T
                if tangent:
                    Ct = self.material.tangent(C)
                    A = np.einsum("iM,MJLN,kN->iJkL", F, Ct, F)
                    A += np.einsum("ik,JL->iJkL", _I2, S)
                    Ke += w * detJ * np.einsum("aJ,iJkL,bL->aibk", dN, A, dN)
            dofs = np.empty(8, dtype=int)
            dofs[0::2] = 2 * nodes
            dofs[1::2] = 2 * nodes + 1
            f[dofs] += fe.reshape(8)
            if tangent:
                acc.add_block(dofs, dofs, Ke.reshape(8, 8))
        return (f, acc.tocsr()) if tangent else (f, None)

    def body_force_vector(self, load: np.ndarray) -> np.ndarray:
        """Consistent load vector for a constant referential body force
        density rho_s * load (force per unit mass)."""
        load = np.asarray(load, dtype=float)
        f = np.zeros(self.n_dofs)
        for e in range(self.mesh.n_elems):
            nodes = self.mesh.elems[e]
            X = self.mesh.nodes[nodes]
            fe = np.zeros((4, 2))
            for xi, eta, w in _gauss_points(2):
                N = quad_shape(xi, eta)
                J = quad_shape_grad(xi, eta).T @ X
                fe += self.density * w * float(np.linalg.det(J)) * np.outer(N, load)
            f[2 * nodes] += fe[:, 0]
            f[2 * nodes + 1] += fe[:, 1]
        return f

    def clamped_dofs(self) -> np.ndarray:
        nodes = self.mesh.boundary_nodes_with_tag("clamped")
        return np.concatenate([2 * nodes, 2 * nodes + 1]) if nodes.size else np.zeros(0, dtype=int)


def interface_chain(mesh: FittedMesh) -> tuple[np.ndarray, np.ndarray]:
    """Counterclockwise boundary node loop and a per-edge wet mask.

    Edge k joins loop[k] and loop[k+1]; it is wet unless tagged 'clamped'.
    """
    loop = np.array(mesh.boundary_loop(), dtype=int)
    tag_of = {}
    for a, b, t in mesh.boundary:
        tag_of[frozenset((a, b))] = t
    m = len(loop)
    wet = np.ones(m, dtype=bool)
    for k in range(m):
        key = frozenset((int(loop[k]), int(loop[(k + 1) % m])))
        if tag_of.get(key) == "clamped":
            wet[k] = False
    return loop, wet


@dataclass(frozen=True)
class GenAlphaParams:
    """Generalized-alpha parameters from the spectral radius at infinity."""

    rho_inf: float = 1.0

    @property
    def alpha_f(self) -> float:
        return self.rho_inf / (self.rho_inf + 1.0)

    @property
    def alpha_m(self) -> float:
        return (2.0 * self.rho_inf - 1.0) / (self.rho_inf + 1.0)

    @property
    def gamma(self) -> float:
        return 0.5 - self.alpha_m + self.alpha_f

    @property
    def beta(self) -> float:
        return 0.25 * (1.0 - self.alpha_m + self.alpha_f) ** 2


@dataclass
class SolidState:
    """Converged kinematic state at one time level."""

    d: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def copy(self) -> "SolidState":
        return SolidState(self.d.copy(), self.v.copy(), self.a.copy())


def _kinematic_predictor(state: SolidState, dt: float, p: GenAlphaParams) -> np.ndarray:
    return state.d + dt * state.v + (0.5 - p.beta) * dt**2 * state.a


def genalpha_recover_acceleration(d_new, state: SolidState, dt: float, p: GenAlphaParams):
    return (d_new - _kinematic_predictor(state, dt, p)) / (p.beta * dt**2)


def genalpha_recover_velocity(a_new, state: SolidState, dt: float, p: GenAlphaParams):
    return state.v + dt * ((1.0 - p.gamma) * state.a + p.gamma * a_new)


def genalpha_effective_mass_scale(dt: float, p: GenAlphaParams) -> float:
    """Coefficient of M in d(residual)/d(displacement)."""
    return (1.0 - p.alpha_m) / (p.beta * dt**2)


def genalpha_displacement_residual(
    d_new,
    state: SolidState,
    dt: float,
    p: GenAlphaParams,
    mass_apply,
    f_int_new,
    f_int_old,
    f_ext_new,
    f_ext_old,
):
    """Dynamic residual in the unknown end-of-step displacement.

    Zero when the alpha-weighted balance
    M[(1-am) a_new + am a_old] + (1-af)(f_int - f_ext)_new
    + af (f_int - f_ext)_old = 0 holds with a_new recovered from d_new.
    """
    a_new = genalpha_recover_acceleration(d_new, state, dt, p)
    inertial = mass_apply((1.0 - p.alpha_m) * a_new + p.alpha_m * state.a)
    return (
        inertial
        + (1.0 - p.alpha_f) * (f_int_new - f_ext_new)
        + p.alpha_f * (f_int_old - f_ext_old)
    )
