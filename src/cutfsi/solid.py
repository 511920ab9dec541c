"""Hyperelastic solid: compressible neo-Hookean plane strain on bilinear
quads, total Lagrangian internal forces with analytic tangent, and a
generalized-alpha time integrator for the second-order dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import LocalBlocks
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
    `pk2_stress` and `tangent` take one (2, 2) tensor C or a (..., 2, 2) batch.
    """

    young: float
    poisson: float

    @property
    def lame(self) -> tuple[float, float]:
        return lame_parameters(self.young, self.poisson)

    @staticmethod
    def _inverse_and_log_j(C: np.ndarray):
        """C^-1 and ln J = ln(det C) / 2, refusing a non-positive det C."""
        detC = np.linalg.det(C)
        if np.any(detC <= 0.0):
            raise SolidInversionError("right Cauchy-Green tensor not positive definite")
        return np.linalg.inv(C), 0.5 * np.log(detC)

    def pk2_stress(self, C: np.ndarray) -> np.ndarray:
        """Second Piola-Kirchhoff stress mu (I - C^-1) + lambda ln J C^-1."""
        lam, mu = self.lame
        Cinv, lnJ = self._inverse_and_log_j(C)
        return mu * (_I2 - Cinv) + lam * lnJ[..., None, None] * Cinv

    def tangent(self, C: np.ndarray) -> np.ndarray:
        """Material tangent 2 dS/dC as a (..., 2, 2, 2, 2) array."""
        lam, mu = self.lame
        Cinv, lnJ = self._inverse_and_log_j(C)
        t1 = lam * np.einsum("...jk,...lm->...jklm", Cinv, Cinv)
        sym = 0.5 * (
            np.einsum("...jl,...km->...jklm", Cinv, Cinv)
            + np.einsum("...jm,...kl->...jklm", Cinv, Cinv)
        )
        return t1 + 2.0 * (mu - lam * lnJ)[..., None, None, None, None] * sym


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


@dataclass(frozen=True)
class _ReferenceTable:
    """2x2 Gauss rule on every element of the reference configuration.

    The rule integrates the mass and the load exactly, since det J of a
    bilinear quad is linear. Where det J <= 0, dN is a placeholder: the
    internal force refuses that element before using it.
    """

    N: np.ndarray  # (Q, 4)
    dN: np.ndarray  # (E, Q, 4, 2) d N_a / d X
    wdet: np.ndarray  # (E, Q) weight * det J
    det: np.ndarray  # (E, Q)
    dofs: np.ndarray  # (E, 8), dof 2a + i is component i of element node a


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

    @cached_property
    def _reference(self) -> _ReferenceTable:
        """The reference table, built on first use."""
        pts, wts = np.polynomial.legendre.leggauss(2)
        xi, eta = np.repeat(pts, 2), np.tile(pts, 2)
        elems = self.mesh.elems
        G = np.array([quad_shape_grad(x, y) for x, y in zip(xi, eta)])
        J = np.einsum("qaI,eaj->eqIj", G, self.mesh.nodes[elems])
        det = np.linalg.det(J)
        invJ = np.linalg.inv(np.where((det > 0.0)[..., None, None], J, _I2))
        return _ReferenceTable(
            N=np.array([quad_shape(x, y) for x, y in zip(xi, eta)]),
            dN=G @ np.swapaxes(invJ, -1, -2),
            wdet=np.outer(wts, wts).ravel() * det,
            det=det,
            dofs=(2 * elems[:, :, None] + np.arange(2)).reshape(-1, 8),
        )

    def _scatter(self, nodal: np.ndarray) -> np.ndarray:
        """Sum (E, 4, 2) element vectors into one global dof vector."""
        dofs = self._reference.dofs
        return np.bincount(dofs.ravel(), weights=nodal.ravel(), minlength=self.n_dofs)

    def mass_matrix(self) -> LocalBlocks:
        """Consistent mass (referential density) as (E, 8, 8) element
        blocks; built on first use."""
        if self._mass is None:
            ref, n = self._reference, self.n_dofs
            Me = self.density * np.einsum("eq,qa,qb->eab", ref.wdet, ref.N, ref.N)
            block = np.einsum("eab,ik->eaibk", Me, _I2).reshape(-1, 8, 8)
            self._mass = LocalBlocks((n, n), ref.dofs, ref.dofs, block)
        return self._mass

    def internal_force(self, d: np.ndarray, tangent: bool = True):
        """Internal nodal forces and (optionally) the analytic stiffness as
        (E, 8, 8) element blocks.

        Raises SolidInversionError, naming the first element in mesh order
        that has a quadrature point with det J <= 0 or det F <= 0.
        """
        ref = self._reference
        de = np.asarray(d, dtype=float)[ref.dofs].reshape(-1, 4, 2)
        F = _I2 + np.einsum("eai,eqaJ->eqiJ", de, ref.dN)
        bad = (ref.det <= 0.0) | (np.linalg.det(F) <= 0.0)
        if bad.any():
            e, q = np.unravel_index(np.argmax(bad), bad.shape)
            how = "has inverted geometry" if ref.det[e, q] <= 0.0 else "inverted during deformation"
            raise SolidInversionError(f"element {e} {how}")
        C = np.swapaxes(F, -1, -2) @ F
        S = self.material.pk2_stress(C)
        f = self._scatter(np.einsum("eq,eqaJ,eqiJ->eai", ref.wdet, ref.dN, F @ S))
        if not tangent:
            return f, None
        A = np.einsum("eqiM,eqMJLN,eqkN->eqiJkL", F, self.material.tangent(C), F)
        A += np.einsum("ik,eqJL->eqiJkL", _I2, S)
        # B[(i, J), (a, k)] = dN_a/dX_J delta_ik maps element dofs to grad u
        B = np.einsum("eqaJ,ik->eqiJak", ref.dN, _I2).reshape(*ref.det.shape, 4, 8)
        wA = ref.wdet[..., None, None] * A.reshape(*ref.det.shape, 4, 4)
        Ke = (np.swapaxes(B, -1, -2) @ wA @ B).sum(axis=1)
        return f, LocalBlocks((self.n_dofs, self.n_dofs), ref.dofs, ref.dofs, Ke)

    def body_force_vector(self, load: np.ndarray) -> np.ndarray:
        """Consistent load vector for a constant referential body force
        density rho_s * load (force per unit mass)."""
        ref = self._reference
        rho_n = self.density * (ref.wdet @ ref.N)  # integral of rho_s N_a per element
        return self._scatter(rho_n[:, :, None] * np.asarray(load, dtype=float))

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
    f_ext,
):
    """Dynamic residual in the unknown end-of-step displacement.

    Zero when the alpha-weighted balance
    M[(1-am) a_new + am a_old] + (1-af)(f_int_new - f_ext)
    + af (f_int_old - f_ext) = 0 holds with a_new recovered from d_new;
    the external load `f_ext` is constant in time.
    """
    a_new = genalpha_recover_acceleration(d_new, state, dt, p)
    inertial = mass_apply((1.0 - p.alpha_m) * a_new + p.alpha_m * state.a)
    return (
        inertial
        + (1.0 - p.alpha_f) * (f_int_new - f_ext)
        + p.alpha_f * (f_int_old - f_ext)
    )
