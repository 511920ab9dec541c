"""Function-space transfer between moving-interface configurations."""

import numpy as np
import pytest

from cutfsi import projection
from cutfsi.cutting import NodeRole, build_cut_configuration
from cutfsi.meshes import StructuredGrid
from cutfsi.projection import (
    CFL_MESSAGE,
    DofCorrespondence,
    DofStatus,
    ProjectionError,
    SpaceProjector,
    _extension_matrix,
)

GRID = StructuredGrid((0.0, 0.0), (0.25, 0.25), (8, 4))


def _half_plane_cfg(x_wall):
    """Covered region to the right of x_wall, loop drawn far past the grid."""
    loop = np.array(
        [[x_wall, -0.6], [3.1, -0.6], [3.1, 1.6], [x_wall, 1.6]]
    )
    return build_cut_configuration(GRID, loop)


def _linear(grid, coeffs=(0.7, -0.3, 0.2)):
    a, b, c = coeffs
    xy = grid.node_coords()
    return a * xy[:, 0] + b * xy[:, 1] + c


class TestTransferCopy:
    def test_identical_spaces_copy_everything_bitwise(self):
        cfg = _half_plane_cfg(1.1)
        vals = _linear(GRID)
        vals[cfg.node_role == NodeRole.INACTIVE] = 0.0
        proj = SpaceProjector(cfg, cfg)
        assert np.array_equal(proj.apply(vals), vals)
        corr = proj.correspondence
        assert corr.extension_nodes.size == 0
        active = np.flatnonzero(cfg.node_role != NodeRole.INACTIVE)
        assert np.array_equal(corr.copied_nodes, active)

    def test_receding_interface_keeps_ghost_values(self):
        # The covered region recedes past a node column: nodes that were
        # ghosts become standard but stay active, so they are copied.
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.3)
        vals = np.where(cfg_prev.node_role != NodeRole.INACTIVE, _linear(GRID), 0.0)
        proj = SpaceProjector(cfg_prev, cfg_curr)
        out = proj.apply(vals)
        moved = np.flatnonzero(
            (cfg_prev.node_role == NodeRole.GHOST)
            & (cfg_curr.node_role == NodeRole.STANDARD)
        )
        assert moved.size, "test geometry should flip at least one ghost to standard"
        assert np.all(proj.correspondence.status[moved] == DofStatus.COPIED)
        assert np.array_equal(out[moved], vals[moved])

    def test_fresh_ghost_layer_needs_extension(self):
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.35)
        vals = np.where(cfg_prev.node_role != NodeRole.INACTIVE, _linear(GRID), 0.0)
        proj = SpaceProjector(cfg_prev, cfg_curr)
        out = proj.apply(vals)
        corr = proj.correspondence
        new_ghosts = corr.extension_nodes
        assert new_ghosts.size > 0
        assert np.all(cfg_curr.node_role[new_ghosts] == NodeRole.GHOST)
        assert np.all(cfg_prev.node_role[new_ghosts] == NodeRole.INACTIVE)
        # copied entries are untouched by the extension solve
        copied = corr.copied_nodes
        assert np.array_equal(out[copied], vals[copied])

    def test_two_layer_jump_violates_step_condition(self):
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.65)
        with pytest.raises(ProjectionError) as err:
            SpaceProjector(cfg_prev, cfg_curr)
        assert str(err.value) == CFL_MESSAGE
        corr = err.value.correspondence
        assert corr is not None and corr.violation_nodes.size > 0
        assert np.all(corr.status[corr.violation_nodes] != DofStatus.COPIED)


class TestExtension:
    def test_no_free_nodes_returns_input(self):
        # Without extension nodes the projector only copies: active values
        # pass through bitwise and inactive ones are dropped.
        cfg = _half_plane_cfg(1.1)
        vals = _linear(GRID)
        proj = SpaceProjector(cfg, cfg)
        assert proj.correspondence.extension_nodes.size == 0
        active = cfg.node_role != NodeRole.INACTIVE
        assert np.array_equal(proj.apply(vals), np.where(active, vals, 0.0))

    def test_linear_field_extended_exactly(self):
        # A globally linear interpolant has no normal-derivative jumps, so
        # the zero-energy continuation is the linear field itself.
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.35)
        exact = _linear(GRID)
        vals = np.where(cfg_prev.node_role != NodeRole.INACTIVE, exact, 0.0)
        proj = SpaceProjector(cfg_prev, cfg_curr)
        filled = proj.apply(vals)
        free = proj.correspondence.extension_nodes
        assert np.abs(filled[free] - exact[free]).max() < 1e-10

    def test_symmetric_configuration_extends_symmetrically(self):
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.35)
        xy = GRID.node_coords()
        vals = np.where(
            cfg_prev.node_role != NodeRole.INACTIVE, 1.0 + xy[:, 0] ** 2, 0.0
        )
        proj = SpaceProjector(cfg_prev, cfg_curr)
        filled = proj.apply(vals)
        free = proj.correspondence.extension_nodes
        ys = xy[free, 1]
        for n, y in zip(free, ys):
            mirror = free[np.argmin(np.abs(ys - (1.0 - y)))]
            assert np.isclose(filled[n], filled[mirror], atol=1e-12)

    def test_extension_system_is_spd_on_free_set(self):
        cfg_curr = _half_plane_cfg(1.35)
        corr = SpaceProjector(_half_plane_cfg(1.1), cfg_curr).correspondence
        A = _extension_matrix(cfg_curr, widened=False)
        free = corr.extension_nodes
        A_ff = A[np.ix_(free, free)].toarray()
        assert np.allclose(A_ff, A_ff.T, atol=1e-14)
        assert np.linalg.eigvalsh(A_ff).min() > 0.0

    def test_unreachable_free_node_is_an_error(self, monkeypatch):
        cfg = _half_plane_cfg(1.35)
        status = np.full(GRID.n_nodes, DofStatus.INACTIVE, dtype=np.int8)
        status[0] = DofStatus.NEEDS_EXTENSION  # far corner, no facet nearby
        corr = DofCorrespondence(status=status)
        monkeypatch.setattr(projection, "_build_correspondence", lambda *_: corr)
        with pytest.raises(ProjectionError, match="cannot reach") as err:
            SpaceProjector(cfg, cfg)
        assert err.value.correspondence is corr

    def test_multicomponent_and_flat_vectors_agree(self):
        # A two-component vector maps like its two components separately.
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.35)
        rng = np.random.default_rng(9)
        nodal = np.where(
            (cfg_prev.node_role != NodeRole.INACTIVE)[:, None],
            rng.normal(size=(GRID.n_nodes, 2)),
            0.0,
        )
        proj = SpaceProjector(cfg_prev, cfg_curr)
        assert proj.correspondence.extension_nodes.size > 0
        flat = proj.apply(nodal.ravel()).reshape(-1, 2)
        for comp in range(2):
            assert np.allclose(flat[:, comp], proj.apply(nodal[:, comp]), atol=1e-13)

    def test_projector_is_idempotent(self):
        cfg_prev = _half_plane_cfg(1.1)
        cfg_curr = _half_plane_cfg(1.35)
        proj = SpaceProjector(cfg_prev, cfg_curr)
        vec = np.where(
            _half_plane_cfg(1.1).node_role != NodeRole.INACTIVE, _linear(GRID), 0.0
        )
        once = proj.apply(vec)
        twice = proj.apply(once)
        assert np.allclose(once, twice, atol=1e-14)
