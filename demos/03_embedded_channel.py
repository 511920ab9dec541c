"""Poiseuille flow under a rigid wall that cuts the background grid.

The channel's upper wall is a boundary-fitted rigid plate placed at the
irrational height 1/sqrt(2), so it never aligns with the background mesh:
the top row of flow elements is cut at an arbitrary fraction.  The wall
condition is imposed weakly (Nitsche-type coupling with ghost penalties);
the parabolic profile drives the flow from the outer sides.  The discrete
solution reproduces the exact profile to discretization accuracy.

Run:  python demos/03_embedded_channel.py
"""

from pathlib import Path

import numpy as np

from cutfsi import (
    DriverConfig,
    FluidParams,
    FluidProblem,
    FsiDriver,
    FsiProblem,
    NeoHookeanMaterial,
    NitscheParams,
    SolidModel,
    SolidProblem,
    StructuredGrid,
    VelocityDirichlet,
    build_cut_configuration,
    rectangle_fitted_mesh,
)
from cutfsi.output import evaluate_grid_probe, write_fluid_vtk

OUT = Path(__file__).parent / "output" / "03_embedded_channel"

Y_WALL = 1.0 / np.sqrt(2.0)
U_MAX = 1.0


def exact_u(y):
    return 4.0 * U_MAX * y * (Y_WALL - y) / Y_WALL**2


def main():
    n = 32
    grid = StructuredGrid((0.0, 0.0), (1.0 / n, 1.0 / n), (n, n))
    wall = rectangle_fitted_mesh(-0.25, Y_WALL, 1.5, 0.5, 3, 1)
    solid = SolidProblem(
        SolidModel(wall, NeoHookeanMaterial(young=1.0, poisson=0.3), density=1.0),
        rigid=True,
    )

    def profile(pts, t):
        out = np.zeros((len(pts), 2))
        out[:, 0] = exact_u(pts[:, 1])
        return out

    fluid = FluidProblem(
        grid,
        FluidParams(density=1.0, viscosity=1.0),
        dirichlet=[VelocityDirichlet(s, profile) for s in ("left", "right", "bottom")],
        pin_pressure=True,
    )
    problem = FsiProblem(fluid, solid)

    # one enormous pseudo-time step lands on the steady state
    config = DriverConfig(dt=1e8, n_steps=1, nitsche=NitscheParams(gamma=35.0))
    states, reports = FsiDriver(problem, config).run()
    state = states[-1]
    print(f"steady solve: {reports[0].newton[-1].iterations} Newton iterations")

    u_nodal = state.U.reshape(-1, 2)
    samples = [(x, y) for x in np.linspace(0.1, 0.9, 5) for y in np.linspace(0.1, 0.65, 5)]
    worst = max(
        abs(evaluate_grid_probe(grid, u_nodal, p)[0] - exact_u(p[1])) for p in samples
    )
    print(f"max |u - exact| over {len(samples)} interior samples: {worst:.2e}")
    print(f"(wall at y = {Y_WALL:.6f}, grid lines every {1.0 / n:.6f})")

    cfg = build_cut_configuration(
        grid, wall.nodes[solid.loop_nodes], solid.wet_mask
    )
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "channel.vtk"
    write_fluid_vtk(path, cfg, state.U, state.P)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
