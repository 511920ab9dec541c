"""Unfitted finite element toolkit for incompressible flow coupled to
hyperelastic solids on a fixed background grid.

The background fluid mesh never deforms: the structure's boundary is
intersected against it each step, the Navier-Stokes unknowns live on the
active cut cells (stabilized residually in the interior and by ghost
penalties across cut-element facets), and the interface conditions are
imposed weakly on both the structure and optional overlapping fluid
patches.  The monolithic driver advances both fields with a nested Newton
iteration that re-cuts and transfers state whenever the moving interface
changes the active space mid-step.
"""

from .config import (
    CaseConfig,
    ConfigError,
    TimeCurve,
    parse_config,
    parse_config_text,
)
from .cutting import (
    CutConfiguration,
    ElemStatus,
    NodeRole,
    build_cut_configuration,
)
from .driver import (
    DriverConfig,
    FluidProblem,
    FsiDriver,
    FsiProblem,
    FsiState,
    NewtonError,
    OverlapSolution,
    SolidProblem,
    StepReport,
    VelocityDirichlet,
    load_checkpoint,
    save_checkpoint,
    solve_overlapping_fluid,
)
from .fluid import FluidParams
from .coupling import NitscheParams
from .meshes import (
    FittedMesh,
    StructuredGrid,
    read_mesh_text,
    rectangle_fitted_mesh,
    write_mesh_text,
)
from .output import (
    DiagnosticsWriter,
    evaluate_fitted_probe,
    evaluate_grid_probe,
    write_fluid_vtk,
    write_snapshot,
    write_solid_vtk,
)
from .projection import ProjectionError, SpaceProjector
from .solid import NeoHookeanMaterial, SolidModel, SolidState
from .verification import CheckResult, SUITE_NAMES, run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "CaseConfig",
    "CheckResult",
    "ConfigError",
    "CutConfiguration",
    "DiagnosticsWriter",
    "DriverConfig",
    "ElemStatus",
    "FittedMesh",
    "FluidParams",
    "FluidProblem",
    "FsiDriver",
    "FsiProblem",
    "FsiState",
    "NeoHookeanMaterial",
    "NewtonError",
    "NitscheParams",
    "NodeRole",
    "OverlapSolution",
    "ProjectionError",
    "SUITE_NAMES",
    "SolidModel",
    "SolidProblem",
    "SolidState",
    "SpaceProjector",
    "StepReport",
    "StructuredGrid",
    "TimeCurve",
    "VelocityDirichlet",
    "build_cut_configuration",
    "evaluate_fitted_probe",
    "evaluate_grid_probe",
    "load_checkpoint",
    "parse_config",
    "parse_config_text",
    "read_mesh_text",
    "rectangle_fitted_mesh",
    "run_suite",
    "run_suites",
    "save_checkpoint",
    "solve_overlapping_fluid",
    "write_fluid_vtk",
    "write_mesh_text",
    "write_snapshot",
    "write_solid_vtk",
    "__version__",
]
