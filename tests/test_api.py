"""Public API hygiene: every exported name resolves, and every name a
submodule exports but the package does not re-export, every function,
method and property defined in the package, and every field of the
parameter classes, has a caller in the program itself (package, demos or
benchmark), not only in the tests."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import cutfsi

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "demos", "perfbench")


def _submodules():
    for info in pkgutil.iter_modules(cutfsi.__path__):
        module = importlib.import_module(f"cutfsi.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def _used_names(tree: ast.AST) -> set[str]:
    """Names loaded or accessed as attributes, skipping references that sit
    inside the function or class that defines the same name."""
    used: set[str] = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_every_exported_name_resolves():
    for name in cutfsi.__all__:
        assert hasattr(cutfsi, name), f"cutfsi.__all__ lists missing {name!r}"
    for module in _submodules():
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists missing {name!r}"
            )


def _program_trees():
    for folder in PROGRAM_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text(), filename=str(path))


def _program_names() -> set[str]:
    used: set[str] = set()
    for tree in _program_trees():
        used |= _used_names(tree)
    return used


def test_every_submodule_export_has_a_program_caller():
    used = _program_names()
    package = set(cutfsi.__all__)
    uncalled = sorted(
        f"{module.__name__}.{name}"
        for module in _submodules()
        for name in module.__all__
        if name not in package and name not in used
    )
    assert uncalled == []


def _registers_suite(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_suite"
        for d in node.decorator_list
    )


def test_every_definition_has_a_program_caller():
    # A package re-export or an `__all__` string is not a caller; the
    # verification suites are called through the registry their decorator fills.
    used = _program_names()
    uncalled = []
    for path in sorted((ROOT / "src" / "cutfsi").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not (dunder or _registers_suite(node) or node.name in used):
                uncalled.append(f"{path.name}: {node.name}")
    assert uncalled == []


def test_no_module_imports_a_private_name_of_another():
    # a name one module needs from another is part of that module's API
    private = []
    for path in sorted((ROOT / "src" / "cutfsi").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "cutfsi":
                continue
            private += [
                f"{path.name}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []


def test_every_parameter_field_is_set_by_the_program():
    # a field that no call of its class sets has one value in use and
    # belongs in the code as a constant; `replace` calls count for every
    # class
    classes = (
        cutfsi.DriverConfig, cutfsi.FluidParams, cutfsi.NitscheParams, cutfsi.VelocityDirichlet,
        cutfsi.FluidProblem, cutfsi.SolidProblem,
    )
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in classes}
    set_fields = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            owners = list(fields) if name == "replace" else [name] if name in fields else []
            for owner in owners:
                set_fields |= {(owner, k.arg) for k in node.keywords}
                if name == owner and not any(isinstance(a, ast.Starred) for a in node.args):
                    set_fields |= {(owner, f) for f in fields[owner][: len(node.args)]}
    # a case file sets each DriverConfig field that its [solver] keys are
    # derived from; `build_driver_config` passes them as one mapping
    set_fields |= {("DriverConfig", key) for key in cutfsi.config._DRIVER_KEYS}
    unset = sorted(
        f"{cls}.{f}" for cls, names in fields.items() for f in names if (cls, f) not in set_fields
    )
    assert unset == []
