"""Checks on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import covdex.decomposer
import covdex.density

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "covdex").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 9


def test_no_assert_statements():
    # Invariants must hold under ``python -O``, which strips assert
    # statements; the package raises StageAssertionFailed instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_the_package_or_the_standard_library():
    # ``dependencies = []`` in pyproject.toml: the package runs on a bare
    # interpreter, so every import is covdex itself or the standard library.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"covdex"}
            ]
    assert found == []


def _tracer_layers() -> list[tuple[str, str]]:
    # Read from the source, so the benchmark's tracer is never imported.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_benchmark_tracer_layers_resolve():
    # The traced benchmark run wraps each (module, function) in LAYERS and
    # its self-test patches codensity in decomposer as well as in density.
    layers = _tracer_layers()
    assert layers
    missing = [
        f"covdex.{module}.{name}"
        for module, name in layers
        if not callable(getattr(importlib.import_module(f"covdex.{module}"), name, None))
    ]
    assert missing == []
    assert covdex.decomposer.codensity is covdex.density.codensity


def test_block_path_never_solves_for_a_coloring():
    # The recoloring and the lift start from the coloring certified at
    # chi-prime, so only the solver's own module, decompose's certify step
    # and the CLI's "color" command name find_coloring in code (the package
    # __init__ re-exports it by import, which is not a use).
    users = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "find_coloring")
        or (isinstance(node, ast.Attribute) and node.attr == "find_coloring")
    }
    assert users == {"coloring.py", "decomposer.py", "cli.py"}


def test_block_path_answers_color_questions_from_masks():
    # The recoloring, lift and augment checks read per-vertex color masks
    # built in one pass (coloring.color_masks); the per-query scans stay out
    # of them.
    scans = {"present", "missing", "color_class"}
    found = []
    for name in ("dense_lift.py", "decomposer.py", "special_coloring.py"):
        tree = ast.parse((ROOT / "src" / "covdex" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in scans:
                    found.append(f"{name}:{node.lineno} {called}")
    assert found == []
