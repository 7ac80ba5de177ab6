"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "covdex").glob("*.py"))


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
