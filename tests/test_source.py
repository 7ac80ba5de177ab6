"""Checks on the package source itself."""

import ast
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
