"""Checks on the package source itself."""

import ast
import importlib
import re
import sys
from collections import Counter
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


def test_no_function_calls_itself_outside_the_oracle():
    # Recursion depth grows with the input; only the oracle's partition
    # search, capped at 16 edges, may recurse.
    found = []
    for path in SOURCES:
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            found += [
                f"{path.name}:{call.lineno} {node.name}"
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == node.name
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


def _named(tree: ast.AST) -> list[str]:
    """Every name the code reads or writes, as a Name or an Attribute."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def _readme_library() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_public_name_has_a_use():
    # A public def or class of the package is kept only when package code
    # other than __init__'s re-exports names it, the benchmark's tracer
    # wraps it, or README's Library section offers it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = Counter(name for module, tree in trees.items() if module != "__init__.py" for name in _named(tree))
    layers = {(f"{module}.py", name) for module, name in _tracer_layers()}
    library = _readme_library()
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        # Names inside the definition itself (a recursive call) are no use.
        and uses[node.name] <= _named(node).count(node.name)
        and (module, node.name) not in layers
        and not re.search(rf"\b{node.name}\b", library)
    ]
    assert unused == []


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _readme_library(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "GuptaBound(delta=3, codensity=Fraction(3, 1), k=2)"
    assert f"# {printed[0]}" in code


def _covdex_imports(path: Path) -> set[str]:
    """The covdex modules a file imports from, relative imports resolved
    against the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                modules = [node.module] if node.module else [a.name for a in node.names]
                found.update(f"covdex.{module}" for module in modules)
            else:
                found.add(node.module)
    return {name for name in found if name.split(".")[0] == "covdex"}


def test_the_references_share_no_code_with_the_pipeline():
    # The oracle and the tests' references are evidence only while they
    # get their answers on their own: from covdex they take the graph
    # value types and the errors, nothing else.
    for path in (ROOT / "src" / "covdex" / "oracle.py", ROOT / "tests" / "reference.py"):
        assert _covdex_imports(path) <= {"covdex.multigraph", "covdex.errors"}, path.name


def test_block_path_never_solves_for_a_coloring():
    # The recoloring and the lift start from the coloring certified at
    # chi-prime, so only decompose's certify step and the CLI's "color"
    # command name find_coloring in code (the package __init__ re-exports
    # it by import, which is not a use).
    users = {
        path.name
        for path in SOURCES
        if "find_coloring" in _named(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert users == {"decomposer.py", "cli.py"}


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
