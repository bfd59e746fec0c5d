"""The package imports only the standard library and its declared runtime dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import paretorecords

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(paretorecords.__file__).resolve().parent


def runtime_dependencies() -> set[str]:
    """Import names of ``[project].dependencies`` in pyproject.toml."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project.get("dependencies", []))
    return {name.lower().replace("-", "_") for name in names}


def absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in a file, lazy ones included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_needs_numpy_alone():
    assert runtime_dependencies() == {"numpy"}


def test_every_import_is_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | runtime_dependencies() | {PACKAGE.name}
    stray = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in absolute_imports(path)
        if module not in allowed
    ]
    assert stray == []
