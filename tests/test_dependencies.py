"""furstlab depends on numpy alone: every module it ships imports only from
the standard library, numpy or furstlab itself."""

import ast
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "furstlab"
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "furstlab"}


def imported_roots(path: Path) -> set:
    """Top-level names of the modules a file imports; relative imports are
    the package itself."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("furstlab" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(_PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(_PACKAGE).as_posix())
def test_imports_only_stdlib_numpy_or_furstlab(path):
    assert imported_roots(path) - _ALLOWED == set()


def test_every_module_is_checked():
    assert {p.name for p in _PACKAGE.rglob("*.py")} >= {"__init__.py", "cli.py", "maximal.py"}
