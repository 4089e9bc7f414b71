"""The package keeps to what `pyproject.toml` declares: Python 3.10 and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "barriersmc"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10_and_imports_only_declared_dependencies(path):
    tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    imported = set()
    for node in ast.walk(tree):  # imports inside functions too
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("barriersmc" if node.level else node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) <= {"numpy", "barriersmc"}
