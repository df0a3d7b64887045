"""hydiag depends on the Python standard library alone (``dependencies = []``
in pyproject.toml): every absolute import in its sources names a standard
library module."""

import ast
import sys

import pytest

from .conftest import SRC

SOURCES = sorted((SRC / "hydiag").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    assert {m.split(".")[0] for m in modules} <= sys.stdlib_module_names
