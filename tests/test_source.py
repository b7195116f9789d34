"""Rules about the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mialab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statements(path):
    # module-global state set from functions (such as test hooks) has no place in the package
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements at {found}"
