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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rng.py"], ids=lambda p: p.name)
def test_streams_come_from_rng_only(path):
    # every generator is keyed through mialab.rng, so one derivation serves the package
    names = {"default_rng", "SeedSequence", "PCG64"}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] in names)]
    assert not found, f"stream constructors outside rng.py at {found}"
