"""The runtime imports nothing but the standard library and itself, and no
module imports a private name of another."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ontomed").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_and_ontomed(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    tops = {name.split(".")[0] for name in modules}
    assert tops - sys.stdlib_module_names - {"ontomed"} == set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_no_private_name_from_a_sibling(path):
    # An underscore-prefixed name belongs to its own module.
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "ontomed")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
