"""Checks in the package must be explicit raises, so that they also hold
under ``python -O``, which strips ``assert`` statements."""

import ast
from pathlib import Path

import freequandle

PACKAGE_DIR = Path(freequandle.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under -O: {found}"
