"""Validation must raise named errors: `python -O` strips assert statements."""

import ast
import pathlib

import esakiakit

SRC = pathlib.Path(esakiakit.__file__).parent


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
