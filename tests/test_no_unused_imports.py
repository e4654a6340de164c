"""Every name a library module imports is read there, and the package
exports exactly the names it imports."""

import ast
import pathlib

import esakiakit

SRC = pathlib.Path(esakiakit.__file__).parent


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; `__future__` features
    are not names."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_library_modules_read_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{path.name}:{line} {name}"
                      for name, line in imported_names(tree).items()
                      if name not in read)
    assert unused == []


def test_all_lists_each_import_once():
    path = SRC / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exported = esakiakit.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == set(imported_names(tree))
