"""Every Poset is built by one constructor core, so covers, up and down
masks are derived in exactly one place, and merges are replayed in one
place, `reduction`."""

import ast
import pathlib

import esakiakit

SRC = pathlib.Path(esakiakit.__file__).parent


def instantiating_functions(path, cls_name):
    """Qualified names of the functions that call `cls_name(...)`, or
    `cls(...)` inside class `cls_name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, scope, in_cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name == cls_name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                visit(child, scope + [name], in_cls)
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                    if child.func.id == cls_name or (in_cls and child.func.id == "cls"):
                        found.append(".".join(scope))
                visit(child, scope, in_cls)

    visit(tree, [path.stem], False)
    return found


def test_poset_is_instantiated_only_in_the_core_constructor():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [name for path in modules
             for name in instantiating_functions(path, "Poset")]
    assert found == ["poset.Poset._from_above"]


def test_merges_are_replayed_only_in_reduction():
    """Outside `reduction`, only the strictness check asks a fresh replay
    for its least move: `lemma` replays schedules and their lifts only
    through `compose_steps`."""
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in instantiating_functions(path, "_Replay")]
    assert any(name.startswith("reduction.") for name in found)
    assert [name for name in found if not name.startswith("reduction.")] == \
        ["coloring.monochrome_mergeable_pair"]


def attribute_readers(path, attr):
    """Qualified names of the functions that read the attribute `attr`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Attribute) and child.attr == attr:
                    found.append(".".join(scope))
                visit(child, scope)

    visit(tree, [path.stem])
    return found


def test_induced_has_one_library_reader():
    """Width reads the up masks, so only `principal_upset` still builds an
    induced subposet."""
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in attribute_readers(path, "induced")]
    assert found == ["poset.Poset.principal_upset"]


def test_reduction_has_one_quotient_builder():
    """The merge replay builds no poset of its own, so in `reduction` only
    the quotient builder behind `quotient`, the partition's cached
    `_quotient`, calls a poset constructor."""
    path = SRC / "reduction.py"
    assert attribute_readers(path, "from_leq") == ["reduction.EPartition._quotient"]
    assert attribute_readers(path, "from_covers") == []
