"""Every Poset is built by one constructor core, so covers, up and down
masks are derived in exactly one place; merges are replayed in one
place, `reduction`; data derived from a poset alone is cached in one
place, its memo, by named helpers only; and the package's modules import
one another only at module level, so their import graph is acyclic."""

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
    """No module but `reduction` builds a replay: the strictness check
    calls the move finder on the poset itself, and `lemma` replays
    schedules and their lifts only through `compose_steps`."""
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in instantiating_functions(path, "_Replay")]
    assert any(name.startswith("reduction.") for name in found)
    assert [name for name in found if not name.startswith("reduction.")] == []


def function_imports(source, stem):
    """(qualified function name, imported module) for every import
    statement inside a function of the module `stem` with this source."""
    tree = ast.parse(source, filename=stem)
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + [child.name],
                      in_function or not isinstance(child, ast.ClassDef))
                continue
            name = ".".join(scope)
            if in_function and isinstance(child, ast.Import):
                found.extend((name, a.name) for a in child.names)
            elif in_function and isinstance(child, ast.ImportFrom):
                found.append((name, "." * child.level + (child.module or "")))
            visit(child, scope, in_function)

    visit(tree, [stem], False)
    return found


def sibling(module):
    """Whether an imported module name is one of the package's own."""
    return module.startswith(".") or module.split(".")[0] == SRC.name


def test_no_function_imports_a_sibling_module():
    """The package's modules import their siblings' names at module top,
    so two modules that imported each other would each ask for names of a
    module still loading. A deferred import inside a function is the way
    round that; with none allowed, the import graph stays acyclic."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [(name, module) for path in modules
             for name, module in function_imports(
                 path.read_text(encoding="utf-8"), path.stem)
             if sibling(module)]
    assert found == []


def test_the_import_detector_sees_nested_functions():
    source = """
import json
from . import errors

def load():
    from .poset import Poset
    import esakiakit.cli
    import random
    return Poset

class Box:
    from .spaces import width_of

    def method(self):
        def inner():
            from .. import x
        return inner
"""
    found = function_imports(source, "m")
    assert found == [("m.load", ".poset"), ("m.load", "esakiakit.cli"),
                     ("m.load", "random"), ("m.Box.method.inner", "..")]
    assert [module for _, module in found if not sibling(module)] == ["random"]


def attribute_readers(path, attr):
    """Qualified names of the functions of a module file that name the
    attribute `attr` (`attribute_users`)."""
    return attribute_users(path.read_text(encoding="utf-8"), path.stem, attr)


def attribute_users(source, stem, attr):
    """Qualified names of the functions, in the module `stem` with this
    source, that name the attribute `attr` of anything, to read, write or
    delete it, one entry per use; module-level uses are named `stem`. Only
    the attribute syntax is seen, not `getattr` with a string."""
    tree = ast.parse(source, filename=stem)
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

    visit(tree, [stem])
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


# The functions that may name a poset's memo slot: the constructor that
# opens it empty, and the helpers that each fill and read one entry.
MEMO_HELPERS = ["lemma._label_rows", "lemma._ladder_rows",
                "poset.Poset.__init__", "poset.Poset.canonical_form",
                "poset._cover_masks", "poset._top_down"]


def test_only_the_memo_helpers_touch_the_poset_memo():
    """Every cached value goes through a helper that computes it fresh on
    a miss, so no caller can store a value of its own, or read an entry
    before it is filled."""
    found = {name for path in sorted(SRC.glob("*.py"))
             for name in attribute_readers(path, "_memo")}
    assert sorted(found) == MEMO_HELPERS


def test_the_memo_detector_sees_reads_writes_and_nesting():
    source = """
class Poset:
    __slots__ = ("_memo",)

    def __init__(self):
        self._memo = {}

    def form(self):
        return self._memo.get("form")

def helper(p):
    def fill():
        p._memo["k"] = 1
    return fill

def drop(p):
    del p._memo

cache = lambda p: p._memo
hidden = getattr(object(), "_memo", None)
"""
    assert attribute_users(source, "m", "_memo") == [
        "m.Poset.__init__", "m.Poset.form", "m.helper.fill", "m.drop", "m"]
