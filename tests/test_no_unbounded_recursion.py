"""Every self-recursive function in the library has a known depth bound.

Python stops a call chain at its recursion limit (1,000 frames by
default) with `RecursionError`, a traceback the CLI's exit codes do not
cover. A function that calls itself must therefore recurse no deeper
than a bound that its callers keep small; the bound is written down here.
A search whose depth grows with the input poset keeps its own stack
instead (`coloring._weak_walk`, `poset._canonical_form`,
`poset._max_matching`).

A plain or nested function is self-recursive when it calls its own name;
a method, when it calls an attribute of its own name (`self.imp()`, or
`self.left.variables()` on a subterm)."""

import ast
import pathlib

import esakiakit

SRC = pathlib.Path(esakiakit.__file__).parent

# module:qualified name -> the bound on its recursion depth
BOUNDED = {
    "algebra.py:Term.variables":
        "the term's height; the library builds terms in code or parses "
        "them from constants in code (`probes._WEM`)",
    "algebra.py:evaluate":
        "the term's height, as for `Term.variables`",
    "algebra.py:_Parser.imp":
        "one level per `->` on the text's right spine; the library parses "
        "only constants in code",
    "algebra.py:_Parser.atom":
        "one level per `~` or `(` nesting the text; the library parses only "
        "constants in code",
    "lemma.py:schedule_beta_reductions.run":
        "each call passes strictly fewer surviving color bits, so at most "
        "the coloring's order plus one",
    "poset.py:Poset.upsets.rec":
        "one level per antichain member, so at most the poset's width; "
        "reached through `upset_algebra`, capped at `SIZE_BOUND`, and "
        "through `downsets` in `enumerate_posets`",
    "probes.py:enumerate_posets":
        "n levels; callers cap n (`enumerate_rooted_posets` in `kc_probe` "
        "at `KC_MAX_SIZE` - 1, the suite at 6)",
    "reduction.py:all_epartitions.place":
        "one level per element, at most `ALL_EPARTITIONS_LIMIT`",
}


def self_recursive(tree: ast.Module, module: str) -> list[str]:
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for call in ast.walk(child):
                    f = getattr(call, "func", None)
                    if isinstance(call, ast.Call) and (
                            in_class and isinstance(f, ast.Attribute)
                            and f.attr == child.name
                            or not in_class and isinstance(f, ast.Name)
                            and f.id == child.name):
                        found.append(f"{module}:{name}")
                        break
                visit(child, name + ".", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def library_recursion() -> list[str]:
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += self_recursive(tree, path.name)
    return found


def test_every_self_recursive_function_has_a_depth_bound():
    found = library_recursion()
    assert sorted(set(found) - set(BOUNDED)) == []
    assert sorted(set(BOUNDED) - set(found)) == []     # no stale entry
    assert all(BOUNDED.values())


def test_the_input_sized_searches_keep_their_own_stacks():
    assert not [name for name in BOUNDED
                if name.startswith(("coloring.py:_weak_walk",
                                    "poset.py:_canonical_form",
                                    "poset.py:_max_matching"))]


def test_the_detector_tells_methods_from_functions():
    tree = ast.parse("""
def walk(n):
    def rec(i):
        return rec(i + 1)
    return rec(0)

class Node:
    def size(self):
        return 1 + sum(c.size() for c in self.kids)

    def kernel(self):
        return kernel(self.base)

def plain(x):
    return x.plain()
""")
    assert self_recursive(tree, "m.py") == ["m.py:walk.rec", "m.py:Node.size"]
