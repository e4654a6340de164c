"""No code in the library that only tests call, unless it is kept on
purpose.

A function, class or method defined in `src/esakiakit` must be read
somewhere in the library or in `perfbench/`, outside its own body, or be
listed in KEPT with the reason it stays. A module-level definition is read
by its name or as an attribute (`ek.corollary_check` in `perfbench/`); a
method only as an attribute (`self.merge`, `p.covers_up`), or as a
string of `POSET_METHODS` in `perfbench/spans.py`, the `Poset` methods it
wraps by name. Its other strings, such as the `UNWRAPPED` names it leaves
unwrapped, are not reads. Dunder methods are called by the language and
are not checked. The check goes by name, so a method that shares its name
with an attribute read elsewhere counts as read: the CLI's read of
`Poset.to_json_dict` would hide a `to_json_dict` on any other class. A
method whose name is shared therefore needs a look by hand, to see that
something outside the tests calls it on its own class."""

import ast
import pathlib

import esakiakit

SRC = pathlib.Path(esakiakit.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SPANS = "spans.py"

# module:qualified name -> why it stays, though only tests call it
KEPT = {
    "algebra.py:is_si":
        "a paper object: subdirectly irreducible upset algebras",
    "algebra.py:generated_subalgebra":
        "a paper object: the subalgebra generated by a set of upsets",
    "coloring.py:Coloring.bits":
        "a core primitive: one element's color as a bit string",
    "coloring.py:color_leq":
        "a paper object: the color lattice's order",
    "coloring.py:promote_subspace_coloring":
        "a paper claim: a coloring restricted to a principal upset",
    "lemma.py:full_levels":
        "a paper object: the levels of a ladder subspace holding every column",
    "lemma.py:corollary_certificate":
        "a paper claim: the transported merge certificate",
    "reduction.py:EPartition.from_blocks":
        "a core primitive: a checked partition from explicit blocks",
    "reduction.py:alpha_mergeable":
        "a paper object: the alpha move, as a predicate on one pair",
    "reduction.py:beta_mergeable":
        "a paper object: the beta move, as a predicate on one pair",
    "reduction.py:decompose_pmorphism":
        "a paper claim: every p-morphism factors into alpha/beta merges",
    "spaces.py:TripleTable.assigned":
        "a paper object: the triple attached to a truncation level",
    "spaces.py:triple_table":
        "builds the table whose `assigned` is kept; its only constructor",
    "spaces.py:verify_downset_claim":
        "a paper claim about the down sets of the truncations",
}


def definitions(tree: ast.Module, module: str) -> list[tuple[str, ast.AST, bool]]:
    """(module:qualified name, node, is a method) for every function and
    class, nested ones included; dunder methods are left out."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((f"{module}:{prefix}{name}", child,
                                  isinstance(node, ast.ClassDef)))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def reads(tree: ast.Module, spans: bool) -> list[tuple[str, ast.AST, bool]]:
    """(name, node, read as an attribute) for every name read; in
    `spans.py`, the strings assigned to `POSET_METHODS` count as attribute
    reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, node, False))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.append((node.attr, node, True))
        elif spans and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "POSET_METHODS"
                for t in node.targets):
            out.extend((c.value, c, True) for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return out


def unread(trees: dict[str, ast.Module], library: set[str]) -> list[str]:
    """Definitions in the `library` modules that no module in `trees` reads
    outside the definition's own body."""
    seen = [r for module, tree in trees.items() for r in reads(tree, module == SPANS)]
    out = []
    for module in sorted(library):
        for qualified, node, method in definitions(trees[module], module):
            name = node.name
            inside = {id(n) for n in ast.walk(node)}
            if not any(r == name and id(n) not in inside and (attr or not method)
                       for r, n, attr in seen):
                out.append(qualified)
    return out


def parse(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
            for path in paths}


def test_library_code_is_read_outside_the_tests():
    library = parse(sorted(SRC.glob("*.py")))
    bench = parse(sorted(BENCH.glob("*.py")))
    assert library and SPANS in bench
    assert not set(library) & set(bench)
    found = unread({**library, **bench}, set(library))
    assert sorted(set(found) - set(KEPT)) == []
    assert sorted(set(KEPT) - set(found)) == []      # no stale entry
    assert all(KEPT.values())


def test_the_detector_reads_methods_only_as_attributes():
    trees = {
        "m.py": ast.parse("""
def used(x):
    return x

def only_itself(n):
    return only_itself(n - 1)

class Box:
    def width(self):
        return 1

    def height(self):
        return self.width()

    def depth(self):
        return 0

def reader(depth):
    return used(Box(), depth)
"""),
        "b.py": ast.parse("import m\nm.reader(0)\n"),
        SPANS: ast.parse("POSET_METHODS = ('height',)\n"
                         "UNWRAPPED = {'m': {'depth', 'only_itself'}}\n"),
    }
    assert unread(trees, {"m.py"}) == ["m.py:only_itself", "m.py:Box.depth"]
