"""Every function and class in src/troplex has a caller in the program.

A name counts as used when it appears as a name or an attribute anywhere
in src/troplex or perfbench/ (a definition or an import alone does not
count).  The tests are no caller: a helper that only a test reaches
belongs in that test.
"""

import ast
from pathlib import Path

import troplex

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "troplex"
READERS = [SOURCE, ROOT / "perfbench"]

# public conveniences kept on purpose, as "name" or "Class.method"
KEPT = {
    "bundled_path",
    "free_reduce",
    "lmat_identity",
    "lmat_mul",
    "LaurentPoly.var",
    "LaurentPoly.num_terms",
    "LaurentPoly.map_coefficients",
    "SphereArcSet.intersection",
    "TropicalComplex.vertices",
}


def _definitions(tree, owner=""):
    """(qualified name, bare name) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{owner}.{node.name}" if owner else node.name
            yield qual, node.name
            yield from _definitions(node, qual if isinstance(node, ast.ClassDef) else owner)
        else:
            yield from _definitions(node, owner)


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_has_a_caller():
    used = set()
    for folder in READERS:
        for path in folder.rglob("*.py"):
            used.update(_references(_parse(path)))
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        for qual, name in _definitions(_parse(path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in troplex.__all__ or qual in KEPT or name in used:
                continue
            unused.append(f"{path.relative_to(SOURCE)}: {qual}")
    assert not unused, "no caller in src/troplex or perfbench/:\n" + "\n".join(unused)
