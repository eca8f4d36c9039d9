"""Every function and class in src/troplex has a caller in the program,
every parameter with a default has a caller that sets it, and every
field that a method sets is read.

A name counts as used when it appears as a name or an attribute anywhere
in src/troplex or perfbench/ (a definition or an import alone does not
count).  The tests are no caller: a helper or an option that only a test
reaches belongs in that test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "troplex"
READERS = [SOURCE, ROOT / "perfbench"]

# public conveniences kept on purpose, as "name" or "Class.method"; a
# name in troplex.__all__ needs a caller or an entry here like any other
KEPT = {
    "bundled_path",
    "LaurentPoly.var",
    "SphereArcSet.intersection",
    "cell_weight",  # the multiplicities that the README promises
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
            if qual in KEPT or name in used:
                continue
            unused.append(f"{path.relative_to(SOURCE)}: {qual}")
    assert not unused, "no caller in src/troplex or perfbench/:\n" + "\n".join(unused)


# defaulted parameters kept on purpose, as "qualified_name(parameter)"
KEPT_OPTIONS = {
    "LaurentPoly.var(power)",
}


def _options(tree):
    """The defaulted parameters and the calls of one module.

    Parameters: {"qualified_name(parameter)": (callee, parameter,
    position)}, where a method's first parameter takes no position,
    __init__ is called by its class name and a keyword-only parameter has
    position None.  Calls:
    (callee, positional values, {keyword: value}, starred), a value being
    the key of the enclosing function's defaulted parameter that it passes
    on, else None; cls(...) inside a class calls that class.
    """
    options, calls = {}, []

    def passed(value, scope):
        return scope.get(value.id) if isinstance(value, ast.Name) else None

    def visit(node, owner, klass, scope):
        for child in ast.iter_child_nodes(node):
            args = (owner, klass, scope)
            if isinstance(child, ast.ClassDef):
                args = (child.name, child.name, scope)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(getattr(d, "id", "") == "staticmethod" for d in child.decorator_list)
                if owner and not static:
                    positional = positional[1:]
                qual = f"{owner}.{child.name}" if owner else child.name
                callee = owner if child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                params = [(p, k) for k, p in enumerate(positional) if k >= first]
                params += [(p, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None]
                inner = {p.arg: f"{qual}({p.arg})" for p, _ in params}
                options.update({inner[p.arg]: (callee, p.arg, k) for p, k in params})
                args = ("", klass, inner)
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "cls" and klass:
                    name = klass
                calls.append((
                    name,
                    [passed(v, scope) for v in child.args],
                    {k.arg: passed(k.value, scope) for k in child.keywords},
                    any(isinstance(v, ast.Starred) for v in child.args)
                    or any(k.arg is None for k in child.keywords),
                ))
            visit(child, *args)

    visit(tree, "", "", {})
    return options, calls


def test_every_option_is_set_by_a_caller():
    """A parameter with a default is set by some call in src/troplex or
    perfbench/: by keyword, or positionally with enough arguments, or by a
    *args/**kwargs call.  Passing on a parameter that nothing sets does not
    count, so an option threaded through layers is caught at every layer."""
    options, calls = {}, []
    for folder in READERS:
        for path in folder.rglob("*.py"):
            found, called = _options(_parse(path))
            calls.extend(called)
            if folder == SOURCE:
                options.update(found)
    unset = set(options) - KEPT_OPTIONS
    changed = True
    while changed:
        changed = False
        for key in sorted(unset):
            callee, param, position = options[key]
            for name, values, keywords, starred in calls:
                if name != callee:
                    continue
                if param in keywords:
                    given = [keywords[param]]
                elif position is not None:
                    given = values[position:position + 1]
                else:
                    given = []
                if starred or any(v not in unset for v in given):
                    unset.discard(key)
                    changed = True
                    break
    assert not unset, "no call in src/troplex or perfbench/ sets:\n" + "\n".join(sorted(unset))


def _fields(tree):
    """Names assigned as self.<name> = ... anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self":
                    yield t.attr


def _reads(tree):
    """Attribute names loaded, as x.<name> or getattr(x, "<name>", ...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_field_is_read():
    """A self.<name> = ... in src/troplex is read somewhere in src/troplex
    or perfbench/; a field that nothing reads is dead state."""
    read = set()
    for folder in READERS:
        for path in folder.rglob("*.py"):
            read.update(_reads(_parse(path)))
    unread = sorted(
        f"{path.relative_to(SOURCE)}: {name}"
        for path in SOURCE.rglob("*.py")
        for name in set(_fields(_parse(path))) - read
    )
    assert not unread, "fields nothing reads:\n" + "\n".join(unread)
