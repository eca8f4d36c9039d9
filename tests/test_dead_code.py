"""Every function and class in src/troplex has a caller in the program,
every parameter with a default has a caller that sets it, every option
of a CLI subcommand is read by its handler, every field that a method
sets is read, and every imported name is loaded.

A name counts as used when it appears as a name or an attribute anywhere
in src/troplex or perfbench/ (a definition or an import alone does not
count); a def or class in a class body counts only as an attribute
(x.name), so that a local variable of the same name does not hide it.
The tests are no caller: a helper or an option that only a test reaches
belongs in that test.

These checks read names only, and they skip dunders.  A dunder nothing
calls and a branch nothing reaches are the line gate's job
(tests/linegate.py): it fails on every line of src/troplex that the
suite does not run.
"""

import argparse
import ast
from pathlib import Path

from troplex.cli import build_parser

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


def _definitions(tree, owner="", member=False):
    """(qualified name, bare name, member) of every def and class, nested
    ones too, member telling whether a class body holds it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{owner}.{node.name}" if owner else node.name
            yield qual, node.name, member
            klass = isinstance(node, ast.ClassDef)
            yield from _definitions(node, qual if klass else owner, klass)
        else:
            yield from _definitions(node, owner, member)


def _references(tree, names, attributes):
    """Names and attribute names loaded in tree.  An attribute of the name
    args is an argparse option read, not a caller: args.contains does not
    call a method named contains."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) != "args":
            attributes.add(node.attr)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_has_a_caller():
    names, attributes = set(), set()
    for folder in READERS:
        for path in folder.rglob("*.py"):
            _references(_parse(path), names, attributes)
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        for qual, name, member in _definitions(_parse(path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if qual in KEPT or name in attributes or (name in names and not member):
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


def _args_reads(functions, name, param, seen):
    """Attributes read as <param>.<attr> in the function name, and in the
    functions of the same module that it passes <param> to."""
    read = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
            callee = functions[node.func.id]
            names = [a.arg for a in callee.args.posonlyargs + callee.args.args]
            passed = [(names[k], v) for k, v in enumerate(node.args) if k < len(names)]
            passed += [(k.arg, k.value) for k in node.keywords]
            for target, value in passed:
                if getattr(value, "id", None) == param and (callee.name, target) not in seen:
                    seen.add((callee.name, target))
                    read |= _args_reads(functions, callee.name, target, seen)
    return read


def test_every_cli_option_is_read():
    """Every option that a subparser of cli.build_parser defines is read as
    args.<dest> by the handler that its set_defaults(fn=...) names, or by a
    function of cli.py that gets args from it (such as _job_rep_phi); an
    option that nothing reads is accepted and then ignored."""
    tree = _parse(SOURCE / "cli.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, sub in commands.choices.items():
        handler = sub.get_default("fn").__name__
        param = functions[handler].args.args[0].arg
        read = _args_reads(functions, handler, param, set())
        unread += [f"{command} {a.option_strings or [a.dest]} -> {handler}"
                   for a in sub._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    assert not unread, "options no handler reads:\n" + "\n".join(unread)


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
    """Attribute names loaded, as x.<name> or getattr(x, "<name>", ...),
    outside __repr__: a field that only its own repr shows is unread."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__repr__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value
        yield from _reads(node)


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


def _unused_imports(tree):
    """Names the module imports but never loads.  from __future__ binds
    no name, and the strings of a module's __all__ count as loads: they
    are the package's re-exports."""
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            loaded.update(e.value for e in node.value.elts)
    return imported - loaded


def test_every_import_is_loaded():
    unused = sorted(
        f"{path.relative_to(SOURCE)}: {name}"
        for path in SOURCE.rglob("*.py")
        for name in _unused_imports(_parse(path))
    )
    assert not unused, "imported and never loaded:\n" + "\n".join(unused)
