"""Every function, method and class in the package has a caller.

A function or class counts as used when its name appears, as a whole word,
on some line of `src/`, `tests/` or `demos/` that does not itself define
that name.  Names re-exported from `lochom/__init__.py` appear on its import
lines, so they count as used.  A method counts as used only where some file
there reads it as an attribute (`.name`), since a method's name often also
occurs as a variable.  Dunder methods are exempt.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "lochom")
SEARCHED = ("src", "tests", "demos")


def _python_files(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions():
    """(module, line, name, is_method) for each definition in the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield name, node.lineno, node.name, id(node) in methods


def test_every_definition_has_a_caller():
    lines = []
    attributes = set()
    for top in SEARCHED:
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            lines.extend(text.splitlines())
            attributes.update(node.attr for node in ast.walk(ast.parse(text))
                              if isinstance(node, ast.Attribute)
                              and isinstance(node.ctx, ast.Load))
    uncalled = []
    for module, lineno, name, is_method in _definitions():
        if is_method:
            used = name in attributes
        else:
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = re.compile(
                rf"^\s*(async\s+def|def|class)\s+{re.escape(name)}\b")
            used = any(word.search(line) and not own.match(line)
                       for line in lines)
        if not used:
            uncalled.append(f"{module}:{lineno} {name}")
    assert not uncalled, "definitions without a caller: " + ", ".join(uncalled)


def test_every_local_is_read():
    # a name a function binds and never reads is work done for nothing
    unread = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read = {}, set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        read.add(node.id)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    read.update(node.names)
            unread.extend(f"{name}:{line} {fn.name}.{var}"
                          for var, line in stored.items()
                          if var != "_" and var not in read)
    assert not unread, "locals bound and never read: " + ", ".join(unread)
