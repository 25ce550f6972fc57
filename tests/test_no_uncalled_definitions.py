"""Every function, method, class and module-level name in the package has
a caller in the program: in `src/` (apart from the import lines of
`lochom/__init__.py`, whose exports are strings too) or in `demos/`.
Tests, comments, docstrings and string literals are not callers, so code
and data that only tests reach cannot stay in the package unnoticed.

A function, class or module-level name counts as used where the syntax of
those files reads its name: a name, an attribute `.name` or an import of
it, outside the function's own body (recursion is no caller); assigning to
a name does not read it.  `REFERENCES` lists the definitions kept as
documented references for the tests, each with why.  Dunder names are
exempt.  A class-body assignment `name = property(...)` defines a method
`name`, checked like any other.

A method counts as used only where those files read it as an attribute
(`.name`) of a receiver that can be its class.  The receiver's class is
resolved from the syntax where it can be:
- `self` or `cls` in a method of class C: C, its ancestors or its
  descendants (a base class may call a method its subclasses define);
- a class name K, `K(...)`, or a name the function binds to `K(...)`: K or
  an ancestor;
- `super()` in class C: an ancestor of C.
Any other receiver counts for the method only when every class of the
package defining that name lies in one inheritance family, so that a read
of `L.vertices()` cannot pass for an unrelated class's `vertices`.
`UNRESOLVED` lists the methods whose only readers the syntax cannot place,
each with where it is read.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "lochom")
SEARCHED = ("src", "demos")
INIT = os.path.normpath(os.path.join(PACKAGE, "__init__.py"))

# "module.name" -> why it stays with no caller in the program
REFERENCES = {}

# "Class.method" -> where it is read, on a receiver the syntax cannot place
UNRESOLVED = {
    "SimplicialComplex.contains":
        "localhomology.local_complex: X.contains(simplex), X a parameter",
    "SimplicialComplex.simplices":
        "sheaves.region_simplices: X.simplices(k), X a parameter",
    "Subcomplex.simplices":
        "identities.collapse_vs_cap: L.simplices(l), L a parameter",
    "Matrix.is_zero":
        "homology.maps_agree: (first - second).is_zero(), a difference",
    "LocalHomologySheaf.cycle_coordinates":
        "simplicialmaps._sheaf_transfer_matrix: FY.cycle_coordinates(fs, "
        "pushed), FY a parameter",
    "LocalCohomologyCosheaf.project":
        "mv.project_stalks: G.project(f, ...), G a parameter",
}


def _python_files(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.normpath(os.path.join(dirpath, name))


def _program_tree(path):
    """The syntax tree of a searched file; the package's `__init__` without
    its import lines, since importing a name to re-export it is no call."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    if path == INIT:
        tree.body = [node for node in tree.body
                     if not isinstance(node, (ast.Import, ast.ImportFrom))]
    return tree


def _definitions():
    """(module, line, name, defining class or None) for each definition in
    the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        module_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif (id(node) in module_level
                  and isinstance(node, (ast.Assign, ast.AnnAssign))):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif (id(node) in owner and isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Call)
                  and _name(node.value.func) == "property"):
                # `name = property(...)` in a class body is a method
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            for defined in names:
                if not (defined.startswith("__") and defined.endswith("__")):
                    yield name, node.lineno, defined, owner.get(id(node))


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Hierarchy:
    """Every class defined in the searched files, by name, with its bases
    among them."""

    def __init__(self, trees):
        self.bases = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, set()).update(
                        filter(None, map(_name, node.bases)))
        for names in self.bases.values():
            names.intersection_update(self.bases)

    def ancestors(self, cls):
        out, todo = set(), list(self.bases.get(cls, ()))
        while todo:
            c = todo.pop()
            if c not in out:
                out.add(c)
                todo.extend(self.bases[c])
        return out

    def family(self, cls):
        """cls with its ancestors and descendants."""
        return ({cls} | self.ancestors(cls)
                | {c for c in self.bases if cls in self.ancestors(c)})

    def related(self, classes):
        """Whether the classes lie in one inheritance family (one connected
        piece of the graph of bases)."""
        classes = set(classes)
        seen, todo = set(), [next(iter(classes))]
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                todo.extend(self.bases[c])
                todo.extend(d for d in self.bases if c in self.bases[d])
        return classes <= seen


def _references(tree):
    """Each name the file refers to, as a name, an attribute or an import,
    outside a function of that name."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.name.rpartition(".")[2] if isinstance(node, ast.alias)
                else _name(node))
        stored = isinstance(getattr(node, "ctx", None), ast.Store)
        if name is not None and name not in inside and not stored:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _reads(tree, hierarchy):
    """(attribute, classes its receiver can be, or None) for each attribute
    read in the file."""
    out = []

    def constructed(node):
        # K(...) for a known class K
        if isinstance(node, ast.Call) and _name(node.func) in hierarchy.bases:
            return _name(node.func)
        return None

    def visit(node, cls, bound):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a name bound only to K(...) in the function is a K
            values = {}
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Name)):
                    values.setdefault(sub.targets[0].id, set()).add(
                        constructed(sub.value))
            bound = {**bound, **{var: (kinds.pop() if len(kinds) == 1
                                       else None)
                                 for var, kinds in values.items()}}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            recv = node.value
            if (cls is not None and isinstance(recv, ast.Name)
                    and recv.id in ("self", "cls")):
                classes = hierarchy.family(cls)
            elif (cls is not None and isinstance(recv, ast.Call)
                  and _name(recv.func) == "super"):
                classes = hierarchy.ancestors(cls)
            else:
                klass = (constructed(recv)
                         or (bound.get(recv.id)
                             if isinstance(recv, ast.Name) else None)
                         or (_name(recv) if _name(recv) in hierarchy.bases
                             else None))
                classes = (None if klass is None
                           else {klass} | hierarchy.ancestors(klass))
            out.append((node.attr, classes))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, bound)

    visit(tree, None, {})
    return out


def test_every_definition_has_a_caller():
    trees = [_program_tree(path) for top in SEARCHED
             for path in _python_files(top)]
    hierarchy = _Hierarchy(trees)
    referenced = set().union(*map(_references, trees))
    reads = [read for tree in trees for read in _reads(tree, hierarchy)]
    definitions = list(_definitions())
    definers = {}
    for _, _, name, cls in definitions:
        if cls is not None:
            definers.setdefault(name, set()).add(cls)
    uncalled, unreferenced = [], set()
    for module, lineno, name, cls in definitions:
        if cls is not None:
            one_family = hierarchy.related(definers[name])
            used = (f"{cls}.{name}" in UNRESOLVED
                    or any(attr == name and (cls in classes if classes
                                             is not None else one_family)
                           for attr, classes in reads))
        else:
            used = name in referenced
            if not used:
                unreferenced.add(f"{module[:-3]}.{name}")
                used = f"{module[:-3]}.{name}" in REFERENCES
        if not used:
            uncalled.append(f"{module}:{lineno} {name}")
    assert not uncalled, "definitions without a caller: " + ", ".join(uncalled)
    # each listed reference is still defined, and still has no caller
    assert set(REFERENCES) <= unreferenced
    # each listed method is still read somewhere, on a receiver the syntax
    # cannot place
    unplaced = {attr for attr, classes in reads if classes is None}
    assert {name.split(".")[1] for name in UNRESOLVED} <= unplaced


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
