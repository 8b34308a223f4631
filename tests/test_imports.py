"""Every import and every private module-level name in the package is used,
and no module loads scipy when it is imported.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module or be listed
in its ``__all__``.  Re-exports marked ``# noqa: F401`` are exempt.  Every
name in a module's ``__all__`` is bound in that module and listed once.  A
private name (``_name``) bound at module level by a function, a class or an
assignment must be read somewhere in the package: as a name, an attribute
or an import.  scipy may only be imported inside the functions that call it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import polykin

PACKAGE = Path(polykin.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(PACKAGE))] = names
    assert found == {}


def all_list_faults(source: str) -> list[str]:
    """Names in the module's ``__all__`` that it lists more than once or
    does not bind at module level (by a definition, an assignment or an
    import outside any function or class body)."""
    tree = ast.parse(source)
    bound: set[str] = set()
    listed: list[str] = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                listed = list(ast.literal_eval(node.value))
        stack.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
    twice = sorted({name for name in listed if listed.count(name) > 1})
    return ([f"{name} (listed twice)" for name in twice]
            + [f"{name} (not bound)" for name in listed if name not in bound])


def test_all_lists_name_bound_names_once():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        faults = all_list_faults(path.read_text(encoding="utf-8"))
        if faults:
            found[str(path.relative_to(PACKAGE))] = faults
    assert found == {}


def test_all_list_faults_catch_stale_and_repeated_names():
    source = ("import a.b\nfrom c import d as e\nx: int = 1\n"
              "if True:\n    y = 2\nclass K:\n    z = 3\n"
              "def f():\n    w = 4\n"
              "__all__ = ['a', 'e', 'x', 'y', 'K', 'f', 'z', 'w', 'e']\n")
    assert all_list_faults(source) == ["e (listed twice)", "z (not bound)", "w (not bound)"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _names_read(tree: ast.Module) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_package_reads_every_private_name():
    trees = {
        str(path.relative_to(PACKAGE)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    found = {}
    for module, tree in trees.items():
        names = [f"{name} (line {line})"
                 for name, line in _private_definitions(tree).items() if name not in read]
        if names:
            found[module] = names
    assert found == {}


def import_time_modules(tree: ast.AST, package: str | None = None,
                        bodies: bool = False) -> list[str]:
    """Absolute modules the statements run at import time import: every
    import outside a function body.  With ``bodies`` the imports in function
    bodies count too, and with ``package``, the dotted name of the package
    the module sits in, relative imports count, resolved against it."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if not bodies and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.append(node.module)
            elif package is not None:
                base = package.rsplit(".", node.level - 1)[0]
                found += ([f"{base}.{node.module}"] if node.module
                          else [f"{base}.{alias.name}" for alias in node.names])
        found += import_time_modules(node, package, bodies)
    return found


def test_import_time_modules_skip_function_bodies():
    tree = ast.parse("import a.b\nfrom c import d\nfrom . import e\n"
                     "class K:\n    import f\n"
                     "def g():\n    import h\n    from i import j\n"
                     "k = lambda: __import__('l')\n")
    assert import_time_modules(tree) == ["a.b", "c", "f"]


def test_relative_imports_resolve_and_bodies_count_on_request():
    tree = ast.parse("from . import a\nfrom ..b import c\ndef f():\n    from .d import e\n")
    assert import_time_modules(tree, "p.q") == ["p.q.a", "p.b"]
    assert import_time_modules(tree, "p.q", bodies=True) == ["p.q.a", "p.b", "p.q.d"]


# The package's layers, lowest first: a module imports only from lower
# layers.  relax and operator share one, so neither imports the other, and
# the model layer leaves every hypothesis (H4 included) to hypotheses.
LAYERS = {"model": 0, "collide": 1, "equilib": 2, "relax": 3, "operator": 3,
          "hypotheses": 4, "fitlab": 5, "cli": 6}


def package_imports() -> set[tuple[str, str]]:
    """(importing, imported) layer names of every import between two parts
    of the package, function bodies included; the package's own
    ``__init__`` (the public names) and the schema data are left out."""
    edges = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] in ("__init__.py", "schemas"):
            continue
        unit = rel.parts[0].removesuffix(".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in import_time_modules(tree, ".".join(("polykin", *rel.parts[:-1])), bodies=True):
            parts = name.split(".")
            if parts[0] == "polykin" and parts[1:2] != [unit]:
                edges.add((unit, ".".join(parts[1:2]) or "polykin"))
    return edges


def test_modules_import_only_lower_layers():
    edges = package_imports()
    # one import the walk must see inside a function body
    assert ("cli", "hypotheses") in edges
    assert {unit for edge in edges for unit in edge} <= set(LAYERS)
    assert sorted(e for e in edges if LAYERS[e[1]] >= LAYERS[e[0]]) == []


def test_no_module_imports_scipy_at_import_time():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = [name for name in import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
                 if name == "scipy" or name.startswith("scipy.")]
        if names:
            found[str(path.relative_to(PACKAGE))] = names
    assert found == {}
