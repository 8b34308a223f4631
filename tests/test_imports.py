"""Every import and every private module-level name in the package is used,
and no module loads scipy when it is imported.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module or be listed
in its ``__all__``.  Re-exports marked ``# noqa: F401`` are exempt.  A
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


def import_time_modules(tree: ast.AST) -> list[str]:
    """Absolute modules the statements run at import time import: every
    import outside a function body."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        found += import_time_modules(node)
    return found


def test_import_time_modules_skip_function_bodies():
    tree = ast.parse("import a.b\nfrom c import d\nfrom . import e\n"
                     "class K:\n    import f\n"
                     "def g():\n    import h\n    from i import j\n"
                     "k = lambda: __import__('l')\n")
    assert import_time_modules(tree) == ["a.b", "c", "f"]


def test_no_module_imports_scipy_at_import_time():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = [name for name in import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
                 if name == "scipy" or name.startswith("scipy.")]
        if names:
            found[str(path.relative_to(PACKAGE))] = names
    assert found == {}
