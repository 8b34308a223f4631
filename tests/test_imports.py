"""Every import in the package is used.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module or be listed
in its ``__all__``.  Re-exports marked ``# noqa: F401`` are exempt.
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
