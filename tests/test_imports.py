"""Import hygiene: every name a `rumourstance` module imports is used there,
listed in its `__all__`, or marked `# noqa: F401` on its line."""
from __future__ import annotations

import ast
from pathlib import Path

import rumourstance

PACKAGE = Path(rumourstance.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {lineno})" for name, lineno in imported.items()
                  if name not in used)


def test_every_import_is_used():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    unused = {str(path.relative_to(PACKAGE)): names for path in sources
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_is_found():
    source = ("from os import path, sep  # noqa: F401\n"
              "import json\nfrom sys import argv, exit\n"
              "__all__ = ['argv']\n")
    assert unused_imports(source) == ["exit (line 3)", "json (line 2)"]
