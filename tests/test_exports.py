"""The package's export list, and which modules may call the oracles."""

import ast
from pathlib import Path

import ctstl

SRC = Path(ctstl.__file__).resolve().parent
ORACLES = {"satisfies", "robustness"}


def test_every_export_resolves_once():
    names = ctstl.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(ctstl, n)]
    assert not missing


def test_recursive_oracles_have_no_caller_outside_semantics():
    # every offline answer comes from the sweep; the package root only
    # re-exports the oracles for tests and library users
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "semantics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                if path.name == "__init__.py" and node.module == "semantics":
                    continue
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, node.lineno, n)
                      for n in names if n in ORACLES]
    assert not found
