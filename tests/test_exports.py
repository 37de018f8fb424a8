"""The package's export list, its import boundary, which modules may call
the oracles, and the oldest Python grammar every source file keeps to."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctstl

SRC = Path(ctstl.__file__).resolve().parent
ROOT = SRC.parents[1]
ORACLES = {"satisfies", "robustness"}


def test_every_export_resolves_once():
    names = ctstl.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(ctstl, n)]
    assert not missing


def _fresh(code: str):
    """Run code in a new interpreter; return what it prints, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_leaves_the_online_and_generator_modules_out():
    # a batch child pays only for the modules eval and rob use
    loaded = _fresh(
        "import json, sys, ctstl.cli\n"
        "print(json.dumps([m for m in ('ctstl.monitor', 'ctstl.generators')"
        " if m in sys.modules]))\n")
    assert loaded == []


def test_monitor_run_leaves_the_oracle_out():
    # a monitor child neither compiles nor loads the recursive oracle
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from ctstl.cli import main\n"
        "sys.stdin = io.StringIO('x\\n1\\n-1\\n')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['monitor', '--formula', 'G[0,3] (x > 0)', '-'])\n"
        "print(json.dumps([code, 'ctstl.monitor' in sys.modules,\n"
        "                  'ctstl.oracle' in sys.modules]))\n")
    assert loaded == [1, True, False]


def test_cli_runs_build_no_dataclass():
    # every record class is written out, so a child compiles none of the
    # methods ``dataclasses`` generates
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from ctstl.cli import main\n"
        "codes = []\n"
        "for argv in (['monitor', '--formula', 'G[0,3] C[0,2]^1 (x > 0)', '-'],\n"
        "             ['eval', '--formula', 'F[0,2] (x > 0)', '-']):\n"
        "    sys.stdin = io.StringIO('x\\n1\\n-1\\n2\\n3\\n1\\n2\\n')\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, 'dataclasses' in sys.modules]))\n")
    assert loaded == [[0, 0], False]


def test_star_import_and_dir_list_every_export():
    missing = _fresh(
        "import json\n"
        "from ctstl import *\n"
        "import ctstl\n"
        "names = dict(globals())\n"
        "print(json.dumps([[n for n in ctstl.__all__ if n not in names],\n"
        "                  sorted(set(ctstl.__all__) - set(dir(ctstl)))]))\n")
    assert missing == [[], []]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        ctstl.no_such_export
    assert not hasattr(ctstl, "monitor_state")


def test_one_rank_engine_and_no_backend_switch():
    # sliding rank has one numpy implementation; ``_accel`` is only the
    # benchmark harness's environment stamp
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # ``from . import _accel`` names the module as an alias
                mods = [node.module or "", *(a.name for a in node.names)]
            else:
                continue
            found += [(path.name, node.lineno, m) for m in mods
                      if {"numba", "_accel"} & set(m.split("."))]
    assert not found
    assert "backend" not in inspect.signature(
        ctstl.sliding_kth_batch).parameters


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


def test_every_source_file_parses_at_the_python_floor():
    # the package declares Python 3.10 as its floor, where newer syntax
    # (except*, PEP 695 generics) is a SyntaxError, whichever Python runs
    # this test
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    paths = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
