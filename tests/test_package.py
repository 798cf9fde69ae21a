"""The package namespace and the source tree as a whole.

heisenmod's namespace loads lazily: every public name resolves, on first
use, to the object its owning submodule defines.  Self-checks must keep
running under python -O, so the source holds no assert statement.  numpy
is a test and benchmark dependency only: the library never imports it.
Nor does it import dataclasses, whose import (with inspect) would add to
every CLI process's start-up.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisenmod

SRC = Path(__file__).resolve().parent.parent / "src" / "heisenmod"


def test_every_public_name_is_its_owners_object():
    owners = {
        name: module
        for module, names in heisenmod._EXPORTS.items()
        for name in names
    }
    assert set(heisenmod.__all__) == {*owners, "__version__"}
    for name, module in owners.items():
        owner = importlib.import_module(f"heisenmod.{module}")
        assert getattr(heisenmod, name) is getattr(owner, name), name
        # resolved once, then a plain attribute of the package
        assert vars(heisenmod)[name] is getattr(owner, name), name


def test_dir_lists_every_public_name():
    assert set(heisenmod.__all__) <= set(dir(heisenmod))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heisenmod.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    namespace = {}
    exec("from heisenmod import *", namespace)
    for name in heisenmod.__all__:
        assert namespace[name] is getattr(heisenmod, name), name


def test_submodules_are_reachable_as_attributes():
    for module in heisenmod._EXPORTS:
        assert getattr(heisenmod, module) is importlib.import_module(
            f"heisenmod.{module}"
        )


def test_source_has_no_assert_statements():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_source_does_not_import_numpy():
    offenders = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "numpy" in _imported_modules(path)
    ]
    assert offenders == []


def test_source_does_not_import_dataclasses():
    offenders = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in _imported_modules(path)
    ]
    assert offenders == []


_LOADED = """
import json, sys
before = set(sys.modules)
__import__(sys.argv[1])
print(json.dumps(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_layers_load_neither_dataclasses_nor_inspect():
    # measured against what this interpreter's start-up already loaded, so
    # a site that preloads either module cannot fail the test
    for module in ("heisenmod.cli", "heisenmod.modules", "heisenmod.suites"):
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED, module],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [], module


_BLOCKED_NUMPY_SEARCH = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from heisenmod import run_suite
report = run_suite("sec3-min-dim", p=[2, 3, 5], n=[1])
print(json.dumps({o.case: [o.ok, o.message] for o in report.outcomes}))
"""


def test_gate_searches_run_with_numpy_blocked():
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_NUMPY_SEARCH],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    assert all(ok for ok, _ in outcomes.values()), outcomes
    assert outcomes["p=2,d=2"][1] == "d=2: witness found after 256 pairs"
    assert outcomes["p=3,d=2"][1] == "d=2: none found over 6561 pairs"
    assert outcomes["p=5,d=2"][1] == "d=2: none found over 390625 pairs"
