"""The package namespace and the source tree as a whole.

heisenmod's namespace loads lazily: every public name resolves, on first
use, to the object its owning submodule defines.  Self-checks must keep
running under python -O, so the source holds no assert statement.
"""

import ast
import importlib
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
