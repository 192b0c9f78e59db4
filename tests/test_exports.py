"""Every public name the package promises resolves to a definition."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import robustpac

MODULES = sorted(info.name for info in pkgutil.iter_modules(robustpac.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"robustpac.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_package_reexport_is_a_public_module_name():
    tree = ast.parse(Path(robustpac.__file__).read_text())
    reexports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert reexports
    for node in reexports:
        module = importlib.import_module(f"robustpac.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(robustpac, alias.asname or alias.name) is getattr(module, alias.name)
