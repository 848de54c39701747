import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparsedom

MODULES = sorted(m.name for m in pkgutil.iter_modules(sparsedom.__path__))
EXPORTING = [m for m in MODULES
             if hasattr(importlib.import_module(f"sparsedom.{m}"), "__all__")]


def _package_imports():
    """module -> names that sparsedom/__init__.py imports from it."""
    tree = ast.parse(Path(sparsedom.__file__).read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(a.name for a in node.names)
    return out


def test_every_exporting_module_is_checked():
    assert {"haar", "hardy", "maximal", "sparse", "stopping"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_are_defined(name):
    mod = importlib.import_module(f"sparsedom.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import(name):
    exec(f"from sparsedom.{name} import *", {})  # AttributeError on a stale name


@pytest.mark.parametrize("name", EXPORTING)
def test_package_imports_are_exported(name):
    mod = importlib.import_module(f"sparsedom.{name}")
    imported = _package_imports().get(name, [])
    assert [n for n in imported if n not in mod.__all__] == []
