"""Every exported name resolves, so that a deleted function leaves no stale export."""

import importlib
import pkgutil

import pytest

import paretorecords

MODULES = [paretorecords] + [
    importlib.import_module(f"paretorecords.{info.name}") for info in pkgutil.iter_modules(paretorecords.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    names = list(getattr(module, "__all__", ()))
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)
