import importlib
import pkgutil

import pytest

import gxcat

MODULES = ["gxcat"] + [f"gxcat.{m.name}" for m in pkgutil.iter_modules(gxcat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_defined_names(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
