"""Every name that ``bestofk`` or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import bestofk

MODULES = ["bestofk"] + [f"bestofk.{m.name}" for m in pkgutil.iter_modules(bestofk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
