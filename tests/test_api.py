"""Every exported name resolves, so a stale ``__all__`` entry fails the suite."""

import importlib
import pkgutil

import pytest

import rootradii

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(rootradii.__path__, "rootradii."))


def test_package_exports_resolve():
    missing = [name for name in rootradii.__all__ if not hasattr(rootradii, name)]
    assert missing == []


@pytest.mark.parametrize("modname", SUBMODULES)
def test_submodule_exports_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
