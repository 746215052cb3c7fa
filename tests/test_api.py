"""Every exported name resolves, so a stale ``__all__`` entry fails the suite."""

import importlib
import pkgutil

import pytest

import rootradii
from rootradii import complexiso, oracle, poly, radii, realiso

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(rootradii.__path__, "rootradii."))
EXPORTING = (poly, radii, realiso, complexiso, oracle)


def test_package_exports_resolve():
    missing = [name for name in rootradii.__all__ if not hasattr(rootradii, name)]
    assert missing == []


@pytest.mark.parametrize("modname", SUBMODULES)
def test_submodule_exports_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_are_the_submodule_lists():
    assert rootradii.__all__ == [name for mod in EXPORTING for name in mod.__all__]
    assert len(set(rootradii.__all__)) == len(rootradii.__all__)


@pytest.mark.parametrize("mod", EXPORTING, ids=lambda m: m.__name__)
def test_package_exports_are_the_submodule_objects(mod):
    assert all(getattr(rootradii, name) is getattr(mod, name) for name in mod.__all__)
