"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import expcross

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(expcross.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"expcross.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_resolves():
    assert [n for n in expcross.__all__ if not hasattr(expcross, n)] == []
    assert len(set(expcross.__all__)) == len(expcross.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from expcross import *", namespace)
    assert set(expcross.__all__) <= set(namespace)
