"""Every name a module lists in ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import dlf

MODULES = ["dlf"] + sorted(
    f"dlf.{info.name}" for info in pkgutil.iter_modules(dlf.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
