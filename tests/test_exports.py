"""Every name a module lists in ``__all__`` must resolve, and the runtime imports numpy only."""

import ast
import importlib
import pathlib
import pkgutil
import sys

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


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(dlf.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_absolute_imports_are_numpy_or_stdlib(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    top = {name.split(".")[0] for name in imported}
    outside = sorted(top - {"numpy"} - set(sys.stdlib_module_names))
    assert outside == [], f"{path.name} imports {outside}; the runtime depends on numpy only"
