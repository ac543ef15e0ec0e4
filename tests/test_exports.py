"""Every name a module lists in ``__all__`` must resolve and the runtime imports numpy only."""

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


def _open_modes(path):
    """The mode of every ``open(...)`` call in ``path`` (``"r"`` when not given)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else None
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
            yield ast.literal_eval(mode) if mode is not None else "r"


def test_one_writer_opens_files_for_writing():
    # every artifact goes through interp.write_artifact
    writes = [
        path.name
        for path in sorted(pathlib.Path(dlf.__file__).parent.glob("*.py"))
        for mode in _open_modes(path)
        if set(mode) & set("wax+")
    ]
    assert writes == ["interp.py"], f"write-mode open() calls in src/dlf: {writes}"


def test_tracer_targets_resolve_and_are_restored(monkeypatch):
    # perfbench/tracing.py patches names across dlf (cli.validate_basis,
    # solver.np, ...); a moved name would otherwise fail only the perfbench suite
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    mods = {
        name: importlib.import_module(f"dlf.{name}")
        for name in ("cli", "solver", "basis", "interp", "contour", "exprlang")
    }
    owners = [*mods.values(), mods["solver"].CollocationSystem, mods["basis"].PsiFamily]
    before = [dict(vars(owner)) for owner in owners]

    def changed():
        return [
            (getattr(owner, "__name__", owner), attr)
            for owner, saved in zip(owners, before)
            for attr, value in vars(owner).items()
            if saved.get(attr) is not value
        ]

    instrumentation = tracing.Instrumentation(tracing.Tracer(), mods)
    instrumentation.install()
    try:
        assert ("dlf.solver", "validate_basis") in changed()
    finally:
        instrumentation.remove()
    assert changed() == []
