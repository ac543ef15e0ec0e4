"""Every name a module lists in ``__all__`` must resolve, the runtime imports numpy only, and
the shipped script runs."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
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


def test_recurrence_gap_report_runs():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "recurrence_gap_report.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    for line in (
        "partition-of-unity defect",
        "D1 row-sum magnitude",
        "D1 closed form vs oracle",
        "D2 recurrence vs oracle",
    ):
        assert run.stdout.count(line) == 2, f"{line!r} is not reported once per family"


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
