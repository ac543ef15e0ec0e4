"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import inputs
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.fixture(scope="module")
def mods():
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return run.import_dlf(src)


# ---------------------------------------------------------------------------
# seeded input generator
# ---------------------------------------------------------------------------


def _described(tasks):
    return [(t.key, t.problem, json.dumps(t.params, sort_keys=True)) for t in tasks]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _described(inputs.make_round(workload, 7)) == _described(
        inputs.make_round(workload, 7)
    )


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_keeps_the_multiset(workload):
    a, b = inputs.make_round(workload, 7), inputs.make_round(workload, 8)
    assert collections.Counter(t.key for t in a) == collections.Counter(t.key for t in b)
    assert [t.key for t in a] != [t.key for t in b]
    assert sorted(p for _, _, p in _described(a)) != sorted(p for _, _, p in _described(b))


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # 0 [0, 100) has children 1 [10, 40) and 3 [50, 90); 1 has child 2 [15, 25)
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([100, 30, 10, 40])
    assert tracing.self_times(parent, dur).tolist() == [30, 20, 10, 40]


def test_tracer_records_parents_and_tasks():
    tracer = tracing.Tracer()
    tracer.current_task = 3
    root = tracer.open(tracing.ROOT)
    inner = tracer.wrap(lambda: None, "exprlang.eval")
    outer = tracer.wrap(lambda: inner() or inner(), "solver.residual")
    outer()
    tracer.close(root)
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == [tracing.ROOT, "solver.residual", "exprlang.eval", "exprlang.eval"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1]
    assert spans["task"].tolist() == [3, 3, 3, 3]
    assert np.all(spans["self"] >= 0)
    assert spans["self"].sum() == spans["dur"][0]


def test_instrumentation_restores_dlf(mods):
    before = {name: vars(mods["cli"])[name] for name in ("main", "solve_system")}
    values_at = vars(mods["basis"].PsiFamily)["values_at"]
    solver_np = mods["solver"].np
    inst = tracing.Instrumentation(tracing.Tracer(), mods)
    inst.install()
    assert vars(mods["cli"])["main"] is not before["main"]
    inst.remove()
    assert {name: vars(mods["cli"])[name] for name in before} == before
    assert vars(mods["basis"].PsiFamily)["values_at"] is values_at
    assert mods["solver"].np is solver_np


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _first(workload, command):
    return next(t for t in inputs.make_round(workload, 1) if t.command == command)


def _perturb_csv(path, row, col, delta=1e-3):
    lines = Path(path).read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_gate_flags_a_perturbed_solve(mods, tmp_path):
    task = _first("solve-1d", "solve")
    p = run.PreparedTask(task, 0, mods, tmp_path)
    assert p.run()
    assert p.check() <= gate.TOLERANCE["solve"]
    _perturb_csv(tmp_path / "t0" / "samples.csv", row=3, col=1)
    assert p.check() > gate.TOLERANCE["solve"]


def test_gate_flags_a_perturbed_interpolant(mods, tmp_path):
    task = _first("interp", "interp")
    p = run.PreparedTask(task, 0, mods, tmp_path)
    assert p.run()
    assert p.check() <= gate.TOLERANCE["interp"]
    js = tmp_path / "t0.json"
    data = json.loads(js.read_text())
    data["coeffs"][5] += 1e-3
    js.write_text(json.dumps(data))
    assert p.check() > gate.TOLERANCE["interp"]


def test_gate_flags_perturbed_batch_values(mods, tmp_path):
    task = _first("interp", "interp-batch")
    p = run.PreparedTask(task, 0, mods, tmp_path)
    assert p.run()
    assert p.check() <= gate.TOLERANCE["interp-batch"]
    p.values[100] += 1e-3
    assert p.check() > gate.TOLERANCE["interp-batch"]


def test_gate_flags_a_perturbed_contour_row(mods, tmp_path):
    task = next(t for t in inputs.make_round("contour", 1) if t.n == 4)
    p = run.PreparedTask(task, 0, mods, tmp_path)
    assert p.run()
    assert p.check() <= gate.TOLERANCE["contour-check"]
    _perturb_csv(tmp_path / "t0-contour.csv", row=1, col=2)
    assert p.check() > gate.TOLERANCE["contour-check"]


def test_gate_rejects_missing_output(tmp_path):
    task = _first("solve-2d", "solve")
    assert gate.check_solve(task, str(tmp_path / "absent.csv")) == float("inf")


# ---------------------------------------------------------------------------
# the command as the benchmark driver runs it
# ---------------------------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return record, result


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, result = _result(
            _bench("--workload", "solve-1d", "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
        )
        assert result["correct"] and result["failed"] == 0
        printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
        assert printed == [(m["name"], m["unit"]) for m in spec[section]]
        assert record["seed"] == 3 and record["blas_threads"] == run.BLAS_THREADS


def test_traced_counts_repeat_exactly():
    counts = ("solver.residual_calls", "exprlang.eval_calls", "basis.values_at_calls")
    seen = []
    for seconds in ("0.2", "1.5"):
        _, result = _result(
            _bench("--workload", "solve-1d", "--seed", "5", "--seconds", seconds, "--trace", "1")
        )
        seen.append({k: result["metrics"][k]["value"] for k in counts})
    assert seen[0] == seen[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "solve-1d", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
