"""Outside-in span tracing of dlf's layers.

The traced run replaces, from here, the public names that cross module
boundaries inside ``dlf`` with thin wrappers that open and close a span.
Nothing in ``dlf`` is edited and the untraced run never installs them.
Each span records its name, start and end (``perf_counter_ns``), its
parent span and the task it belongs to.  Spans are kept in flat arrays in
memory and written out once, when the run ends.

A layer's self time is its span's duration minus the duration of its
child spans; the wrappers' own bookkeeping lands in the parent's self
time, which is what ``trace.overhead`` (measured separately) bounds.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np

from inputs import CONTOUR_NS, INTERP_NS, SOLVE_NS

#: span name of the benchmark's own per-task root span
ROOT = "task"

#: layer of every span name (the module in src/dlf it measures)
SPAN_LAYERS = {
    ROOT: "bench",
    "cli.main": "cli",
    "solver.config": "solver",
    "solver.assemble": "solver",
    "solver.solve": "solver",
    "solver.residual": "solver",
    "solver.jacobian": "solver",
    "solver.cond": "solver",
    "solver.linsolve": "solver",
    "exprlang.eval": "exprlang",
    "basis.validate": "basis",
    "basis.values_at": "basis",
    "basis.weight_eval": "basis",
    "basis.lagrange_values": "basis",
    "basis.lagrange_matrix": "basis",
    "diffmat.dm": "diffmat",
    "interp.eval": "interp",
    "interp.to_json": "interp",
    "contour.point": "contour",
}
LAYERS = ("bench", "cli", "solver", "exprlang", "basis", "diffmat", "interp", "contour")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names = list(SPAN_LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("q")
        self.end = array("q")
        #: per-span facts a wrapper attaches: {span index: {key: value}}
        self.notes = {}
        self.current_task = -1
        self._stack = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.current_task)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def wrap(self, fn, name: str, note=None):
        """``fn`` inside a span; ``note(args, result)`` returns facts to keep."""
        if name not in self._ids:
            raise KeyError(f"unknown span name {name!r}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.notes[idx] = note(args, result)
            return result

        return wrapper

    def arrays(self) -> dict:
        """The spans as numpy arrays (``dur``/``self`` in nanoseconds)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "task": np.frombuffer(self.task, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": self_times(parent, dur),
        }

    def save(self, path: str) -> None:
        spans = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: spans[k] for k in ("name", "parent", "task", "start", "end")},
        )


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = np.asarray(dur, dtype=np.int64)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    child = np.zeros(len(dur), dtype=np.int64)
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


class _Namespace:
    """A module stand-in with some attributes replaced (used for ``np`` in dlf.solver)."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._base, attr)


class Instrumentation:
    """The set of wrappers for one import of ``dlf``; install and remove them.

    ``mods`` maps the submodule names (``cli``, ``solver``, ``basis``,
    ``interp``, ``contour``, ``exprlang``) to the imported modules.
    """

    def __init__(self, tracer: Tracer, mods: dict):
        cli, solver, basis, interp, contour, exprlang = (
            mods[k] for k in ("cli", "solver", "basis", "interp", "contour", "exprlang")
        )
        w = tracer.wrap
        lagrange_matrix = w(
            basis.lagrange_matrix, "basis.lagrange_matrix",
            note=lambda args, result: {"points": int(np.size(args[1]))},
        )
        validate = w(basis.validate_basis, "basis.validate")
        linalg = _Namespace(
            np.linalg,
            cond=w(np.linalg.cond, "solver.cond"),
            solve=w(np.linalg.solve, "solver.linsolve"),
        )
        self._targets = [
            (cli, "main", w(cli.main, "cli.main")),
            (cli, "problem_from_config", w(cli.problem_from_config, "solver.config")),
            (cli, "bases_from_config", w(cli.bases_from_config, "solver.config")),
            (cli, "assemble_collocation_nd", w(cli.assemble_collocation_nd, "solver.assemble")),
            (cli, "solve_system", w(cli.solve_system, "solver.solve", note=_solve_note)),
            (cli, "validate_basis", validate),
            (cli, "eval_interpolant", w(cli.eval_interpolant, "interp.eval")),
            (cli, "interpolant_to_json", w(cli.interpolant_to_json, "interp.to_json")),
            (cli, "contour_interpolant", w(cli.contour_interpolant, "contour.point")),
            (cli, "contour_error", w(cli.contour_error, "contour.point")),
            (solver, "validate_basis", validate),
            (solver, "dm_matrix", w(solver.dm_matrix, "diffmat.dm")),
            (solver, "np", _Namespace(np, linalg=linalg)),
            (
                solver.CollocationSystem, "evaluate_residual",
                w(solver.CollocationSystem.evaluate_residual, "solver.residual"),
            ),
            (
                solver.CollocationSystem, "evaluate_jacobian",
                w(solver.CollocationSystem.evaluate_jacobian, "solver.jacobian"),
            ),
            (exprlang, "eval_expr", w(exprlang.eval_expr, "exprlang.eval")),
            (basis, "validate_basis", validate),
            (basis.PsiFamily, "values_at", w(basis.PsiFamily.values_at, "basis.values_at")),
            (interp, "validate_basis", validate),
            (interp, "lagrange_values", w(interp.lagrange_values, "basis.lagrange_values")),
            (interp, "lagrange_matrix", lagrange_matrix),
            (interp, "eval_interpolant", w(interp.eval_interpolant, "interp.eval")),
            (contour, "weight_eval", w(contour.weight_eval, "basis.weight_eval")),
        ]
        self._saved = None

    def install(self) -> None:
        if self._saved is not None:
            raise RuntimeError("instrumentation is already installed")
        self._saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in self._targets]
        for obj, attr, wrapper in self._targets:
            setattr(obj, attr, wrapper)

    def remove(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved = None


def _solve_note(args, result) -> dict:
    return {
        "unknowns": int(args[0].size),
        "linear": bool(result.linear),
        "iterations": int(result.iterations),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Conventions: ``*_calls`` are calls per task; ``*_ms`` are self time per
# task in milliseconds (so the ``_ms`` of all spans add up to
# ``task.traced_ms``); ``*.share`` and ``*_share`` are self time over total
# task time.  Per-call figures say so in their name (``_us_per_call``,
# ``_us_per_point``, ``point_ms``).  The ``.N<n>`` variants average only
# over the tasks with that N.

_PER_TASK = [
    ("solver.cond_ms", "solver.cond"),
    ("solver.linsolve_ms", "solver.linsolve"),
    ("solver.residual_ms", "solver.residual"),
    ("solver.jacobian_ms", "solver.jacobian"),
    ("solver.solve_self_ms", "solver.solve"),
    ("solver.assemble_ms", "solver.assemble"),
    ("solver.config_ms", "solver.config"),
    ("exprlang.eval_ms", "exprlang.eval"),
    ("basis.lagrange_matrix_ms", "basis.lagrange_matrix"),
    ("basis.lagrange_values_ms", "basis.lagrange_values"),
    ("basis.validate_ms", "basis.validate"),
    ("basis.values_at_ms", "basis.values_at"),
    ("diffmat.dm_ms", "diffmat.dm"),
    ("interp.eval_ms", "interp.eval"),
    ("interp.to_json_ms", "interp.to_json"),
    ("contour.self_ms", "contour.point"),
    ("cli.self_ms", "cli.main"),
]
_CALLS = [
    ("solver.residual_calls", "solver.residual"),
    ("solver.jacobian_calls", "solver.jacobian"),
    ("exprlang.eval_calls", "exprlang.eval"),
    ("basis.lagrange_values_calls", "basis.lagrange_values"),
    ("basis.validate_calls", "basis.validate"),
    ("basis.values_at_calls", "basis.values_at"),
    ("basis.weight_eval_calls", "basis.weight_eval"),
    ("diffmat.dm_calls", "diffmat.dm"),
    ("interp.eval_calls", "interp.eval"),
    ("contour.calls", "contour.point"),
]
_SHARES = [
    ("solver.cond_share", "solver.cond"),
    ("solver.residual_share", "solver.residual"),
]
_DERIVED = [
    "solver.dense_bytes",
    "solver.unknowns",
    "solver.newton_iterations",
    "solver.step_accept_ratio",
    "exprlang.eval_us_per_call",
    "basis.eval_us_per_point",
    "contour.point_ms",
    "contour.u_evals_per_point",
    "task.traced_ms",
    "trace.overhead",
]


def _per_n_specs() -> list:
    specs = []
    for metric in (
        "solver.cond_ms",
        "solver.linsolve_ms",
        "solver.residual_ms",
        "solver.jacobian_ms",
        "solver.assemble_ms",
        "solver.solve_self_ms",
    ):
        specs += [(metric, n) for n in SOLVE_NS]
    specs += [("basis.lagrange_matrix_ms", n) for n in INTERP_NS]
    specs += [("basis.lagrange_values_ms", n) for n in sorted(set(CONTOUR_NS) | set(INTERP_NS))]
    all_ns = sorted(set(SOLVE_NS) | set(INTERP_NS) | set(CONTOUR_NS))
    specs += [("basis.validate_ms", n) for n in all_ns]
    return specs


def per_layer_names() -> list:
    """Every per-layer metric name, in the order they are printed."""
    names = [m for m, _ in _PER_TASK] + [m for m, _ in _CALLS] + [m for m, _ in _SHARES]
    names += _DERIVED
    names += [f"{layer}.share" for layer in LAYERS]
    names += [f"{metric}.N{n}" for metric, n in _per_n_specs()]
    return names


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    base = name.split(".N")[0]
    if base.endswith("calls") or base in (
        "solver.newton_iterations",
        "solver.unknowns",
        "contour.u_evals_per_point",
    ):
        return "count"
    if base.endswith("_ms"):
        return "ms"
    if base.endswith("_us_per_call") or base.endswith("_us_per_point"):
        return "us"
    if base.endswith("_bytes"):
        return "bytes"
    return "ratio"


def layer_metrics(tracer: Tracer, task_n: dict, untraced_s: float, traced_s: float) -> dict:
    """All per-layer metrics from the recorded spans.

    ``task_n`` maps each traced task id to its N; ``untraced_s`` and
    ``traced_s`` are the round's cost (summed best latencies) without and
    with the wrappers.
    """
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    name, parent, task = spans["name"], spans["parent"], spans["task"]
    dur, self_ns = spans["dur"].astype(float), spans["self"].astype(float)
    root = name == ids[ROOT]
    n_tasks = int(np.count_nonzero(root))
    if n_tasks == 0:
        raise ValueError("no traced tasks")
    total_ns = float(np.sum(dur[root]))

    def mask(span):
        return name == ids[span]

    def per_task_ms(span, sel=None):
        m = mask(span) if sel is None else mask(span) & sel
        return float(np.sum(self_ns[m])) / 1e6

    out = {}
    for metric, span in _PER_TASK:
        out[metric] = per_task_ms(span) / n_tasks
    for metric, span in _CALLS:
        out[metric] = int(np.count_nonzero(mask(span))) / n_tasks
    for metric, span in _SHARES:
        out[metric] = per_task_ms(span) * 1e6 / total_ns

    # a solve that raised left no note
    solve_idx = [i for i in np.flatnonzero(mask("solver.solve")) if i in tracer.notes]
    solves = [tracer.notes[i] for i in solve_idx]
    out["solver.unknowns"] = _mean([s["unknowns"] for s in solves])
    out["solver.dense_bytes"] = _mean([8 * s["unknowns"] ** 2 for s in solves])
    newton = [i for i in solve_idx if not tracer.notes[i]["linear"]]
    iterations = sum(tracer.notes[i]["iterations"] for i in newton)
    out["solver.newton_iterations"] = iterations / len(newton) if newton else 0.0
    # residual calls made by the solve itself (not by the FD Jacobian): the
    # initial evaluation plus one per line-search trial
    direct = np.bincount(parent[mask("solver.residual") & (parent >= 0)], minlength=len(name))
    trials = sum(int(direct[i]) - 1 for i in newton)
    out["solver.step_accept_ratio"] = iterations / trials if trials else 0.0

    evals = mask("exprlang.eval")
    n_evals = int(np.count_nonzero(evals))
    out["exprlang.eval_us_per_call"] = (
        float(np.sum(self_ns[evals])) / n_evals / 1e3 if n_evals else 0.0
    )
    lv, lm = mask("basis.lagrange_values"), mask("basis.lagrange_matrix")
    points = int(np.count_nonzero(lv)) + sum(
        tracer.notes.get(i, {}).get("points", 0) for i in np.flatnonzero(lm)
    )
    out["basis.eval_us_per_point"] = (
        float(np.sum(dur[lv | lm])) / points / 1e3 if points else 0.0
    )
    cp = mask("contour.point")
    n_cp = int(np.count_nonzero(cp))
    out["contour.point_ms"] = float(np.sum(dur[cp])) / n_cp / 1e6 if n_cp else 0.0
    u_evals = int(np.count_nonzero(evals & (parent >= 0) & cp[np.maximum(parent, 0)]))
    out["contour.u_evals_per_point"] = u_evals / n_cp if n_cp else 0.0
    out["task.traced_ms"] = total_ns / n_tasks / 1e6
    out["trace.overhead"] = 1.0 - untraced_s / traced_s

    layer_of = np.array([LAYERS.index(SPAN_LAYERS[n]) for n in tracer.names])
    layer_self = np.bincount(layer_of[name], weights=self_ns, minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.share"] = float(layer_self[i]) / total_ns

    span_n = np.array([task_n[t] for t in task.tolist()])  # N of each span's task
    spans_of = dict(_PER_TASK)
    for metric, n in _per_n_specs():
        count = int(np.count_nonzero(span_n[root] == n))
        out[f"{metric}.N{n}"] = (
            per_task_ms(spans_of[metric], span_n == n) / count if count else 0.0
        )
    return {k: out[k] for k in per_layer_names()}


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0
