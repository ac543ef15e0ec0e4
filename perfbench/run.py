"""Benchmark of dlf through its public entry points.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each task starts when the previous
one has finished and been checked.  Tasks run in-process through
``dlf.cli.main(argv)`` (the ``solve``, ``interp`` and ``contour-check``
commands) or ``dlf.interp.eval_interpolant`` (batch evaluation).  The
BLAS thread count is pinned to one before numpy loads.

Times are given at a reference machine speed.  On a shared virtual
machine the same code runs up to 1.5 times slower for stretches of
seconds to minutes while other tenants are busy, so raw wall times of
identical runs spread by a quarter or more.  Between tasks the benchmark
times a fixed kernel (:class:`SpeedProbe`, the mix of interpreter and
small-array numpy work dlf itself does) and scales each task's wall time by
``REFERENCE_KERNEL_S`` over the kernel's mean time just before and after
the task.  A program change moves the scaled times as it moves the raw
ones; the host's speed changes cancel.  Raw figures stay in the run
record.

``--trace 0`` prints the end-to-end metrics of an uninstrumented run.
``--trace 1`` runs every task twice, once plain and once with the span
wrappers of ``tracing.py`` installed (alternating which goes first), and
prints the per-layer metrics plus ``trace.overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (versions, BLAS threads, commit, seed).  Spans of a
traced run and every run's record go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

#: BLAS threads, pinned before numpy loads (the benchmark machine has 2 cores)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".perfbench"
WORK_DIR = OUT_DIR / f"work-{os.getpid()}"

#: setup (import + inputs + warm-up) is repeated and its median reported
SETUP_REPEATS = 9
#: time of the SpeedProbe kernel at the reference speed (its typical time
#: on a 2-core virtual machine of a shared Xeon host)
REFERENCE_KERNEL_S = 0.002
#: fewest tasks in an untraced run, so that ten lie beyond the 90th percentile
MIN_TASKS = 100
#: no new round starts after this much wall time, to stay inside 180 s
WALL_LIMIT_S = 120.0

END_TO_END = [
    ("tasks_per_s", "1/s"),
    ("task_ms.p50", "ms"),
    ("task_ms.p90", "ms"),
    ("success_rate", "ratio"),
    ("err_digits", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

DLF_MODULES = ("cli", "solver", "basis", "interp", "contour", "exprlang")


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


# ---------------------------------------------------------------------------
# dlf import
# ---------------------------------------------------------------------------


def import_dlf(src: Path) -> dict:
    """A fresh import of ``dlf`` from ``src`` (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "dlf" or m.startswith("dlf.")]:
        del sys.modules[name]
    dlf = importlib.import_module("dlf")
    if Path(dlf.__file__).resolve().parent != (src / "dlf").resolve():
        raise ImportError(f"dlf was imported from {dlf.__file__}, not from {src}")
    return {k: importlib.import_module(f"dlf.{k}") for k in DLF_MODULES}


# ---------------------------------------------------------------------------
# turning tasks into dlf calls
# ---------------------------------------------------------------------------


def _num(v: float) -> str:
    return f"({float(v)!r})"


def _solve_config(task) -> dict:
    p = task.params
    zero = {"order": 0, "expr": "0"}
    cfg = {"family": {"kind": "identity"}, "nodes": {"scheme": "cgl"}, "N": task.n}
    if task.problem == "poisson2d":
        (s1, s2), (k, l) = p["shift"], p["waves"]
        cfg.update(
            dim=2,
            domains=[[s1, s1 + 1.0], [s2, s2 + 1.0]],
            orders=[2, 2],
            splits=[[1, 1], [1, 1]],
            residual="u_2,0 + u_0,2",
            rhs=f"-{k * k + l * l}*pi^2*{_num(p['amp'])}"
            f"*sin({k}*pi*(x1 - {_num(s1)}))*sin({l}*pi*(x2 - {_num(s2)}))",
            conditions=[dict(zero, face=f) for f in ("a1", "b1", "a2", "b2")],
        )
    elif task.problem == "riccati":
        s = p["shift"]
        cfg.update(
            dim=1,
            domains=[[s, s + 0.5]],
            orders=[1],
            splits=[[1, 0]],
            residual="du - u^2",
            rhs="0",
            conditions=[{"face": "a1", "order": 0, "expr": "1"}],
        )
    elif task.problem == "sine-bvp":
        s = p["shift"]
        cfg.update(
            dim=1,
            domains=[[s, s + 1.0]],
            orders=[2],
            splits=[[1, 1]],
            residual="d2u",
            rhs=f"-{_num(p['amp'])}*pi^2*sin(pi*(x - {_num(s)}))",
            conditions=[dict(zero, face="a1"), dict(zero, face="b1")],
        )
    else:
        raise ValueError(f"unknown problem {task.problem!r}")
    return cfg


def _psi_text(kind: str, params: dict) -> str:
    fam = params["family"]
    if kind == "identity":
        return "x"
    if kind == "fractional":
        return f"x^{_num(fam['delta'])}"
    if kind == "generalized":
        return fam["expr"]
    if kind == "rational":
        return f"x/(x + {_num(fam['L'])})"
    if kind in ("exponential", "mixed"):
        return f"exp({_num(fam['rates'])}*x)"
    if kind == "fourier-sin":
        return f"sin({_num(fam['freqs'])}*x)"
    if kind == "fourier-cos":
        return f"cos({_num(fam['freqs'])}*x)"
    raise ValueError(f"no map text for kind {kind!r}")


def interp_expr(kind: str, params: dict) -> str:
    """The text of :func:`gate.interp_exact` for dlf's expression language."""
    m, s = gate.tau_affine(params, kind)
    tau = f"({_num(s)}*({_psi_text(kind, params)} - {_num(m)}))"
    text = f"exp({_num(params['alpha'])}*{tau})*cos({_num(params['beta'])}*{tau})"
    if kind == "mixed":
        w = params["family"]["freqs"]
        text += f"*(sin({_num(w)}*x) - {_num(math.sin(w * params['domain'][1]))})"
    return text


def contour_nodes(params: dict, n: int) -> np.ndarray:
    """CGL points on the middle three quarters of the domain.

    contour-check samples the domain from its left end; keeping the nodes
    off the ends makes the samples non-nodes, where the error kernel (a
    multiple of w(x)) does not vanish.
    """
    a, b = params["domain"]
    margin = (b - a) / 8.0
    c = (1.0 - np.cos(np.arange(n + 1) * np.pi / n)) / 2.0
    return (a + margin) + (b - a - 2.0 * margin) * c


def contour_expr(params: dict) -> str:
    return f"exp({_num(params['alpha'])}*x)*cos({_num(params['beta'])}*x)"


class PreparedTask:
    """A task with its input files written and its dlf call bound."""

    def __init__(self, task, index: int, mods: dict, work: Path):
        self.task = task
        self.mods = mods
        self.values = None
        p = task.params
        base = work / f"t{index}"
        if task.command == "solve":
            cfg_path = work / f"t{index}.json"
            cfg_path.write_text(json.dumps(_solve_config(task)))
            self.argv = ["solve", "--config", str(cfg_path), "--out", str(base)]
            if task.problem == "riccati":
                self.argv += ["--tol", repr(inputs.RICCATI_TOL)]
            self._check = lambda: gate.check_solve(task, str(base / "samples.csv"))
        elif task.command == "interp":
            nodes = gate.interp_nodes(p, task.kind, task.n)
            csv, js = f"{base}-samples.csv", f"{base}.json"
            self.argv = [
                "interp",
                "--family", task.kind,
                "--params", json.dumps(p["family"]),
                "--nodes=" + ",".join(repr(float(x)) for x in nodes),
                "--domain=" + ",".join(repr(float(v)) for v in p["domain"]),
                "--expr", interp_expr(task.kind, p),
                "--samples", str(p["samples"]),
                "--samples-out", csv,
                "--out", js,
            ]
            self._check = lambda: gate.check_interp(task, csv, js)
        elif task.command == "contour-check":
            csv = f"{base}-contour.csv"
            self.argv = [
                "contour-check",
                "--family", task.kind,
                "--params", json.dumps(p["family"]),
                "--nodes=" + ",".join(repr(float(x)) for x in contour_nodes(p, task.n)),
                "--domain=" + ",".join(repr(float(v)) for v in p["domain"]),
                "--u-expr", contour_expr(p),
                "--center", repr(float(p["center"])),
                "--radius", repr(float(p["radius"])),
                "--panels", str(p["panels"]),
                "--points", str(p["points"]),
                "--out", csv,
            ]
            self._check = lambda: gate.check_contour(task, csv)
        elif task.command == "interp-batch":
            self.argv = None
            self.nodes = gate.interp_nodes(p, task.kind, task.n)
            self.samples = gate.interp_exact(p, task.kind, self.nodes)
            a, b = p["domain"]
            rng = np.random.default_rng(p["points_seed"])
            self.xs = np.sort(rng.uniform(a, b, p["points"]))
            self._check = lambda: gate.check_batch(task, self.xs, self.values)
        else:
            raise ValueError(f"unknown command {task.command!r}")

    def run(self) -> bool:
        """Run the task once; False when dlf reported or raised an error."""
        if self.argv is not None:
            with contextlib.redirect_stdout(_Discard()):
                return self.mods["cli"].main(self.argv) == 0
        basis_mod, interp_mod = self.mods["basis"], self.mods["interp"]
        t, p = self.task, self.task.params
        try:
            family = basis_mod.make_psi_family(t.kind, p["family"], size=t.n + 1)
            nodes = basis_mod.NodeSet(self.nodes, tuple(p["domain"]), "mapped-cgl")
            basis = basis_mod.validate_basis(family, nodes)
            itp = interp_mod.interpolate_1d(basis, self.samples)
            self.values = interp_mod.eval_interpolant(itp, self.xs)
        except Exception:  # a failed task is counted, and the run goes on
            traceback.print_exc()
            return False
        return True

    def check(self) -> float:
        """Max abs error against the exact answer (inf when unusable)."""
        return self._check()


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


class _Pair:
    __slots__ = ("a", "b")


class SpeedProbe:
    """Scales measured times to the reference machine speed.

    The kernel mixes, in about equal parts of time, what dlf's tasks spend
    theirs on: interpreter loops, small objects, numpy calls on tiny arrays,
    ``tensordot`` and small matrix products.  How much a busy host slows
    code down depends on that mix; a kernel of only one kind tracked the
    workloads' slowdown less well.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m40 = rng.standard_normal((40, 40))
        self._m20 = rng.standard_normal((20, 20))
        self._v8 = np.arange(8.0)
        self._kernel()  # first call pays for lazy set-up
        self.last = self._kernel()

    def _kernel(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(5000):
            acc += i * i
        for _ in range(10):
            self._m40 @ self._m40
        sums = {}
        for i in range(80):
            w = self._v8 * 1.5 + i
            sums[i & 63] = float(w.sum())
        pairs = []
        for i in range(1500):
            p = _Pair()
            p.a = i
            p.b = p.a * 2
            pairs.append(p)
            if len(pairs) > 64:
                pairs.clear()
        for _ in range(20):
            np.moveaxis(np.tensordot(self._m20, self._m20, axes=(1, 0)), 0, 1)
        return perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed."""
        before, self.last = self.last, self._kernel()
        return seconds * REFERENCE_KERNEL_S / ((before + self.last) / 2.0)


def _passes(task, ok: bool, err: float) -> bool:
    return ok and err <= gate.TOLERANCE[task.command]


def setup_once(src: Path, workload: str, seed: int):
    """Import dlf, generate and write the inputs, warm up; return the round."""
    mods = import_dlf(src)
    tasks = inputs.make_round(workload, seed)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    prepared = [PreparedTask(t, i, mods, WORK_DIR) for i, t in enumerate(tasks)]
    # warm-up: the smallest task of every command, so first-call costs
    # (BLAS start-up, lazy numpy paths) stay out of the timed phase
    smallest = {}
    for p in prepared:
        if p.task.command not in smallest or p.task.n < smallest[p.task.command].task.n:
            smallest[p.task.command] = p
    for p in smallest.values():
        ok = p.run()
        err = p.check() if ok else math.inf
        if not _passes(p.task, ok, err):
            raise RuntimeError(f"warm-up task {p.task.key} failed (error {err:.3e})")
    return mods, prepared


def run_untraced(prepared: list, seconds: float, probe: SpeedProbe) -> dict:
    """Repeat the round until ``seconds`` of task time and MIN_TASKS tasks."""
    latencies, digits = [], []
    failed = rounds = 0
    busy = 0.0
    wall0 = perf_counter()
    while busy < seconds or len(latencies) < MIN_TASKS:
        if rounds and perf_counter() - wall0 > WALL_LIMIT_S:
            break
        for p in prepared:
            t0 = perf_counter()
            ok = p.run()
            dt = perf_counter() - t0
            busy += dt
            latencies.append(probe.scale(dt))
            err = p.check() if ok else math.inf
            digits.append(gate.digits(err))
            if not _passes(p.task, ok, err):
                failed += 1
                print(f"task {p.task.key} failed (error {err:.3e})", file=sys.stderr)
        rounds += 1
    attempted = len(latencies)
    p50, p90 = np.percentile(np.asarray(latencies) * 1e3, [50, 90])
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "wall_s": perf_counter() - wall0,
        "raw_tasks_per_s": (attempted - failed) / busy,
        "metrics": {
            "tasks_per_s": (attempted - failed) / sum(latencies),
            "task_ms.p50": float(p50),
            "task_ms.p90": float(p90),
            "success_rate": (attempted - failed) / attempted,
            "err_digits": statistics.fmean(digits),
        },
    }


def run_traced(prepared: list, mods: dict, seconds: float, spans_path: Path) -> dict:
    """Run each task plain and traced, in alternating order, in whole rounds."""
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer, mods)
    task_n = {}
    best = {False: [math.inf] * len(prepared), True: [math.inf] * len(prepared)}
    busy = 0.0
    failed = attempted = rounds = 0
    wall0 = perf_counter()
    while rounds == 0 or (busy < seconds and perf_counter() - wall0 < WALL_LIMIT_S):
        for i, p in enumerate(prepared):
            for traced in (False, True) if (rounds + i) % 2 == 0 else (True, False):
                if traced:
                    uid = rounds * len(prepared) + i
                    task_n[uid] = p.task.n
                    tracer.current_task = uid
                    instrumentation.install()
                    root = tracer.open(tracing.ROOT)
                t0 = perf_counter()
                try:
                    ok = p.run()
                finally:
                    dt = perf_counter() - t0
                    if traced:
                        tracer.close(root)
                        instrumentation.remove()
                busy += dt
                best[traced][i] = min(best[traced][i], dt)
                attempted += 1
                err = p.check() if ok else math.inf
                if not _passes(p.task, ok, err):
                    failed += 1
                    print(f"task {p.task.key} failed (error {err:.3e})", file=sys.stderr)
        rounds += 1
    tracer.save(str(spans_path))
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "wall_s": perf_counter() - wall0,
        "spans": len(tracer),
        "metrics": tracing.layer_metrics(tracer, task_n, sum(best[False]), sum(best[True])),
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def run_record(args, result: dict, setup_times: list) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "python": platform.python_version(),
        "commit": git_commit(ROOT_DIR),
        "rounds": result["rounds"],
        "timed_wall_s": result["wall_s"],
        "attempted": result["attempted"],
        "setup_s_raw": [raw for raw, _ in setup_times],
        "setup_s_scaled": [scaled for _, scaled in setup_times],
        **{k: result[k] for k in ("raw_tasks_per_s", "spans") if k in result},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT_DIR / "src"
    if not (src / "dlf" / "__init__.py").is_file():
        print(f"dlf sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    probe = SpeedProbe()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            mods, prepared = setup_once(src, args.workload, args.seed)
            raw = perf_counter() - t0
            setup_times.append((raw, probe.scale(raw)))
        if args.trace:
            result = run_traced(
                prepared, mods, args.seconds, OUT_DIR / f"spans-{args.workload}.npz"
            )
            metrics = result["metrics"]
            units = {name: tracing.per_layer_unit(name) for name in metrics}
        else:
            result = run_untraced(prepared, args.seconds, probe)
            metrics = dict(
                result["metrics"],
                setup_s=statistics.median(scaled for _, scaled in setup_times),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            metrics = {name: metrics[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    record = run_record(args, result, setup_times)
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"record": record, **summary}, indent=1))
    print(json.dumps({"run_record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
