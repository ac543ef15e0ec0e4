"""Seeded task generator for the four benchmark workloads.

A workload is one *round*: a fixed multiset of task slots, each slot a
``(command, family kind, N)`` triple plus the problem it poses.  The seed
draws the continuous parameters of every slot (amplitudes, domain shifts,
map parameters, test-function coefficients, sample points) and the order
of the slots; it never changes the multiset, so the work a round costs
does not depend on the seed.  The timed phase repeats the same round.

Everything here is plain numpy and stdlib: the generator does not import
``dlf``, and the exact answers the correctness gate uses are computed from
the same parameters in :mod:`gate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("solve-2d", "solve-1d", "interp", "contour")

#: sample points per batch evaluation and per CLI interpolation
BATCH_POINTS = 4096
CLI_SAMPLES = 512
#: contour-check settings; one point, the left end of the domain, which the
#: nodes leave clear (a point costs 2 * panels * (N + 1) evaluations of u)
CONTOUR_PANELS = 256
CONTOUR_POINTS = 1
#: Newton tolerance passed to the riccati solves; the default 1e-12 sits at
#: the rounding floor of the N=64 residual, where the iteration count (and
#: even convergence) flips with the last bits of the input
RICCATI_TOL = 1e-10

# Slots of one round.  Weights put the median and the 90th percentile of
# task latency inside a block of equal tasks, not on the edge between two.
_SOLVE_2D = [(12, 7), (16, 6), (20, 3), (24, 3), (28, 1)]
_SOLVE_1D = [("riccati", n, 3) for n in (16, 32, 48, 64)] + [
    ("sine-bvp", n, 1) for n in (16, 64, 128)
]
SOLVE_NS = tuple(sorted({n for n, _ in _SOLVE_2D} | {n for _, n, _ in _SOLVE_1D}))
INTERP_KINDS = (
    "identity",
    "fractional",
    "generalized",
    "rational",
    "exponential",
    "fourier-sin",
    "fourier-cos",
    "mixed",
)
INTERP_NS = (16, 64, 128)
CONTOUR_KINDS = (
    "identity",
    "fractional",
    "exponential",
    "fourier-sin",
    "fourier-cos",
    "rational",
)
CONTOUR_NS = (4, 8, 16)


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.

    ``command`` is the dlf entry point (``solve``, ``interp``,
    ``contour-check`` through the CLI, ``interp-batch`` through
    ``eval_interpolant``); ``problem`` names what is solved or
    interpolated; ``params`` holds every seeded number the command and the
    gate need.
    """

    command: str
    kind: str
    n: int
    problem: str
    params: dict = field(hash=False, compare=False)

    @property
    def key(self) -> tuple:
        return (self.command, self.kind, self.n)


def make_round(workload: str, seed: int) -> list:
    """The task list of one round of ``workload`` for ``seed``."""
    try:
        build = _BUILDERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}") from None
    rng = random.Random(f"{workload}:{seed}")
    tasks = build(rng)
    rng.shuffle(tasks)
    return tasks


def _solve_2d(rng: random.Random) -> list:
    tasks = []
    waves = [(1, 1), (1, 2), (2, 1), (2, 2)]
    slot = 0
    for n, count in _SOLVE_2D:
        for _ in range(count):
            k, l = waves[slot % len(waves)]
            slot += 1
            params = {
                "amp": rng.uniform(0.5, 2.0),
                "shift": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
                "waves": [k, l],
            }
            tasks.append(Task("solve", "identity", n, "poisson2d", params))
    return tasks


def _solve_1d(rng: random.Random) -> list:
    tasks = []
    for problem, n, count in _SOLVE_1D:
        for _ in range(count):
            params = {"shift": rng.uniform(-1.0, 1.0)}
            if problem == "sine-bvp":
                params["amp"] = rng.uniform(0.5, 2.0)
            tasks.append(Task("solve", "identity", n, problem, params))
    return tasks


def _test_function(rng: random.Random) -> dict:
    # f = exp(alpha*tau) * cos(beta*tau), tau the map value rescaled to [-1, 1]
    return {"alpha": rng.uniform(0.5, 1.5), "beta": rng.uniform(0.5, 1.5)}


def _interp_family(kind: str, rng: random.Random) -> dict:
    """Family parameters and domain on which the mapped nodes stay well spread."""
    if kind == "identity":
        return {"family": {}, "domain": [-1.0, 1.0]}
    if kind == "fractional":
        return {"family": {"delta": rng.uniform(0.5, 2.5)}, "domain": [0.5, 2.5]}
    if kind == "generalized":
        c = rng.uniform(0.5, 1.5)
        return {"family": {"expr": f"tanh({c!r}*x)"}, "scale": c, "domain": [-1.0, 1.0]}
    if kind == "rational":
        return {"family": {"L": rng.uniform(0.5, 2.0)}, "domain": [0.0, 4.0]}
    if kind == "exponential":
        return {"family": {"rates": rng.uniform(0.5, 1.5)}, "domain": [-1.0, 1.0]}
    if kind == "fourier-sin":
        return {"family": {"freqs": rng.uniform(0.8, 1.2)}, "domain": [-1.0, 1.0]}
    if kind == "fourier-cos":
        return {"family": {"freqs": rng.uniform(0.8, 1.2)}, "domain": [0.5, 2.5]}
    if kind == "mixed":
        # split filled in per N: every index but the last is exponential
        return {
            "family": {"rates": rng.uniform(0.3, 0.6), "freqs": rng.uniform(0.8, 1.2)},
            "domain": [-1.0, 1.0],
        }
    raise ValueError(f"no interpolation setup for kind {kind!r}")


def _interp(rng: random.Random) -> list:
    tasks = []
    for kind in INTERP_KINDS:
        for n in INTERP_NS:
            # two CLI tasks per batch task puts the median inside the CLI
            # block and the 90th percentile inside the batch block
            for command in ("interp-batch", "interp", "interp"):
                params = _interp_family(kind, rng)
                if kind == "mixed":
                    params["family"]["split"] = n - 1
                params.update(_test_function(rng))
                if command == "interp-batch":
                    params["points"] = BATCH_POINTS
                    params["points_seed"] = rng.randrange(2**31)
                else:
                    params["samples"] = CLI_SAMPLES
                tasks.append(Task(command, kind, n, "analytic", params))
    return tasks


def _contour_family(kind: str, rng: random.Random) -> dict:
    """Family, domain and circle with the maps analytic and injective inside."""
    if kind == "identity":
        return {"family": {}, "domain": [-1.0, 1.0], "center": 0.0, "radius": 2.0}
    if kind == "fractional":
        return {
            "family": {"delta": float(rng.choice((2, 3)))},
            "domain": [0.5, 1.5],
            "center": 1.0,
            "radius": 0.8,
        }
    if kind == "exponential":
        return {
            "family": {"rates": rng.uniform(0.5, 1.0)},
            "domain": [-1.0, 1.0],
            "center": 0.0,
            "radius": 1.5,
        }
    if kind == "fourier-sin":
        return {
            "family": {"freqs": rng.uniform(0.8, 1.1)},
            "domain": [-1.0, 1.0],
            "center": 0.0,
            "radius": 1.3,
        }
    if kind == "fourier-cos":
        return {
            "family": {"freqs": rng.uniform(0.8, 1.1)},
            "domain": [0.5, 2.5],
            "center": 1.5,
            "radius": 1.3,
        }
    if kind == "rational":
        return {
            "family": {"L": rng.uniform(1.0, 2.0)},
            "domain": [0.0, 1.0],
            "center": 0.5,
            "radius": 0.6,
        }
    raise ValueError(f"no contour setup for kind {kind!r}")


def _contour(rng: random.Random) -> list:
    tasks = []
    for kind in CONTOUR_KINDS:
        for n in CONTOUR_NS:
            params = _contour_family(kind, rng)
            params.update(_test_function(rng))
            params.update(panels=CONTOUR_PANELS, points=CONTOUR_POINTS)
            tasks.append(Task("contour-check", kind, n, "analytic", params))
    return tasks


_BUILDERS = {
    "solve-2d": _solve_2d,
    "solve-1d": _solve_1d,
    "interp": _interp,
    "contour": _contour,
}
