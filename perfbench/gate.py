"""Correctness gate: exact answers computed here with numpy, never by dlf.

Each check reads what a task produced (the CSV and JSON files the CLI
writes, or the array ``eval_interpolant`` returned), evaluates the exact
answer for the task's seeded parameters with plain numpy, and returns the
largest absolute error.  A task passes when that error is finite and at
most :data:`TOLERANCE` for its command.  None of dlf's own error columns
(``abs_discrepancy``, ``direct_err``) or error helpers are consulted.

The map functions below are the textbook formulas of each family kind,
written out again so the gate does not share code with the program it
checks.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: largest accepted absolute error per command; every exact answer here is
#: at most about 5 in magnitude
TOLERANCE = {
    "solve": 1e-6,
    "interp": 1e-8,
    "interp-batch": 1e-8,
    "contour-check": 1e-8,
}

EPS = float(np.finfo(float).eps)


def digits(err: float) -> float:
    """Correct decimal digits, ``-log10(err)`` with the error clipped to [eps, 1]."""
    return -math.log10(min(max(err, EPS), 1.0))


# ---------------------------------------------------------------------------
# maps and test functions
# ---------------------------------------------------------------------------


def psi(kind: str, params: dict, x):
    """The shared map of a homogeneous family (``mixed``: its exponential part)."""
    fam = params["family"]
    if kind == "identity":
        return x
    if kind == "fractional":
        return np.power(x, fam["delta"])
    if kind == "generalized":
        return np.tanh(params["scale"] * x)
    if kind == "rational":
        return x / (x + fam["L"])
    if kind in ("exponential", "mixed"):
        return np.exp(fam["rates"] * x)
    if kind == "fourier-sin":
        return np.sin(fam["freqs"] * x)
    if kind == "fourier-cos":
        return np.cos(fam["freqs"] * x)
    raise ValueError(f"no map for kind {kind!r}")


def psi_inverse(kind: str, params: dict, y):
    fam = params["family"]
    if kind == "identity":
        return y
    if kind == "fractional":
        return np.power(y, 1.0 / fam["delta"])
    if kind == "generalized":
        return np.arctanh(y) / params["scale"]
    if kind == "rational":
        return fam["L"] * y / (1.0 - y)
    if kind in ("exponential", "mixed"):
        return np.log(y) / fam["rates"]
    if kind == "fourier-sin":
        return np.arcsin(y) / fam["freqs"]
    if kind == "fourier-cos":
        return np.arccos(y) / fam["freqs"]
    raise ValueError(f"no inverse map for kind {kind!r}")


def tau_affine(params: dict, kind: str) -> tuple:
    """``(m, s)`` with ``tau = s * (psi(x) - m)`` mapping the domain onto [-1, 1]."""
    a, b = params["domain"]
    ya, yb = (float(psi(kind, params, v)) for v in (a, b))
    return (ya + yb) / 2.0, 2.0 / (yb - ya)


def interp_exact(params: dict, kind: str, x):
    """The interpolated function: ``exp(alpha*tau) * cos(beta*tau)``, times
    ``sin(w*x) - sin(w*b)`` for ``mixed`` (which puts it in that basis' span)."""
    m, s = tau_affine(params, kind)
    tau = s * (psi(kind, params, x) - m)
    out = np.exp(params["alpha"] * tau) * np.cos(params["beta"] * tau)
    if kind == "mixed":
        w = params["family"]["freqs"]
        out = out * (np.sin(w * x) - math.sin(w * params["domain"][1]))
    return out


def interp_nodes(params: dict, kind: str, n: int) -> np.ndarray:
    """``n + 1`` interpolation nodes: preimages of the Chebyshev-Gauss-Lobatto
    points of the map's range.

    The interpolant is then a Chebyshev interpolant in the mapped variable.
    CGL points in ``x`` itself would be unevenly spread in that variable,
    and interpolation on them diverges for the stronger maps at large N.
    """
    a, b = params["domain"]
    c = (1.0 - np.cos(np.arange(n + 1) * np.pi / n)) / 2.0
    ya, yb = (float(psi(kind, params, v)) for v in (a, b))
    xs = np.sort(psi_inverse(kind, params, ya + (yb - ya) * c))
    xs[0], xs[-1] = a, b
    return xs


def contour_exact(params: dict, x):
    return np.exp(params["alpha"] * x) * np.cos(params["beta"] * x)


def solve_exact(problem: str, params: dict, coords: list):
    if problem == "poisson2d":
        (s1, s2), (k, l) = params["shift"], params["waves"]
        x1, x2 = coords
        return (
            params["amp"]
            * np.sin(k * np.pi * (x1 - s1))
            * np.sin(l * np.pi * (x2 - s2))
        )
    if problem == "riccati":
        return 1.0 / (1.0 + params["shift"] - coords[0])
    if problem == "sine-bvp":
        return params["amp"] * np.sin(np.pi * (coords[0] - params["shift"]))
    raise ValueError(f"unknown problem {problem!r}")


# ---------------------------------------------------------------------------
# checks: each returns the max abs error, or inf when the output is malformed
# ---------------------------------------------------------------------------


def _read_csv(path: str, columns: int, rows: int) -> np.ndarray | None:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    if data.shape != (rows, columns):
        return None
    return data


def _max_err(approx, exact) -> float:
    err = np.abs(np.asarray(approx, dtype=float) - np.asarray(exact, dtype=float))
    if err.size == 0 or not np.all(np.isfinite(err)):
        return math.inf
    return float(np.max(err))


def check_solve(task, samples_csv: str) -> float:
    dim = 2 if task.problem == "poisson2d" else 1
    data = _read_csv(samples_csv, dim + 1, (task.n + 1) ** dim)
    if data is None:
        return math.inf
    coords = [data[:, d] for d in range(dim)]
    return _max_err(data[:, dim], solve_exact(task.problem, task.params, coords))


def check_interp(task, samples_csv: str, interp_json: str) -> float:
    data = _read_csv(samples_csv, 2, task.params["samples"])
    if data is None:
        return math.inf
    err = _max_err(data[:, 1], interp_exact(task.params, task.kind, data[:, 0]))
    try:
        with open(interp_json) as fh:
            coeffs = json.load(fh)["coeffs"]
    except (OSError, ValueError, KeyError):
        return math.inf
    nodes = interp_nodes(task.params, task.kind, task.n)
    if len(coeffs) != len(nodes):
        return math.inf
    return max(err, _max_err(coeffs, interp_exact(task.params, task.kind, nodes)))


def check_batch(task, xs: np.ndarray, values) -> float:
    values = np.asarray(values, dtype=float)
    if values.shape != xs.shape:
        return math.inf
    return _max_err(values, interp_exact(task.params, task.kind, xs))


def check_contour(task, out_csv: str) -> float:
    """``contour_uN - contour_err`` must reproduce ``u(x)`` at every point."""
    data = _read_csv(out_csv, 6, task.params["points"])
    if data is None:
        return math.inf
    x, contour_un, contour_err = data[:, 0], data[:, 2], data[:, 4]
    return _max_err(contour_un - contour_err, contour_exact(task.params, x))
