"""Command line front end.

Subcommands: ``basis`` (validate a basis and dump its nodes), ``diffmat``
(emit a derivative matrix as CSV), ``interp`` (build and sample an
interpolant), ``solve`` (run a collocation problem from a JSON config),
``converge`` (N-sweep with error and timing columns), ``contour-check``
(compare direct and contour-integral evaluation).

Exit codes: 0 success, 1 usage or config error, 2 numerical failure.  All
failures write a single-line JSON object to stderr with an ``error`` tag,
a ``message``, and any structured detail the originating exception
carries.  CSV numbers are written as ``%.16e`` (17 significant digits);
JSON floats use Python's shortest round-trip ``repr``.  Flags override the
matching config keys.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import exprlang
# cli.validate_basis is not called here; it stays because perfbench/tracing.py patches it
from .basis import basis_from_spec, validate_basis
from .contour import (
    AnalyticFn,
    Contour,
    _panel,
    contour_error,
    contour_interpolant,
)
from .diffmat import dm_matrix, dm_oracle_fd, dm_power_classical
from .errors import DlfError
from .interp import (
    eval_interpolant,
    interpolant_to_json,
    interpolate_1d,
    save_interpolant,
)
from .solver import (
    SolveOptions,
    _coord_name,
    assemble_collocation_nd,
    bases_from_config,
    load_config,
    problem_from_config,
    solve_system,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or an unusable config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _table(table, line: str | None = None) -> str:
    """CSV lines of a ``(rows, cols)`` float table: ``%.16e`` (or ``line``) in one ``%``."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    line = line or ",".join(["%.16e"] * cols) + "\n"
    return (line * rows) % tuple(table.ravel().tolist())


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# flag plumbing
# ---------------------------------------------------------------------------


def _add_basis_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", help="map family kind (default identity)")
    p.add_argument("--params", help="family parameters as a JSON object")
    p.add_argument("--psi-expr", dest="psi_expr", help="expression in x; shorthand for a generalized family")
    p.add_argument("--scheme", help="node scheme: cgl (default) or equispaced")
    p.add_argument("--N", type=int, help="node count minus one")
    p.add_argument("--domain", help="domain as 'a,b' (b may be inf)")
    p.add_argument("--nodes", help="explicit nodes as comma-separated values")


def _parse_domain(text: str):
    try:
        a_s, b_s = text.split(",")
        return float(a_s), float(b_s)
    except ValueError:
        raise UsageError(f"--domain expects 'a,b', got {text!r}") from None


def _family_from_flags(args) -> dict:
    """The family entry that ``--family``, ``--params`` and ``--psi-expr`` describe.

    Empty when none of them is given; ``--params`` alone is an error.
    """
    psi_expr = getattr(args, "psi_expr", None)
    params = _json_flag(args.params, "--params") if args.params else {}
    if psi_expr:
        if args.family and args.family != "generalized":
            raise UsageError("--psi-expr conflicts with --family")
        return {"kind": "generalized", "params": {"expr": psi_expr, **params}}
    if args.family:
        return {"kind": args.family, "params": params}
    if args.params:
        raise UsageError("--params needs --family or --psi-expr")
    return {}


def _json_flag(text: str, flag: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{flag} is not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise UsageError(f"{flag} must be a JSON object")
    return value


def _basis_from_flags(args):
    domain = _parse_domain(args.domain) if args.domain else (-1.0, 1.0)
    n = args.N
    if args.nodes:
        if args.scheme:
            raise UsageError("--scheme conflicts with --nodes")
        try:
            values = [float(tok) for tok in args.nodes.split(",")]
        except ValueError:
            raise UsageError(f"--nodes expects comma-separated numbers") from None
        if n is not None and n + 1 != len(values):
            raise UsageError(f"--N {n} needs {n + 1} nodes, --nodes lists {len(values)}")
        nodes = {"values": values, "scheme": "user-supplied"}
    else:
        nodes = {"scheme": args.scheme} if args.scheme else {}
        n = 8 if n is None else n
    return basis_from_spec(_family_from_flags(args), nodes, n, domain)


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    family = _family_from_flags(args)
    if family:
        cfg["family"] = family
    if args.scheme:
        cfg["nodes"] = {"scheme": args.scheme}
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_basis(args) -> int:
    basis = _basis_from_flags(args)
    table = np.column_stack([np.arange(basis.size), basis.nodes.nodes, basis.mu,
                             basis.wprime_at_nodes, basis.wsecond_at_nodes])
    csv = "j,x_j,mu_j,wprime_j,wsecond_j\n" + _table(table, "%d" + ",%.16e" * 4 + "\n")
    if args.out:
        _write_text(args.out, csv)
        summary = {
            "kind": basis.psi.kind,
            "size": basis.size,
            "domain": list(basis.nodes.domain),
            "scheme": basis.nodes.scheme,
            "out": args.out,
        }
        print(json.dumps(summary))
    else:
        _write_text(None, csv)
    return 0


def _cmd_diffmat(args) -> int:
    basis = _basis_from_flags(args)
    m = args.order
    if args.route == "power":
        mat = dm_power_classical(basis, m)
    elif args.route == "oracle":
        mat = dm_oracle_fd(basis, m, step=args.fd_step)
    else:  # auto, closed-form, recurrence: dm_matrix is the closed form at order 1
        if args.route == "closed-form" and m != 1:
            raise UsageError("--route closed-form only provides order 1")
        mat = dm_matrix(basis, m)
    _write_text(args.out, _table(mat.entries))
    return 0


def _cmd_interp(args) -> int:
    basis = _basis_from_flags(args)
    tree = exprlang.parse_expr(args.expr)
    ys = np.asarray(
        exprlang.eval_expr(tree, {"x": basis.nodes.nodes}), dtype=float
    )
    ys = np.broadcast_to(ys, (basis.size,)).copy()
    interp = interpolate_1d(basis, ys)
    if args.out:
        save_interpolant(interp, args.out)
    if args.samples:
        a, b = basis.nodes.domain
        end = b if math.isfinite(b) else basis.nodes.nodes[-1]
        xs = np.linspace(a, end, args.samples)
        us = eval_interpolant(interp, xs)
        _write_text(args.samples_out, "x,u\n" + _table(np.column_stack([xs, us])))
    if args.out:
        print(json.dumps({"size": basis.size, "out": args.out}))
    elif not args.samples:
        print(json.dumps(interpolant_to_json(interp)))
    return 0


def _samples_csv(axes, grid) -> str:
    """``x1,...,xp,u`` rows on the tensor grid of ``axes``, last index fastest.

    Each node is formatted once per axis and every grid value once; the
    coordinate prefixes, which hold no ``%``, become the format string.
    """
    dim = len(axes)
    header = (",".join(f"x{d + 1}" for d in range(dim)) if dim > 1 else "x") + ",u\n"
    prefixes = [["%.16e," % x for x in axis.tolist()] for axis in axes]
    line = "%.16e\n".join(map("".join, itertools.product(*prefixes))) + "%.16e\n"
    return header + line % tuple(grid.ravel().tolist())


def _cmd_solve(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    problem = problem_from_config(cfg)
    bases = bases_from_config(cfg, n_override=args.N)
    system = assemble_collocation_nd(problem, bases)
    options = SolveOptions()
    if args.tol is not None:
        options.tol = args.tol
    if args.max_iter is not None:
        options.max_iterations = args.max_iter
    result = solve_system(system, options)

    report = {
        "size": system.size,
        "rows": dict(collections.Counter(system.row_roles)),
        "linear": result.linear,
        "route": result.route,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
    }
    if result.cond_estimate is not None:
        report["cond_estimate"] = result.cond_estimate

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_interpolant(result.interpolant, os.path.join(args.out, "solution.json"))
        csv = _samples_csv([b.nodes.nodes for b in bases], result.interpolant.coeffs)
        _write_text(os.path.join(args.out, "samples.csv"), csv)
        report_text = json.dumps(report, indent=2) + "\n"
        _write_text(os.path.join(args.out, "residual_report.json"), report_text)
    print(json.dumps(report))
    return 0


def _max_error_vs_exact(cfg: dict, bases, result) -> float:
    """Max error against ``exact`` on an equispaced tensor grid over the domain.

    The grid has 201 points in 1-D and 41 per dimension above (1,681 in
    2-D); a semi-infinite domain is sampled up to its last node.
    """
    exact_src = cfg.get("exact")
    if not exact_src:
        raise UsageError("converge needs an 'exact' expression in the config")
    tree = exprlang.parse_expr(exact_src)
    dim = len(bases)
    axes = []
    for basis in bases:
        a, b = basis.nodes.domain
        end = b if math.isfinite(b) else basis.nodes.nodes[-1]
        axes.append(np.linspace(a, end, 201 if dim == 1 else 41))
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    env = {_coord_name(d, dim): points[:, d] for d in range(dim)}
    exact = np.asarray(exprlang.eval_expr(tree, env), dtype=float)
    approx = eval_interpolant(result.interpolant, points)
    return float(np.max(np.abs(approx - np.broadcast_to(exact, approx.shape))))


def _cmd_converge(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    try:
        ns = [int(tok) for tok in args.N.split(",")]
    except ValueError:
        raise UsageError(f"--N expects comma-separated integers, got {args.N!r}") from None
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise UsageError("--N must list at least two strictly increasing values")
    problem = problem_from_config(cfg)
    lines = ["N,max_error,assemble_ms,solve_ms"]
    for n in ns:
        t0 = time.perf_counter()
        bases = bases_from_config(cfg, n_override=n)
        system = assemble_collocation_nd(problem, bases)
        t1 = time.perf_counter()
        result = solve_system(system)
        t2 = time.perf_counter()
        err = _max_error_vs_exact(cfg, bases, result)
        lines.append(
            f"{n},{err:.16e},{(t1 - t0) * 1e3:.3f},{(t2 - t1) * 1e3:.3f}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_contour_check(args) -> int:
    basis = _basis_from_flags(args)
    tree = exprlang.parse_expr(args.u_expr)
    unknown = exprlang.expr_variables(tree) - {"x"}
    if unknown:
        raise UsageError(f"--u-expr may only reference 'x', found {sorted(unknown)}")

    def u_fn(z):
        return exprlang.eval_expr(tree, {"x": z})

    u = AnalyticFn(u_fn)
    contour = Contour(complex(args.center), args.radius, args.panels)
    ys = np.asarray(u_fn(basis.nodes.nodes), dtype=float)
    ys = np.broadcast_to(ys, (basis.size,)).copy()
    interp = interpolate_1d(basis, ys)

    a, b = basis.nodes.domain
    end = b if math.isfinite(b) else basis.nodes.nodes[-1]
    xs = np.linspace(a, end, args.points)
    table = np.empty((xs.size, 6))
    for i, x in enumerate(xs.tolist()):
        direct = eval_interpolant(interp, x)
        panel = _panel(basis, u, x, contour)
        ci = contour_interpolant(basis, u, x, contour, panel=panel)
        ce = contour_error(basis, u, x, contour, panel=panel)
        direct_err = direct - float(np.real(u_fn(x)))
        disc = max(abs(ci - direct), abs(ce - direct_err))
        table[i] = (x, direct, ci.real, direct_err, ce.real, disc)
    header = "x,direct_uN,contour_uN,direct_err,contour_err,abs_discrepancy\n"
    _write_text(args.out, header + _table(table))
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The ``dlf`` parser, built once per process (``parse_args`` leaves it unchanged)."""
    parser = _Parser(prog="dlf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("basis", help="validate a basis and dump its nodes")
    _add_basis_flags(p)
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("diffmat", help="emit a derivative matrix as CSV")
    _add_basis_flags(p)
    p.add_argument("--order", type=int, default=1, help="derivative order m")
    p.add_argument(
        "--route",
        choices=("auto", "closed-form", "recurrence", "power", "oracle"),
        default="auto",
        help="construction route (auto: closed form for m=1, recurrence above)",
    )
    p.add_argument("--fd-step", dest="fd_step", type=float, help="oracle step scale")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_diffmat)

    p = sub.add_parser("interp", help="interpolate an expression and sample it")
    _add_basis_flags(p)
    p.add_argument("--expr", required=True, help="function of x to interpolate")
    p.add_argument("--samples", type=int, help="sample count for a CSV dump")
    p.add_argument("--samples-out", dest="samples_out", help="samples CSV path")
    p.add_argument("--out", help="interpolant JSON path")
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("solve", help="solve a collocation problem from a config")
    p.add_argument("--config", required=True, help="problem config JSON path")
    p.add_argument("--N", type=int, help="override the config node parameter")
    p.add_argument("--family", help="override the config family kind")
    p.add_argument("--params", help="family parameters for --family")
    p.add_argument("--scheme", help="override the node scheme")
    p.add_argument("--tol", type=float, help="nonlinear residual tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="Newton iteration cap")
    p.add_argument("--out", help="output directory for solution artifacts")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="N-sweep over a config, report errors")
    p.add_argument("--config", required=True, help="problem config JSON path")
    p.add_argument("--N", required=True, help="comma-separated increasing N values")
    p.add_argument("--family", help="override the config family kind")
    p.add_argument("--params", help="family parameters for --family")
    p.add_argument("--scheme", help="override the node scheme")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("contour-check", help="direct vs contour-integral evaluation")
    _add_basis_flags(p)
    p.add_argument("--u-expr", dest="u_expr", default="exp(x)", help="analytic test function")
    p.add_argument("--center", default="0", help="circle center (complex literal)")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--panels", type=int, default=256)
    p.add_argument("--points", type=int, default=20, help="sample point count")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=_cmd_contour_check)

    return parser


def _fail(code: int, tag: str, message: str, detail: dict | None = None) -> int:
    body = {"error": tag, "message": message}
    if detail:
        body.update(detail)
    print(json.dumps(body), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see dlf --help)")
        return args.func(args)
    except UsageError as e:
        return _fail(1, "usage", str(e))
    except FileNotFoundError as e:
        return _fail(1, "missing-file", str(e))
    except json.JSONDecodeError as e:
        return _fail(1, "malformed-config", str(e))
    except (KeyError, TypeError, ValueError) as e:
        return _fail(1, "malformed-config", f"{type(e).__name__}: {e}")
    except DlfError as e:
        return _fail(2, e.code, str(e), e.payload())
    except Exception as e:  # pragma: no cover - last-resort mapping
        return _fail(2, "internal", f"{type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())
