"""Command line front end.

Subcommands: ``basis`` (validate a basis and dump its nodes), ``diffmat``
(emit a derivative matrix as CSV), ``interp`` (build and sample an
interpolant), ``solve`` (run a collocation problem from a JSON config),
``converge`` (N-sweep with error and timing columns), ``contour-check``
(compare direct and contour-integral evaluation).

Exit codes: 0 success, 1 usage or config error, 2 numerical failure.  All
failures write a single-line JSON object to stderr with an ``error`` tag,
a ``message``, and any structured detail the originating exception
carries.  Floating-point output uses 17 significant digits throughout.
Flags override the matching config keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import exprlang
from .basis import (
    NodeSet,
    generate_nodes,
    make_psi_family,
    validate_basis,
)
from .contour import (
    AnalyticFn,
    Contour,
    contour_error,
    contour_interpolant,
)
from .diffmat import (
    d1_matrix,
    dm_matrix,
    dm_oracle_fd,
    dm_power_classical,
)
from .errors import DlfError
from .interp import (
    eval_interpolant,
    interpolant_to_json,
    interpolate_1d,
)
from .solver import (
    SolveOptions,
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


def _fmt(v: float) -> str:
    return f"{float(v):.16e}"


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
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


def _family_from_flags(args, size: int):
    if args.psi_expr:
        if args.family and args.family != "generalized":
            raise UsageError("--psi-expr conflicts with --family")
        params = {"expr": args.psi_expr}
        if args.params:
            params.update(_json_flag(args.params, "--params"))
        return make_psi_family("generalized", params, size=size)
    kind = args.family or "identity"
    params = _json_flag(args.params, "--params") if args.params else {}
    return make_psi_family(kind, params, size=size)


def _json_flag(text: str, flag: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{flag} is not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise UsageError(f"{flag} must be a JSON object")
    return value


def _basis_from_flags(args, default_domain=(-1.0, 1.0)):
    domain = _parse_domain(args.domain) if args.domain else default_domain
    if args.nodes:
        try:
            values = [float(tok) for tok in args.nodes.split(",")]
        except ValueError:
            raise UsageError(f"--nodes expects comma-separated numbers") from None
        node_set = NodeSet(np.asarray(values), domain, "user-supplied")
    else:
        n = args.N if args.N is not None else 8
        a, b = domain
        end = b if math.isfinite(b) else a + 1.0
        node_set = generate_nodes(args.scheme or "cgl", n, a, end)
        if not math.isfinite(b):
            node_set = node_set.with_domain(a, b)
    fam = _family_from_flags(args, size=len(node_set))
    return validate_basis(fam, node_set)


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if getattr(args, "family", None):
        cfg["family"] = {"kind": args.family}
        if getattr(args, "params", None):
            cfg["family"]["params"] = _json_flag(args.params, "--params")
    if getattr(args, "scheme", None):
        cfg["nodes"] = {"scheme": args.scheme}
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_basis(args) -> int:
    basis = _basis_from_flags(args)
    lines = ["j,x_j,mu_j,wprime_j,wsecond_j"]
    for j in range(basis.size):
        lines.append(
            ",".join(
                [str(j)]
                + [
                    _fmt(v)
                    for v in (
                        basis.nodes.nodes[j],
                        basis.mu[j],
                        basis.wprime_at_nodes[j],
                        basis.wsecond_at_nodes[j],
                    )
                ]
            )
        )
    csv = "\n".join(lines) + "\n"
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
    route = args.route
    if route == "auto":
        route = "closed-form" if m == 1 else "recurrence"
    if route == "closed-form":
        if m != 1:
            raise UsageError("--route closed-form only provides order 1")
        mat = d1_matrix(basis)
    elif route == "recurrence":
        mat = dm_matrix(basis, m)
    elif route == "power":
        mat = dm_power_classical(basis, m)
    elif route == "oracle":
        mat = dm_oracle_fd(basis, m, step=args.fd_step)
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown route {route!r}")
    csv = "\n".join(",".join(_fmt(v) for v in row) for row in mat.entries) + "\n"
    _write_text(args.out, csv)
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
        _write_text(args.out, json.dumps(interpolant_to_json(interp), indent=2))
    if args.samples:
        a, b = basis.nodes.domain
        end = b if math.isfinite(b) else basis.nodes.nodes[-1]
        xs = np.linspace(a, end, args.samples)
        us = eval_interpolant(interp, xs)
        lines = ["x,u"] + [f"{_fmt(x)},{_fmt(u)}" for x, u in zip(xs, us)]
        _write_text(args.samples_out, "\n".join(lines) + "\n")
    if args.out:
        print(json.dumps({"size": basis.size, "out": args.out}))
    elif not args.samples:
        _write_text(None, json.dumps(interpolant_to_json(interp), indent=2))
    return 0


def _sampled_rows(bases, coeffs_grid) -> list:
    dim = len(bases)
    header = ",".join([f"x{i+1}" for i in range(dim)] if dim > 1 else ["x"]) + ",u"
    lines = [header]
    node_arrays = [b.nodes.nodes for b in bases]
    for idx in np.ndindex(*coeffs_grid.shape):
        coords = [node_arrays[d][idx[d]] for d in range(dim)]
        lines.append(",".join(_fmt(c) for c in coords) + "," + _fmt(coeffs_grid[idx]))
    return lines


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

    roles = {}
    for role in system.row_roles:
        roles[role] = roles.get(role, 0) + 1
    report = {
        "size": system.size,
        "rows": roles,
        "linear": result.linear,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
    }
    if result.cond_estimate is not None:
        report["cond_estimate"] = result.cond_estimate

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "solution.json"), "w") as fh:
            json.dump(interpolant_to_json(result.interpolant), fh, indent=2)
        grid = (
            result.interpolant.coeffs
            if problem.dim == 1
            else result.interpolant.grid_values()
        )
        rows = _sampled_rows(bases, np.asarray(grid).reshape([b.size for b in bases]))
        _write_text(os.path.join(args.out, "samples.csv"), "\n".join(rows) + "\n")
        with open(os.path.join(args.out, "residual_report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    print(json.dumps(report))
    return 0


def _max_error_vs_exact(cfg: dict, bases, result) -> float:
    exact_src = cfg.get("exact")
    if not exact_src:
        raise UsageError("converge needs an 'exact' expression in the config")
    tree = exprlang.parse_expr(exact_src)
    dim = len(bases)
    if dim == 1:
        a, b = bases[0].nodes.domain
        end = b if math.isfinite(b) else bases[0].nodes.nodes[-1]
        xs = np.linspace(a, end, 201)
        exact = np.asarray(exprlang.eval_expr(tree, {"x": xs}), dtype=float)
        exact = np.broadcast_to(exact, xs.shape)
        approx = eval_interpolant(result.interpolant, xs)
        return float(np.max(np.abs(approx - exact)))
    grids = np.meshgrid(*[b.nodes.nodes for b in bases], indexing="ij")
    env = {f"x{d+1}": grids[d] for d in range(dim)}
    exact = np.broadcast_to(
        np.asarray(exprlang.eval_expr(tree, env), dtype=float), grids[0].shape
    )
    return float(np.max(np.abs(result.interpolant.grid_values() - exact)))


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
            f"{n},{_fmt(err)},{(t1 - t0) * 1e3:.3f},{(t2 - t1) * 1e3:.3f}"
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
    lines = ["x,direct_uN,contour_uN,direct_err,contour_err,abs_discrepancy"]
    for x in xs:
        x = float(x)
        direct = eval_interpolant(interp, x)
        ci = contour_interpolant(basis, u, x, contour)
        ce = contour_error(basis, u, x, contour)
        direct_err = direct - float(np.real(u_fn(x)))
        disc = max(abs(ci - direct), abs(ce - direct_err))
        lines.append(
            ",".join(
                _fmt(v) for v in (x, direct, ci.real, direct_err, ce.real, disc)
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
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
