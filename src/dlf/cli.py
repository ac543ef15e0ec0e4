"""Command line front end.

Subcommands: ``basis`` (validate a basis and dump its nodes), ``diffmat``
(emit a derivative matrix as CSV), ``interp`` (build and sample an
interpolant), ``solve`` (run a collocation problem from a JSON config),
``converge`` (N-sweep with error and timing columns), ``contour-check``
(compare direct and contour-integral evaluation).  An argv that starts with
a subcommand's name goes straight to that subcommand's parser, and any other
(none, ``--help``, an unknown name) to the full parser: one pass either way.

Exit codes: 0 success, 1 usage, config or file error (``io`` for an
``OSError`` such as a directory at an output path), 2 numerical failure.
All failures write a single-line JSON object to stderr with an ``error``
tag, a ``message``, and any structured detail the originating exception
carries.  CSV numbers are written as ``%.16e`` (17 significant digits); a
large all-float table goes through one vectorised formatter whose text is
identical, and what it declines falls back to ``%``.  JSON floats use
Python's shortest round-trip ``repr``.  Flags override the matching config
keys.

Every artifact goes through ``interp.write_artifact``: a regular file with
one link at the path is unlinked and created again, so its mode comes from
the umask; anything else there (a symlink, a device, a FIFO) is written
through in place.  A write that fails leaves a partial file.
"""

from __future__ import annotations

import argparse
import collections
import functools
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
    write_artifact,
)
from .solver import (
    SolveOptions,
    _coord_name,
    _coords,
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
        if message.endswith("expected one argument"):  # as after "--domain -1,1"
            flag = message.split()[1].rstrip(":").split("/")[-1]
            message += f"; a value that starts with '-' needs the {flag}=VALUE form, as in --domain=-1,1"
        raise UsageError(message)


def _table(table, line: str | None = None) -> str:
    """CSV lines of a ``(rows, cols)`` float table: ``%.16e`` (or ``line``) in one ``%``.

    A table of at least ``_E16_MIN_VALUES`` values in the default format
    goes through ``_e16_text``, which writes the same bytes; a table it
    declines takes the ``%`` line.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    if line is None and table.size >= _E16_MIN_VALUES:
        text = _e16_text(table)
        if text is not None:
            return text
    line = line or ",".join(["%.16e"] * cols) + "\n"
    return (line * rows) % tuple(table.ravel().tolist())


# ---------------------------------------------------------------------------
# %.16e text in numpy passes
# ---------------------------------------------------------------------------

# below this many values one ``%`` is faster than ``_e16_text`` (they break even
# at about 150 values of a 2-column table, median of 300 interleaved calls each)
_E16_MIN_VALUES = 160
# ``_e16_text`` takes 10**-_E16_RANGE <= |x| < 10**_E16_RANGE (and zeros): there the
# Dekker splits of |x| and of 10**(16 - e) stay finite and normal
_E16_RANGE = 280
_SPLITTER = 134217729.0  # 2**27 + 1


@functools.cache
def _pow10(k: int) -> tuple[float, float]:
    """``10**k`` as ``hi + lo``: ``hi`` correctly rounded, ``lo`` the rounded remainder."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division rounds correctly
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _split(a):
    """Dekker's split of ``a`` into two halves of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, e):
    """``a * 10**(16 - e)`` as an unevaluated pair ``hi + lo`` (Dekker's product, no FMA).

    ``hi`` is the rounded product and ``lo`` the sum of its error and
    ``a`` times the power's remainder; the pair is off by less than 2**-46
    where it lies in [1e16, 1e17).
    """
    k = 16 - e
    k0 = int(k.min())
    ph, pl = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)]).T
    ph, pl = ph[k - k0], pl[k - k0]
    h = a * ph
    ah, al = _split(a)
    bh, bl = _split(ph)
    return h, (((ah * bh - h) + ah * bl + al * bh) + al * bl) + a * pl


def _round_exact(a: float, e: int) -> int:
    """``a * 10**(16 - e)`` rounded half-even, in Python ints."""
    num, den = a.as_integer_ratio()
    if e <= 16:
        num *= 10 ** (16 - e)
    else:
        den *= 10 ** (e - 16)
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q & 1))


@functools.cache
def _e16_words():
    """uint32 words of NUL-padded text: 20 heads (sign, lead digit, '.') and 10**4 4-digit groups."""
    heads = [(b"-" * neg + b"%d." % d).ljust(4, b"\0") for neg in (0, 1) for d in range(10)]
    pairs = np.frombuffer(b"".join([b"%02d" % i for i in range(100)]), np.uint8).reshape(100, 2)
    digits = np.empty((100, 100, 4), np.uint8)
    digits[:, :, :2] = pairs[:, None]
    digits[:, :, 2:] = pairs
    return np.frombuffer(b"".join(heads), np.uint32), digits.view(np.uint32).ravel()


@functools.cache
def _exponent_words(e: int) -> bytes:
    """``e`` as ``%.16e`` ends a value, then ``,`` or ``\\n``: two words each, NUL-padded."""
    return b"".join([(b"e%+03d" % e + sep).ljust(8, b"\0") for sep in (b",", b"\n")])


def _e16_text(table) -> str | None:
    """The CSV text of a float table as ``"%.16e"`` writes it, or None when declined.

    Each value's 17 significant digits come from a double-double product
    rounded half-even; fractions within 2**-40 of one half are rounded again
    exactly.  A table holding a non-finite, subnormal or out-of-range value
    is declined whole.
    """
    x = table.ravel()
    a = np.abs(x)
    zero = a == 0
    if not (zero | ((a >= 10.0**-_E16_RANGE) & (a < 10.0**_E16_RANGE))).all():
        return None
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    h, lo = _scaled(a, e)
    # log10 may miss by one: move e where the pair lies outside [1e16, 1e17)
    off = ((h - 1e17) + lo >= 0).astype(np.int64) - ((h - 1e16) + lo < 0)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        h[redo], lo[redo] = _scaled(a[redo], e[redo])
    whole = np.floor(lo)
    frac = lo - whole
    q = h.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    for i in np.flatnonzero(np.abs(frac - 0.5) < 2.0**-40).tolist():
        q[i] = _round_exact(float(a[i]), int(e[i]))
    carry = q == 10**17
    q[carry] = 10**16
    e += carry
    q[zero] = 0
    e[zero] = 0
    if not (zero | ((q >= 10**16) & (q < 10**17))).all():
        return None
    heads, digits = _e16_words()
    # q = lead|g1|g2 (9 digits) and g3|g4 (8 digits), split by floor division
    top = q // 10**8
    low = q - top * 10**8
    head = top // 10**4
    lead = head // 10**4
    g3 = low // 10**4
    words = np.empty((x.size, 7), np.uint32)
    words[:, 0] = heads[np.signbit(x) * 10 + lead]
    words[:, 1] = digits[head - lead * 10**4]
    words[:, 2] = digits[top - head * 10**4]
    words[:, 3] = digits[g3]
    words[:, 4] = digits[low - g3 * 10**4]
    e0 = int(e.min())
    exps = b"".join([_exponent_words(j) for j in range(e0, int(e.max()) + 1)])
    last = (np.arange(table.shape[1]) == table.shape[1] - 1).astype(np.int64)
    exps = np.frombuffer(exps, np.uint32).reshape(-1, 2, 2)[e.reshape(table.shape) - e0, last]
    words[:, 5:] = exps.reshape(-1, 2)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        write_artifact(path, text)


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


def _x_function(basis, text: str, flag: str):
    """The expression ``text`` in ``x`` alone as a function, and its values at the nodes."""
    tree = exprlang.parse_expr(text)
    unknown = exprlang.expr_variables(tree) - {"x"}
    if unknown:
        raise UsageError(f"{flag} may only reference 'x', found {sorted(unknown)}")

    def fn(z):
        return exprlang.eval_expr(tree, {"x": z})

    ys = np.asarray(fn(basis.nodes.nodes), dtype=float)
    return fn, np.broadcast_to(ys, (basis.size,)).copy()


def _sample_points(basis, count: int) -> np.ndarray:
    """``count`` equispaced points on the domain ``[a, b]``, or on ``[a, x_N]`` when ``b = inf``."""
    if count < 0:
        raise UsageError(f"sample count must be non-negative, got {count}")
    a, b = basis.nodes.domain
    return np.linspace(a, b if math.isfinite(b) else basis.nodes.nodes[-1], count)


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
    if args.samples_out and not args.samples:
        raise UsageError("--samples-out needs --samples with a positive count")
    basis = _basis_from_flags(args)
    interp = interpolate_1d(basis, _x_function(basis, args.expr, "--expr")[1])
    xs = _sample_points(basis, args.samples) if args.samples else None
    if args.out:
        save_interpolant(interp, args.out)
    if xs is not None:
        us = eval_interpolant(interp, xs)
        _write_text(args.samples_out, "x,u\n" + _table(np.column_stack([xs, us])))
    if args.out:
        print(json.dumps({"size": basis.size, "out": args.out}))
    elif not args.samples:
        print(json.dumps(interpolant_to_json(interp)))
    return 0


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
        coords = _coords(bases, (slice(None),) * len(bases))  # by name, last index fastest
        table = np.column_stack([g.ravel() for g in coords.values()] + [result.interpolant.coeffs])
        _write_text(os.path.join(args.out, "samples.csv"), ",".join([*coords, "u\n"]) + _table(table))
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
    axes = [_sample_points(basis, 201 if dim == 1 else 41) for basis in bases]
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
    u_fn, ys = _x_function(basis, args.u_expr, "--u-expr")
    u = AnalyticFn(u_fn)
    try:
        center = complex(args.center)
    except ValueError:
        raise UsageError(f"--center expects a complex literal such as 0.5+1j, got {args.center!r}") from None
    contour = Contour(center, args.radius, args.panels)
    interp = interpolate_1d(basis, ys)
    xs = _sample_points(basis, args.points)
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

    parser.subcommands = sub.choices  # name -> parser, for main's one-pass dispatch
    return parser


def _fail(code: int, tag: str, message: str, detail: dict | None = None) -> int:
    body = {"error": tag, "message": message}
    if detail:
        body.update(detail)
    print(json.dumps(body), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in parser.subcommands:  # what the full parser would hand on
            args = parser.subcommands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see dlf --help)")
        return args.func(args)
    except UsageError as e:
        return _fail(1, "usage", str(e))
    except FileNotFoundError as e:
        return _fail(1, "missing-file", str(e))
    except OSError as e:  # a directory at an output path, a refused write, ...
        return _fail(1, "io", str(e))
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
