"""Collocation assembly and solution for differential problems.

A problem couples a residual expression (the differential operator applied
to ``u``), a right-hand side, and endpoint conditions per dimension.  The
conditions fix the problem's shape: dimension ``d`` has ``v1`` conditions
on its face ``a`` and ``v2`` on its face ``b``, and the equation there is of
order ``v1 + v2``.  On a tensor grid of ``prod (N_i + 1)`` unknown nodal
values the assembled system has exactly that many equations.  Derivatives
are always applied through the operational matrices, so the system is
algebraic in the nodal values.

Every block of rows is a *box*: one row slice per dimension of the nodal
grid and one derivative matrix ``D_d^(k)`` (``None`` for ``k = 0``) per
dimension.  Its values are the matrices applied along their axes, then
sliced; its Jacobian rows are the same slices of their Kronecker product.

- interior rows: one box per u-symbol over the interior nodes (per
  dimension the ``v1`` leading and ``v2`` trailing nodes are dropped),
  combined by the residual expression, minus the right-hand side;
- condition rows: one box per condition, minus its data.  An order-``k``
  condition on a face of dimension ``d`` has ``D_d^(k)`` in ``d`` and
  ``None`` elsewhere; its rows are the face's endpoint in ``d``, the
  interior nodes in earlier dimensions and all nodes in later ones.  So a
  grid point dropped in several dimensions gets its row from the lowest
  one, and every dropped node index backs exactly one condition row.

Row order: all interior rows (C-order), then face-``a`` rows
("initial"), then face-``b`` rows ("boundary"), each condition block
ordered by dimension, then by condition derivative order, then C-order
over its box.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import exprlang
# solver.validate_basis is not called here; it stays because perfbench/tracing.py patches it
from .basis import basis_from_spec, validate_basis
from .diffmat import dm_matrix
from .errors import (
    AssemblyError,
    ExprDiffError,
    InvalidParameterError,
    NewtonError,
    SingularSystemError,
)
from .interp import TensorInterpolant

__all__ = [
    "CollocationProblem",
    "CollocationSystem",
    "SolveOptions",
    "SolveResult",
    "assemble_collocation_nd",
    "solve_system",
    "problem_from_config",
    "bases_from_config",
    "load_config",
    "solve_config",
]

_DU_RE = re.compile(r"^d(\d*)u$")

_ENDPOINT_TOL = 1e-12


def _deriv_orders_from_name(name: str, dim: int):
    """Map a residual symbol to its per-dimension derivative orders.

    Returns a tuple of ``dim`` integers, or ``None`` when the symbol is not
    a ``u``-symbol.  One-dimensional problems use ``u, du, d2u, ...``;
    multi-dimensional problems use ``u`` and ``u_k1,...,kp``.
    """
    if name == "u":
        return (0,) * dim
    m = _DU_RE.match(name)
    if m is not None:
        if dim != 1:
            raise InvalidParameterError(
                f"symbol {name!r} is one-dimensional; use u_k1,...,kp for {dim} dimensions"
            )
        return (int(m.group(1) or 1),)
    if name.startswith("u_"):
        try:
            orders = tuple(int(tok) for tok in name[2:].split(","))
        except ValueError:
            return None
        if len(orders) != dim:
            raise InvalidParameterError(
                f"symbol {name!r} has {len(orders)} indices for {dim} dimensions"
            )
        return orders
    return None


def _coord_name(d: int, dim: int) -> str:
    return "x" if dim == 1 else f"x{d + 1}"


@dataclass(eq=False)
class CollocationProblem:
    """Differential problem data: operator, right-hand side, conditions.

    ``conditions`` entries are dicts ``{"face": "a1" | "b1" | ..., "order":
    k, "expr": text}``; the expression gives the condition value and may
    reference the coordinates of the other dimensions (a constant for 1-d
    problems).  The problem's shape is counted, not declared: ``dim`` is the
    number of domains, ``splits[d]`` the numbers ``(v1, v2)`` of conditions
    on faces ``a`` and ``b`` of dimension ``d``, and ``orders[d] = v1 + v2``
    the equation order there.  Whether the problem is linear is not an input
    either: assembly decides it from the residual's partial derivatives in
    the ``u``-symbols (see :func:`detect_linear`).
    """

    domains: list
    residual: str
    rhs: str
    conditions: list
    # counted from domains and conditions in __post_init__
    dim: int = field(init=False)
    orders: list = field(init=False)
    splits: list = field(init=False)
    # parsed trees, filled in __post_init__
    _residual_tree: object = field(default=None, init=False, repr=False)
    _rhs_tree: object = field(default=None, init=False, repr=False)
    # {(d, side): [(order, tree)] sorted by order} for every face
    _faces: dict = field(default=None, init=False, repr=False)
    # [(symbol, orders, dR/dsymbol)] for every u-symbol in the residual
    _partials: list = field(default=None, init=False, repr=False)

    def __post_init__(self):
        p = self.dim = len(self.domains)
        if p < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {p}")
        self.domains = [(float(a), float(b)) for a, b in self.domains]
        for d, (a, b) in enumerate(self.domains):
            if not a < b:
                raise InvalidParameterError(f"dimension {d + 1}: domain [{a}, {b}] is empty")

        self._faces = {(d, side): [] for d in range(p) for side in "ab"}
        for cond in self.conditions:
            d, side, order, tree = self._parse_condition(cond)
            self._faces[d, side].append((order, tree))
        self.splits = [(len(self._faces[d, "a"]), len(self._faces[d, "b"])) for d in range(p)]
        self.orders = [v1 + v2 for v1, v2 in self.splits]
        for (d, side), conds in self._faces.items():
            conds.sort(key=lambda c: c[0])
            ks = [k for k, _ in conds]
            if len(set(ks)) != len(ks) or not all(0 <= k < self.orders[d] for k in ks):
                raise InvalidParameterError(
                    f"dimension {d + 1} face {side!r}: condition orders {ks} must be "
                    f"distinct and below the {self.orders[d]} conditions of the dimension"
                )

        self._residual_tree = exprlang.parse_expr(self.residual)
        self._rhs_tree = exprlang.parse_expr(self.rhs)

        coords = {_coord_name(d, p) for d in range(p)}
        self._partials = []
        for name in sorted(exprlang.expr_variables(self._residual_tree)):
            orders = _deriv_orders_from_name(name, p)
            if orders is None:
                if name not in coords:
                    raise InvalidParameterError(
                        f"residual references unknown symbol {name!r}"
                    )
                continue
            for d, k in enumerate(orders):
                if not 0 <= k <= self.orders[d]:
                    raise InvalidParameterError(
                        f"residual derivative {name!r} needs {k} conditions in "
                        f"dimension {d + 1}, got {self.orders[d]}"
                    )
            try:
                partial = exprlang.diff_expr(self._residual_tree, name)
            except ExprDiffError as exc:
                raise ExprDiffError(
                    f"residual is not differentiable in {name!r}: {exc}"
                ) from None
            self._partials.append((name, orders, partial))
        extra = exprlang.expr_variables(self._rhs_tree) - coords
        if extra:
            raise InvalidParameterError(
                f"right-hand side may only reference coordinates, found {sorted(extra)}"
            )

    def _parse_condition(self, cond: dict):
        face = str(cond["face"])
        m = re.match(r"^([ab])(\d*)$", face)
        if m is None:
            raise InvalidParameterError(f"condition face {face!r} must look like 'a1' or 'b2'")
        side = m.group(1)
        d = int(m.group(2)) - 1 if m.group(2) else 0
        if not 0 <= d < self.dim:
            raise InvalidParameterError(
                f"condition face {face!r} names dimension {d + 1} of {self.dim}"
            )
        order = int(cond.get("order", 0))
        tree = exprlang.parse_expr(str(cond["expr"]))
        allowed = {_coord_name(dd, self.dim) for dd in range(self.dim) if dd != d}
        extra = exprlang.expr_variables(tree) - allowed
        if extra:
            raise InvalidParameterError(
                f"condition on face {face!r} may only reference {sorted(allowed)}, "
                f"found {sorted(extra)}"
            )
        return (d, side, order, tree)


def detect_linear(problem: CollocationProblem) -> bool:
    """True when no partial derivative of the residual references a u-symbol."""
    unknowns = {name for name, _, _ in problem._partials}
    return not any(
        exprlang.expr_variables(partial) & unknowns for _, _, partial in problem._partials
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _along(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` applied to every fibre of ``arr`` along ``axis``."""
    return np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)


class _Box(NamedTuple):
    """A block of rows: a box of the nodal grid under one matrix per dimension."""

    rows: tuple  # one slice per dimension
    mats: tuple  # one derivative matrix, or None for the identity, per dimension
    data: np.ndarray | None = None  # a condition's data, in the box's shape


def _apply(box: _Box, grid: np.ndarray) -> np.ndarray:
    """The box's values: each matrix applied along its axis, then the box indexed."""
    for axis, mat in enumerate(box.mats):
        if mat is not None:
            grid = _along(mat, grid, axis)
    return grid[box.rows]


def _kron(box: _Box, shape: tuple) -> np.ndarray:
    """The box's rows of the Kronecker product of its matrices."""
    factors = [
        (np.eye(n) if mat is None else mat)[rows]
        for n, mat, rows in zip(shape, box.mats, box.rows)
    ]
    # the ones seed makes the product a fresh array, safe to scale in place
    return reduce(np.kron, factors, np.ones((1, 1)))


def _coords(bases, rows) -> dict:
    """Every coordinate over the box ``rows`` of the nodal grid, by name."""
    xs = [b.nodes.nodes[r] for b, r in zip(bases, rows)]
    grids = np.meshgrid(*xs, indexing="ij", copy=False)
    return {_coord_name(d, len(xs)): g for d, g in enumerate(grids)}


@dataclass(eq=False)
class CollocationSystem:
    """Assembled square system over the flat vector of nodal values.

    Its rows are boxes (see the module docstring): ``_derivs`` holds the
    interior box of each u-symbol, ``_conds`` the condition boxes in row
    order.  ``row_roles`` names each row ``"interior"``, ``"initial"``
    (face ``a``) or ``"boundary"`` (face ``b``).
    """

    problem: CollocationProblem
    bases: list
    size: int
    row_roles: list
    is_linear: bool
    # internal plumbing
    _shape: tuple = field(default=None, repr=False)
    _interior: tuple = field(default=None, repr=False)  # one slice per dimension
    _derivs: list = field(default=None, repr=False)  # [(symbol, box, partial)]
    _conds: list = field(default=None, repr=False)  # [box with data]
    _int_env: dict = field(default=None, repr=False)  # coordinates over _interior
    _rhs: np.ndarray = field(default=None, repr=False)  # right-hand side over _interior

    def _grid_and_env(self, u_flat: np.ndarray):
        """The nodal grid and the interior binding of coordinates and u-symbols."""
        u_flat = np.asarray(u_flat, dtype=float)
        if u_flat.shape != (self.size,):
            raise InvalidParameterError(
                f"expected a flat vector of {self.size} values, got {u_flat.shape}"
            )
        grid = u_flat.reshape(self._shape)
        env = dict(self._int_env)
        for name, box, _ in self._derivs:
            env[name] = _apply(box, grid)
        return grid, env

    def evaluate_residual(self, u_flat: np.ndarray) -> np.ndarray:
        grid, env = self._grid_and_env(u_flat)
        res = exprlang.eval_expr(self.problem._residual_tree, env) - self._rhs
        pieces = [res] + [_apply(box, grid) - box.data for box in self._conds]
        return np.concatenate([piece.ravel() for piece in pieces])

    def evaluate_jacobian(self, u_flat: np.ndarray) -> np.ndarray:
        """Exact Jacobian of the residual at ``u_flat``.

        Interior rows are ``sum_s diag(dR/ds) kron_d D_d^(k_s)`` over the
        u-symbols ``s``, restricted to the interior rows of each factor;
        condition rows are the Kronecker rows of their boxes.
        """
        _, env = self._grid_and_env(u_flat)
        interior = np.zeros((self._rhs.size, self.size))
        for _, box, partial in self._derivs:
            block = _kron(box, self._shape)
            vals = np.asarray(exprlang.eval_expr(partial, env), dtype=float)
            block *= np.broadcast_to(vals, self._rhs.shape).reshape(-1, 1)
            interior += block
        return np.concatenate([interior] + [_kron(box, self._shape) for box in self._conds])


def _is_face(node: float, face: float) -> bool:
    """``node`` sits on the finite domain end ``face`` (an infinite end holds no node)."""
    return bool(np.isfinite(face)) and abs(node - face) <= _ENDPOINT_TOL * (1 + abs(face))


def assemble_collocation_nd(problem: CollocationProblem, bases) -> CollocationSystem:
    bases = list(bases)
    p = problem.dim
    if len(bases) != p:
        raise AssemblyError(f"problem has {p} dimensions but {len(bases)} bases given")
    shape = tuple(b.size for b in bases)
    for d, b in enumerate(bases):
        v1, v2 = problem.splits[d]
        if b.n < v1 + v2:
            raise AssemblyError(
                f"dimension {d + 1}: N={b.n} is below the equation order {v1 + v2}"
            )
        a_dom, b_dom = problem.domains[d]
        xs = b.nodes.nodes
        if v1 and not _is_face(xs[0], a_dom):
            raise AssemblyError(
                f"dimension {d + 1}: conditions at {a_dom} need it to be the first node "
                f"(found {xs[0]})"
            )
        if v2 and not _is_face(xs[-1], b_dom):
            raise AssemblyError(
                f"dimension {d + 1}: conditions at {b_dom} need it to be the last node "
                f"(found {xs[-1]})"
            )

    # derivative matrices, one per dimension and order
    dmat_cache = {}

    def dmat(d: int, k: int):
        if k == 0:
            return None
        if (d, k) not in dmat_cache:
            psi = bases[d].psi
            if k >= 2 and not psi.is_homogeneous:
                # the recurrence is exact only when every index shares one map
                raise AssemblyError(
                    f"dimension {d + 1}: no exact order-{k} derivative matrix for the "
                    f"heterogeneous {psi.kind!r} family (its maps differ by index)"
                )
            dmat_cache[(d, k)] = dm_matrix(bases[d], k).entries
        return dmat_cache[(d, k)]

    def on_box(tree, env):
        """``tree`` evaluated over the box of the coordinates ``env``, in its shape."""
        vals = np.asarray(exprlang.eval_expr(tree, env), dtype=float)
        return np.broadcast_to(vals, env[_coord_name(0, p)].shape)

    interior = tuple(slice(v1, n - v2) for (v1, v2), n in zip(problem.splits, shape))
    derivs = [
        (name, _Box(interior, tuple(dmat(d, k) for d, k in enumerate(orders))), partial)
        for name, orders, partial in problem._partials
    ]
    int_env = _coords(bases, interior)
    rhs = on_box(problem._rhs_tree, int_env)

    # dimension d owns the rows whose index in d is dropped and whose
    # indices in earlier dimensions are interior
    roles = ["interior"] * rhs.size
    conds = []
    for side, role in (("a", "initial"), ("b", "boundary")):
        for d in range(p):
            end = 0 if side == "a" else shape[d] - 1
            rows = interior[:d] + (slice(end, end + 1),) + (slice(None),) * (p - d - 1)
            for order, tree in problem._faces[d, side]:
                mats = tuple(dmat(d, order) if dd == d else None for dd in range(p))
                conds.append(_Box(rows, mats, on_box(tree, _coords(bases, rows))))
                roles += [role] * conds[-1].data.size

    system = CollocationSystem(
        problem=problem,
        bases=bases,
        size=int(np.prod(shape)),
        row_roles=roles,
        is_linear=detect_linear(problem),
        _shape=shape,
        _interior=interior,
        _derivs=derivs,
        _conds=conds,
        _int_env=int_env,
        _rhs=rhs,
    )
    if len(roles) != system.size:
        raise AssemblyError(
            f"row bookkeeping error: {len(roles)} rows for {system.size} unknowns"
        )
    return system


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


@dataclass
class SolveOptions:
    """Settings of the damped Newton iteration for nonlinear systems.

    Newton starts from ``initial_guess`` (zeros when ``None``), stops once the
    max-norm of the residual is at most ``tol`` (finite and > 0) and fails
    after ``max_iterations`` steps (an integer >= 0).  Each step takes the
    first of the fixed step lengths 1, 1/2, ..., 1/128 that reduces the
    residual.  Linear systems are solved directly; the values are still checked.
    """

    tol: float = 1e-12
    max_iterations: int = 50
    initial_guess: np.ndarray | None = None


# damped Newton step lengths, tried in order: 1, 1/2, ..., 1/128
_STEP_LENGTHS = tuple(0.5**k for k in range(8))


@dataclass(eq=False)
class SolveResult:
    """Solved interpolant plus solve diagnostics.

    ``route`` is ``"diagonalised"`` when a linear system was solved by fast
    diagonalisation and ``"dense"`` otherwise.  ``cond_estimate`` is the
    2-norm condition number of the dense matrix on the dense route, and on
    the diagonalised route the bound ``prod_d cond(P_d) * max|Lambda| /
    min|Lambda|`` on the interior operator (``P_d`` the eigenvector matrix
    of dimension ``d``, ``Lambda`` the sums of one eigenvalue per dimension).
    """

    interpolant: TensorInterpolant
    iterations: int
    residual_norm: float
    linear: bool
    cond_estimate: float | None = None
    route: str = "dense"


_EPS = float(np.finfo(float).eps)

# Fallback thresholds of the diagonalised route, set from measurements (see
# CHANGES.md).  Real spectra seen on the bundled families have cond(P_d) of
# at most 1.4e2; an interior operator with min|Lambda| / max|Lambda| at or
# below _SPREAD_MIN is singular to working precision (u_2,0 - u_0,2 on a
# square grid gives exactly 0); the post-solve residual stayed within 5 eps
# times the operator's scale, so _RESIDUAL_FACTOR leaves 200x headroom.
_KAPPA_MAX = 1e4
_SPREAD_MIN = 1e-12
_RESIDUAL_FACTOR = 1e3


def _separable_blocks(system: CollocationSystem):
    """Per-dimension interior blocks ``A_d`` of a separable linear operator.

    The interior operator is then ``sum_d A_d`` applied along axis ``d``.
    Returns ``None`` unless the problem has two or more dimensions, a linear
    residual whose partials are all constants, u-symbols that each
    differentiate in at most one dimension, and only order-0 conditions.
    """
    if system.problem.dim < 2 or not system.is_linear:
        return None
    if any(k for conds in system.problem._faces.values() for k, _ in conds):
        return None
    rows = system._interior
    blocks = [np.zeros((r.stop - r.start,) * 2) for r in rows]
    for _, box, partial in system._derivs:
        if exprlang.expr_variables(partial):
            return None
        dims = [d for d, mat in enumerate(box.mats) if mat is not None]
        if len(dims) > 1:
            return None
        c = float(exprlang.eval_expr(partial, {}))
        if dims:
            d = dims[0]
            blocks[d] += c * box.mats[d][rows[d], rows[d]]
        else:
            blocks[0] += c * np.eye(len(blocks[0]))
    return blocks


def _solve_diagonalised(system: CollocationSystem, blocks: list):
    """Fast diagonalisation (Lynch, Rice & Thomas 1964).

    The boundary values are the data of the order-0 condition boxes; the
    interior values solve ``sum_d A_d U = F`` through ``A_d = P_d diag(l_d)
    P_d^-1``.  Returns ``(u, residual_norm, cond_estimate)``, or ``None``
    when the spectra or the result fail the fallback checks.
    """
    grid = np.zeros(system._shape)
    for box in system._conds:
        grid[box.rows] = box.data
    base = system.evaluate_residual(grid.ravel())
    try:
        eigs = [np.linalg.eig(a) for a in blocks]
    except np.linalg.LinAlgError:
        return None
    if any(np.iscomplexobj(lam) for lam, _ in eigs):
        return None
    kappa = [float(np.linalg.cond(vec)) for _, vec in eigs]
    if not all(k <= _KAPPA_MAX for k in kappa):
        return None
    total = reduce(np.add.outer, [lam for lam, _ in eigs])
    lo, hi = float(np.min(np.abs(total))), float(np.max(np.abs(total)))
    if not lo > _SPREAD_MIN * hi:
        return None

    x = -base[: total.size].reshape(total.shape)
    for d, (_, vec) in enumerate(eigs):
        x = _along(np.linalg.inv(vec), x, d)
    x /= total
    for d, (_, vec) in enumerate(eigs):
        x = _along(vec, x, d)
    grid[system._interior] = x
    u = grid.ravel()

    res_norm = float(np.max(np.abs(system.evaluate_residual(u))))
    scale = sum(np.linalg.norm(a, np.inf) for a in blocks) * float(np.max(np.abs(u)))
    scale += float(np.max(np.abs(base)))
    if not res_norm <= _RESIDUAL_FACTOR * _EPS * scale:
        return None
    return u, res_norm, float(np.prod(kappa)) * hi / lo


def _lu_solve(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """``mat^-1 rhs`` by LU; an exactly singular ``mat`` raises :class:`SingularSystemError`."""
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            f"{what} is singular", cond_estimate=float(np.linalg.cond(mat))
        ) from None


def _solve_dense(system: CollocationSystem):
    """One LU solve of the exact Jacobian; ``(u, residual_norm, cond)``."""
    m = system.size
    mat = system.evaluate_jacobian(np.zeros(m))
    base = system.evaluate_residual(np.zeros(m))
    cond = float(np.linalg.cond(mat))
    if not cond < 1.0 / _EPS:
        raise SingularSystemError(
            "collocation matrix is numerically singular", cond_estimate=cond
        )
    u = _lu_solve(mat, -base, "collocation matrix")
    return u, float(np.max(np.abs(system.evaluate_residual(u)))), cond


def solve_system(system: CollocationSystem, options: SolveOptions | None = None) -> SolveResult:
    """Solve the collocation system.

    A linear system with a separable operator (see ``_separable_blocks``)
    goes through fast diagonalisation; any other linear system, or one whose
    diagonalisation fails a fallback check, gets one dense LU solve.
    Nonlinear systems run damped Newton on the exact Jacobian.
    """
    opts = options or SolveOptions()
    if not (isinstance(opts.tol, numbers.Real) and 0 < opts.tol < np.inf):
        raise InvalidParameterError(f"tol must be finite and > 0, got {opts.tol!r}")
    if not (_is_int(opts.max_iterations) and opts.max_iterations >= 0):
        raise InvalidParameterError(
            f"max_iterations must be an integer >= 0, got {opts.max_iterations!r}"
        )
    m = system.size
    if opts.initial_guess is not None:
        guess = np.asarray(opts.initial_guess, dtype=float)
        if guess.shape != (m,):
            raise InvalidParameterError(
                f"initial guess must have shape ({m},), got {guess.shape}"
            )
    else:
        guess = np.zeros(m)

    if system.is_linear:
        blocks = _separable_blocks(system)
        fast = None if blocks is None else _solve_diagonalised(system, blocks)
        u, res_norm, cond = fast or _solve_dense(system)
        return SolveResult(
            interpolant=TensorInterpolant(bases=system.bases, coeffs=u),
            iterations=0,
            residual_norm=res_norm,
            linear=True,
            cond_estimate=cond,
            route="dense" if fast is None else "diagonalised",
        )

    u = guess
    res = system.evaluate_residual(u)
    norm = float(np.max(np.abs(res)))
    it = 0
    while not norm <= opts.tol:  # a NaN residual never counts as converged
        if it == opts.max_iterations:
            raise NewtonError(
                "damped Newton did not reach the tolerance", residual_norm=norm, iterations=it
            )
        it += 1
        delta = _lu_solve(system.evaluate_jacobian(u), -res, "Newton Jacobian")
        for lam in _STEP_LENGTHS:
            trial = u + lam * delta
            trial_res = system.evaluate_residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < norm:
                break
        else:
            raise NewtonError(
                "no damped Newton step reduced the residual", residual_norm=norm, iterations=it
            )
        u, res, norm = trial, trial_res, trial_norm
    return SolveResult(
        interpolant=TensorInterpolant(bases=system.bases, coeffs=u),
        iterations=it,
        residual_norm=norm,
        linear=False,
    )


# ---------------------------------------------------------------------------
# JSON problem configs
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _is_pair(v) -> bool:
    return (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(t, numbers.Real) and not isinstance(t, bool) for t in v)
    )


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# what one per-dimension entry of each config key looks like
_CONFIG_ENTRY = {
    "domains": _is_pair,
    "N": _is_int,
    "family": lambda v: isinstance(v, dict),
    "nodes": lambda v: isinstance(v, dict),
}

# the top-level keys a config may hold; orders, splits and linear are
# accepted for older configs and not read
_CONFIG_KEYS = {
    "dim", "domains", "residual", "rhs", "conditions", "family", "nodes", "N", "exact",
    "orders", "splits", "linear",
}


def _per_dim(key: str, value, dim: int) -> list:
    """One entry of config ``key`` per dimension.

    A single entry applies to every dimension; a list of exactly ``dim``
    entries gives one per dimension; anything else is rejected.
    """
    is_entry = _CONFIG_ENTRY[key]
    if is_entry(value):
        return [value] * dim
    if isinstance(value, list) and len(value) == dim and all(map(is_entry, value)):
        return list(value)
    raise InvalidParameterError(
        f"config {key!r} must be one entry or a list of {dim} entries, got {value!r}"
    )


def _config_dim(cfg: dict) -> int:
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise InvalidParameterError(
            f"config may hold only {sorted(_CONFIG_KEYS)}, found unknown key {unknown[0]!r}"
        )
    dim = cfg.get("dim", 1)
    if not _is_int(dim) or dim < 1:
        raise InvalidParameterError(f"config 'dim' must be an integer >= 1, got {dim!r}")
    return dim


def problem_from_config(cfg: dict) -> CollocationProblem:
    return CollocationProblem(
        domains=_per_dim("domains", cfg["domains"], _config_dim(cfg)),
        residual=cfg["residual"],
        rhs=cfg.get("rhs", "0"),
        conditions=cfg.get("conditions", []),
    )


def bases_from_config(cfg: dict, n_override=None) -> list:
    """One basis per dimension; without ``N`` every ``nodes`` entry needs ``values``."""
    dim = _config_dim(cfg)
    n = cfg.get("N") if n_override is None else n_override
    entries = zip(
        _per_dim("family", cfg.get("family", {}), dim),
        _per_dim("nodes", cfg.get("nodes", {}), dim),
        [None] * dim if n is None else _per_dim("N", n, dim),
        _per_dim("domains", cfg["domains"], dim),
    )
    return [basis_from_spec(*entry) for entry in entries]


def solve_config(cfg: dict, n_override=None, options: SolveOptions | None = None) -> SolveResult:
    """Assemble and solve a problem straight from its config dict."""
    problem = problem_from_config(cfg)
    bases = bases_from_config(cfg, n_override=n_override)
    system = assemble_collocation_nd(problem, bases)
    return solve_system(system, options)
