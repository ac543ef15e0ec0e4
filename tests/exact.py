"""Cardinal functions in exact rational arithmetic: a reference for the float kernel.

:func:`exact_table` forms every

    L_j(x) = prod_{i != j} (psi_i(x) - psi_i(x_i)) / (psi_i(x_j) - psi_i(x_i))

in :class:`fractions.Fraction` from the very float nodes, parameters and
points of an ``identity``, ``rational`` (scalar or per-index ``L``, either
variant), ``fractional`` (integer ``delta``) or ``generalized`` (polynomial
``expr``) basis, and rounds once, at the end.  What it leaves between
itself and a float table is the float code's error alone.

:func:`exact_values` forms an interpolant's value ``sum_j c_j L_j(x)``
from the same inputs in 100-digit decimal arithmetic, which is as exact as
any float comparison can tell and, unlike :class:`Fraction`, fast at
``N = 64``.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import prod

import numpy as np

from dlf import exprlang


def _maps(basis, num):
    """``psi_i`` on one number of type ``num``, for every index ``i``."""
    psi = basis.psi
    if psi.kind == "identity":
        return [lambda t: t] * psi.size
    if psi.kind == "rational":
        shifted = psi.params["variant"] == "(x-L)/(x+L)"
        return [
            lambda t, L=num(float(L)): (t - L if shifted else t) / (t + L)
            for L in psi.params["L"]
        ]
    if psi.kind == "fractional" and psi.params["delta"].is_integer():
        return [lambda t, power=int(psi.params["delta"]): t**power] * psi.size
    if psi.kind == "generalized":
        tree = exprlang.parse_expr(psi.params["expr"])
        return [lambda t: _polynomial(tree, t, num)] * psi.size
    raise ValueError(f"no exact maps for kind {psi.kind!r} with {psi.params}")


def _polynomial(expr, t, num):
    """A polynomial expression at ``t``, its float literals taken exactly as ``num``."""
    if isinstance(expr, exprlang.Num):
        return num(expr.value)
    if isinstance(expr, exprlang.Var):
        return t
    if isinstance(expr, exprlang.Neg):
        return -_polynomial(expr.operand, t, num)
    if isinstance(expr, exprlang.BinOp) and expr.op in "+-*":
        left, right = _polynomial(expr.left, t, num), _polynomial(expr.right, t, num)
        return left + right if expr.op == "+" else left - right if expr.op == "-" else left * right
    if isinstance(expr, exprlang.BinOp) and expr.op == "^" and isinstance(expr.right, exprlang.Num):
        power = expr.right.value
        if power.is_integer() and power >= 0:
            return _polynomial(expr.left, t, num) ** int(power)
    raise ValueError(f"{exprlang.format_expr(expr)!r} is not a polynomial")


def _setup(basis, num):
    """The maps, each ``psi_i(x_i)`` and each gap product, in numbers of type ``num``."""
    maps = _maps(basis, num)
    nodes = [num(float(x)) for x in basis.nodes.nodes]
    own = [psi(x) for psi, x in zip(maps, nodes)]
    size = len(nodes)
    gaps = [
        prod(maps[i](nodes[j]) - own[i] for i in range(size) if i != j) for j in range(size)
    ]
    return maps, own, gaps


def exact_table(basis, xs) -> np.ndarray:
    """Every ``L_j`` at the float points ``xs``, exact and then rounded: shape ``(size, K)``."""
    maps, own, gaps = _setup(basis, Fraction)
    size = len(own)
    out = np.empty((size, len(xs)))
    for k, x in enumerate(xs):
        terms = [psi(Fraction(float(x))) - o for psi, o in zip(maps, own)]
        for j, num in enumerate(_products_but_one(terms)):
            out[j, k] = float(num / gaps[j])
    return out


def _products_but_one(terms) -> list:
    """Every ``prod_{i != j} terms_i``, from the products before and after ``j``."""
    before = [1]
    for t in terms[:-1]:
        before.append(before[-1] * t)
    after = [1]
    for t in reversed(terms[1:]):
        after.append(after[-1] * t)
    return [b * a for b, a in zip(before, reversed(after))]


def exact_values(basis, coeffs, xs) -> np.ndarray:
    """``sum_j c_j L_j`` at the float points ``xs``, in 100 digits and then rounded: shape ``(K,)``.

    Every float converts to :class:`Decimal` exactly and each operation
    rounds at 100 digits, so the result is the exact value to far below
    float resolution, even next to a node; no division by a term is made.
    """
    with localcontext() as ctx:
        ctx.prec = 100
        maps, own, gaps = _setup(basis, Decimal)
        weights = [Decimal(float(c)) / g for c, g in zip(coeffs, gaps)]
        out = np.empty(len(xs))
        for k, x in enumerate(xs):
            terms = [psi(Decimal(float(x))) - o for psi, o in zip(maps, own)]
            # prod_{i != j} terms_i from the products before and after j
            before = [Decimal(1)]
            for t in terms[:-1]:
                before.append(before[-1] * t)
            after, total = Decimal(1), Decimal(0)
            for j in reversed(range(len(terms))):
                total += weights[j] * before[j] * after
                after *= terms[j]
            out[k] = float(total)
    return out
