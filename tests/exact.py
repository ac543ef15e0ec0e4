"""Cardinal functions in exact rational arithmetic: a reference for the float kernel.

:func:`exact_table` forms every

    L_j(x) = prod_{i != j} (psi_i(x) - psi_i(x_i)) / (psi_i(x_j) - psi_i(x_i))

in :class:`fractions.Fraction` from the very float nodes, parameters and
points of an ``identity`` or ``rational`` basis (scalar or per-index ``L``,
either variant), and rounds once, at the end.  What it leaves between
itself and a float table is the float code's error alone.
"""

from fractions import Fraction
from math import prod

import numpy as np


def _maps(basis):
    """``psi_i`` on one :class:`Fraction`, for every index ``i``."""
    psi = basis.psi
    if psi.kind == "identity":
        return [lambda t: t] * psi.size
    if psi.kind == "rational":
        shifted = psi.params["variant"] == "(x-L)/(x+L)"
        return [
            lambda t, L=Fraction(float(L)): (t - L if shifted else t) / (t + L)
            for L in psi.params["L"]
        ]
    raise ValueError(f"no exact maps for kind {psi.kind!r}")


def exact_table(basis, xs) -> np.ndarray:
    """Every ``L_j`` at the float points ``xs``, exact and then rounded: shape ``(size, K)``."""
    maps = _maps(basis)
    nodes = [Fraction(float(x)) for x in basis.nodes.nodes]
    own = [psi(x) for psi, x in zip(maps, nodes)]
    size = len(nodes)
    gaps = [
        prod(maps[i](nodes[j]) - own[i] for i in range(size) if i != j) for j in range(size)
    ]
    out = np.empty((size, len(xs)))
    for k, x in enumerate(xs):
        terms = [psi(Fraction(float(x))) - o for psi, o in zip(maps, own)]
        for j in range(size):
            num = prod(terms[i] for i in range(size) if i != j)
            out[j, k] = float(num / gaps[j])
    return out
