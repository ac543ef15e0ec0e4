"""Derivative operational matrices for the generalized Lagrange bases.

``D^(m)`` maps nodal values to nodal values of the m-th derivative of the
interpolant: row ``k`` holds the derivatives of every basis function at
node ``x_k``.  Four constructions are provided:

- :func:`d1_matrix` — the first-order matrix in closed form from the cached
  ``w`` derivatives,
- :func:`dm_matrix` — higher orders through a product-rule recurrence that
  differentiates in the mapped variable (exact whenever all maps coincide),
- :func:`dm_power_classical` — the classical route ``(D^(1))^m``, which
  agrees with the recurrence only for the identity map and is kept as the
  comparison point,
- :func:`dm_oracle_fd` — an independent finite-difference check built on
  nothing but basis evaluation.

Row sums of the exact constructions vanish precisely when the basis
reproduces constants, i.e. for families whose maps coincide or are affinely
related; heterogeneous families have measurably nonzero row sums, so no
row-sum check is enforced at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import DlfBasis, _table
from .errors import FdStepError, InvalidParameterError

__all__ = [
    "DiffMatrix",
    "PROVENANCES",
    "d1_matrix",
    "dm_matrix",
    "dm_power_classical",
    "dm_oracle_fd",
]

PROVENANCES = ("closed-form", "recurrence", "classical-power", "fd-oracle")


@dataclass(eq=False)
class DiffMatrix:
    """Dense derivative matrix of a fixed order with its construction route.

    ``entries[k, j]`` is the m-th derivative of basis function ``j`` at
    node ``x_k``.
    """

    order: int
    entries: np.ndarray
    provenance: str

    def __post_init__(self):
        if self.order < 1:
            raise InvalidParameterError(f"derivative order must be >= 1, got {self.order}")
        if self.provenance not in PROVENANCES:
            raise InvalidParameterError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise InvalidParameterError(
                f"entries must be square, got shape {self.entries.shape}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise InvalidParameterError("matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def d1_matrix(basis: DlfBasis) -> DiffMatrix:
    """First-order derivative matrix from the cached ``w`` derivatives.

    Off-diagonal entries are ``[w'(x_k)/w'(x_j)] * psi_j'(x_j) /
    (psi_j(x_k) - psi_j(x_j))``; the diagonal is
    ``w''(x_j)/(2 w'(x_j)) - psi_j''(x_j)/(2 psi_j'(x_j))``.
    """
    wp = basis.wprime_at_nodes
    # f_tab[j, k] = psi_j(x_k) - psi_j(x_j); transposing puts (row, col) =
    # (evaluation node k, basis index j)
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = (wp[:, None] / wp[None, :]) * basis._dpsi_own[None, :] / basis._f_tab.T
    np.fill_diagonal(
        entries,
        basis.wsecond_at_nodes / (2.0 * wp)
        - basis._d2psi_own / (2.0 * basis._dpsi_own),
    )
    return DiffMatrix(order=1, entries=entries, provenance="closed-form")


def dm_matrix(basis: DlfBasis, m: int) -> DiffMatrix:
    """Derivative matrix of order ``m`` by the mapped-variable recurrence.

    ``D^(m) = (sum_{k=0}^{m-1} C(m-1,k) P^(k) D^(m-1-k)) P^{-1} D^(1)``
    with ``D^(0) = I``.  Each step differentiates once more and converts
    between the physical and mapped variables through ``P``; the result
    equals the true derivative matrix whenever all maps coincide, and for
    the identity map it collapses to the matrix power.
    """
    if m < 1:
        raise InvalidParameterError(f"derivative order must be >= 1, got {m}")
    d1 = d1_matrix(basis)
    if m == 1:
        return d1
    xs = basis.nodes.nodes
    # p[k][i] = psi_i^(k+1)(x_i); the basis caches the first two, and validate_basis
    # keeps the slope p[0] away from 0
    p = [basis._dpsi_own, basis._d2psi_own] + [
        np.diag(basis.psi.values_at(xs, order=k + 1)) for k in range(2, m)
    ]
    size = basis.size
    pinv_d1 = (1.0 / p[0])[:, None] * d1.entries
    mats = [np.eye(size), d1.entries]
    for mm in range(2, m + 1):
        acc = np.zeros((size, size))
        for k in range(mm):
            acc += math.comb(mm - 1, k) * p[k][:, None] * mats[mm - 1 - k]
        mats.append(acc @ pinv_d1)
    return DiffMatrix(order=m, entries=mats[m], provenance="recurrence")


def dm_power_classical(basis: DlfBasis, m: int) -> DiffMatrix:
    """The m-th matrix power of the first-order matrix.

    Exact for the identity map only; shipped to make the gap to
    :func:`dm_matrix` observable rather than folklore.
    """
    if m < 1:
        raise InvalidParameterError(f"derivative order must be >= 1, got {m}")
    d1 = d1_matrix(basis)
    if m == 1:
        return d1
    return DiffMatrix(
        order=m,
        entries=np.linalg.matrix_power(d1.entries, m),
        provenance="classical-power",
    )


# Central stencils of fourth-order accuracy: (offsets, coefficients, h power).
_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12), 1),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), 2),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3),
}

# Relative step per order, scaled by the mean node gap.  The stencil for
# order m divides by h^m, which amplifies the cancellation noise of
# psi(x_k + d) - psi(x_k); the step must therefore grow with the order to
# stay above the noise floor while the fourth-order stencils keep the
# larger truncation in check.
_DEFAULT_STEP = {1: 1e-3, 2: 1e-2, 3: 5e-2}

_RICHARDSON_DISAGREEMENT_LIMIT = 1e-4


def dm_oracle_fd(basis: DlfBasis, m: int, step: float | None = None) -> DiffMatrix:
    """Finite-difference estimate of ``D^(m)`` from basis evaluation alone.

    Central differences at three step sizes ``h, h/2, h/4`` (relative
    ``step`` times the mean node gap) are combined pairwise by Richardson
    extrapolation; the finer extrapolant is returned.  Disagreement between
    the two extrapolants beyond ``1e-4`` raises :class:`FdStepError`: the
    step is outside the window where cancellation noise (too small) and
    stencil truncation (too large) both stay resolvable.

    Stencil points may leave the declared domain by a few steps; evaluation
    here goes through the raw product, which is defined there for every
    shipped family.
    """
    if m not in _STENCILS:
        raise InvalidParameterError(
            f"oracle supports orders {sorted(_STENCILS)}, got {m}"
        )
    if step is None:
        step = _DEFAULT_STEP[m]
    if not (step > 0 and np.isfinite(step)):
        raise InvalidParameterError(f"step must be positive, got {step}")

    xs = basis.nodes.nodes
    size = basis.size
    mean_gap = (xs[-1] - xs[0]) / (size - 1)
    offsets, coeffs, hpow = _STENCILS[m]
    shifts = np.array([off for off in offsets if off != 0], dtype=float)

    def matrix_at(scale: float) -> np.ndarray:
        with np.errstate(all="ignore"):
            h = step * mean_gap * scale
            hm = h**hpow
            # every off-node stencil point at once, one (k, j) block per shift
            pts = xs[None, :] + shifts[:, None] * h
            vals = _table(basis, pts.ravel())
            blocks = iter(vals.reshape(size, len(shifts), size).transpose(1, 2, 0))
            out = np.zeros((size, size))
            for off, c in zip(offsets, coeffs):
                if off == 0:
                    out[np.diag_indices(size)] += c  # delta_kj, exact by construction
                else:
                    out += c * next(blocks)
            out /= hm
        # a table entry or h**m that is not finite leaves a non-finite or a zero matrix
        if not (np.isfinite(hm) and np.isfinite(out).all()):
            raise InvalidParameterError(
                f"finite-difference stencil of order {m} at step {h:.3e} is not finite; "
                "the domain is too wide or too narrow for the oracle"
            )
        return out

    a1, a2, a3 = matrix_at(1.0), matrix_at(0.5), matrix_at(0.25)
    r_coarse = (16.0 * a2 - a1) / 15.0
    r_fine = (16.0 * a3 - a2) / 15.0
    disagreement = float(np.max(np.abs(r_coarse - r_fine)))
    if disagreement > _RICHARDSON_DISAGREEMENT_LIMIT:
        raise FdStepError(
            f"step {step:g} is unreliable for order {m}: Richardson levels "
            f"disagree by {disagreement:.3e}",
            disagreement,
        )
    return DiffMatrix(order=m, entries=r_fine, provenance="fd-oracle")
