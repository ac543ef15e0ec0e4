"""Complex contour-integral forms of the interpolant and its error.

Both the interpolant ``u_N(x)`` and the pointwise error ``u_N(x) - u(x)``
can be written as circle integrals of kernels built from the node-product
function ``w``: per basis index ``j`` the kernels are

    interpolant:  psi_j'(t) u(t) (w(t) - w(x)) / (w(t) (psi_j(t) - psi_j(x)))
    error:        psi_j'(t) w(x) u(t) / (w(t) (psi_j(x) - psi_j(t)))

integrated counterclockwise over a circle enclosing the nodes and ``x``,
each divided by ``2*pi*i``, and averaged over ``j``.  The poles inside the
circle sit at the nodes (zeros of ``w``) and, for the error kernel, at
``t = x``; summing residues recovers the cardinal-function expansion.  For
the identity family every ``j``-term is identical and the average
collapses to the single classical Hermite integral, provided here
separately as a cross-check.

Both kernels factor as ``A_j(t) (1 - B(t))`` and ``-A_j(t) B(t)``, with
``A_j = psi_j' u / (psi_j(t) - psi_j(x))`` and ``B = w(x) / w(t)``; only
``A_j`` depends on ``j``, so the ``j``-average is taken of ``A_j`` alone.
When every index shares one map, every ``A_j`` is the same single row.
Quadrature is the periodic trapezoid rule on the circle, evaluated in one
array pass: ``u`` and the maps are sampled once on all panel points, and
each integral is one trapezoid sum.  The rule converges
exponentially in the panel count for integrands analytic in a
neighborhood of the circle.  That analyticity restricts the usable map
families: entire maps (identity, integer-exponent fractional,
exponential, both fourier kinds) always qualify, rational maps qualify
when their poles ``-L_i`` lie outside the circle, and non-integer
fractional exponents are rejected outright because their branch cut
enters the circle.  ``mixed`` and ``generalized`` maps are not supported.

The averaged ``j``-form reproduces ``u(x)`` exactly (interpolant minus
error) for families whose maps are injective inside the circle; for
others :func:`contour_reconstruction_gap` measures the defect instead of
asserting it away.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

# contour.weight_eval is not called here; it stays because perfbench/tracing.py patches it
from .basis import DlfBasis, weight_eval
from .errors import ContourError, InvalidParameterError

__all__ = [
    "Contour",
    "AnalyticFn",
    "trapezoid_contour_quad",
    "contour_interpolant",
    "contour_error",
    "classical_contour_interpolant",
    "classical_contour_error",
    "contour_reconstruction_gap",
    "check_contour_eligibility",
]

#: nodes and evaluation points must keep this fraction of the radius
#: between themselves and the circle
NODE_CLEARANCE = 0.1

_ENTIRE_KINDS = ("identity", "exponential", "fourier-sin", "fourier-cos")


@dataclass(frozen=True)
class Contour:
    """A counterclockwise circle with an equispaced panel count."""

    center: complex = 0j
    radius: float = 1.0
    panels: int = 256

    def __post_init__(self):
        panels = self.panels
        if isinstance(panels, bool) or not (isinstance(panels, numbers.Real) and float(panels).is_integer()):
            raise InvalidParameterError(f"contour panel count must be an integer, got {panels!r}")
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "panels", int(panels))
        if not cmath.isfinite(self.center):
            raise InvalidParameterError(f"contour center must be finite, got {self.center}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidParameterError(f"contour radius must be positive, got {self.radius}")
        if self.panels < 16:
            raise InvalidParameterError(
                f"contour needs at least 16 panels, got {self.panels}"
            )

    def panel_points(self) -> np.ndarray:
        thetas = 2 * np.pi * np.arange(self.panels) / self.panels
        return self.center + self.radius * np.exp(1j * thetas)

    def encloses(self, z, clearance: float = NODE_CLEARANCE) -> bool:
        """True when ``z`` sits inside with the given fractional clearance."""
        return abs(complex(z) - self.center) <= (1.0 - clearance) * self.radius


@dataclass(eq=False)
class AnalyticFn:
    """A complex-callable function with its declared singularities.

    ``fn`` is called once per integral, on the complex array of panel
    points, so it must work elementwise on numpy arrays (a constant may
    come back as a scalar).  The declared ``poles`` (or branch points) are
    the only analyticity check available; a function whose list is
    incomplete is the caller's problem.
    """

    fn: object
    poles: tuple = ()

    def __post_init__(self):
        if not callable(self.fn):
            raise InvalidParameterError("AnalyticFn needs a callable evaluator")
        self.poles = tuple(complex(p) for p in self.poles)

    def __call__(self, z):
        return self.fn(z)


def _as_analytic(u) -> AnalyticFn:
    return u if isinstance(u, AnalyticFn) else AnalyticFn(u)


def _trapezoid(vals, zs, contour: Contour) -> complex:
    """The trapezoid sum of the samples ``vals`` at the panel points ``zs``."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise ContourError(f"integrand not finite at panel point {zs[int(np.argmax(bad))]}")
    units = (zs - contour.center) / contour.radius
    return complex(contour.radius / contour.panels * np.sum(vals * units))


def trapezoid_contour_quad(f, contour: Contour) -> complex:
    """``(1/(2*pi*i)) * contour integral of f`` by the periodic trapezoid rule.

    ``f`` is called once, on the complex array of panel points, and must
    work elementwise (a scalar result is broadcast).  The rule is
    spectrally accurate for integrands analytic near the circle; a
    non-finite sample (a pole on the circle, usually) raises
    :class:`ContourError` naming the panel point.
    """
    zs = contour.panel_points()
    with np.errstate(all="ignore"):
        return _trapezoid(np.broadcast_to(f(zs), zs.shape), zs, contour)


def check_contour_eligibility(basis: DlfBasis, contour: Contour, u=None, targets=()):
    """Raise :class:`ContourError` unless the integrands are analytic where needed.

    Checks the map family kind, the rational poles and any declared poles
    of ``u`` against the circle, and the clearance of nodes and extra
    target points.
    """
    kind = basis.psi.kind
    if kind in _ENTIRE_KINDS:
        pass
    elif kind == "fractional":
        delta = basis.psi.params["delta"]
        if abs(delta - round(delta)) > 1e-12:
            raise ContourError(
                f"fractional exponent {delta} is not an integer; its branch cut "
                f"crosses the circle interior"
            )
    elif kind == "rational":
        poles = basis.psi.pole_locations()
        k = _first(np.abs(poles - contour.center) <= contour.radius)
        if k is not None:
            raise ContourError(
                f"rational map pole at {poles[k]} lies on or inside the circle "
                f"(center {contour.center}, radius {contour.radius})"
            )
    else:
        raise ContourError(f"family kind {kind!r} is not supported for contour evaluation")
    nodes, targets = basis.nodes.nodes, tuple(targets)
    points = np.concatenate((nodes, targets))
    # "not within", so that a NaN point fails the clearance too
    k = _first(~(np.abs(points - contour.center) <= (1.0 - NODE_CLEARANCE) * contour.radius))
    if k is not None:
        n = len(nodes)
        what = f"node {nodes[k]}" if k < n else f"evaluation point {targets[k - n]}"
        raise ContourError(
            f"{what} misses the required clearance of {NODE_CLEARANCE:.0%} of the radius"
        )
    if u is not None and u.poles:
        k = _first(np.abs(np.asarray(u.poles) - contour.center) <= contour.radius)
        if k is not None:
            raise ContourError(
                f"declared singularity of u at {u.poles[k]} lies on or inside the circle"
            )


def _first(hits: np.ndarray):
    """The index of the first true entry of ``hits``, or None."""
    return int(np.argmax(hits)) if hits.any() else None


@dataclass(frozen=True)
class _Panel:
    """The circle data of one evaluation, built for ``key = (basis, u, x, contour)``.

    Per index ``j`` the interpolant kernel is ``A_j (1 - B)`` and the error
    kernel ``-A_j B``, with ``A_j = psi_j' u / (psi_j - psi_j(x))`` and
    ``B = w(x) / w``, all at the panel points ``zs``.  Only ``A_j`` depends
    on ``j``, so ``a`` is its mean over ``j``: when every index shares one
    map every row of ``A`` is the same, and ``a`` is that one row.  ``b``
    is ``B``; ``ut``/``wt`` hold ``u``/``w`` at ``zs`` and ``wx`` is ``w(x)``.
    """

    key: tuple
    zs: np.ndarray
    ut: np.ndarray
    wt: np.ndarray
    wx: complex
    a: np.ndarray
    b: np.ndarray


def _panel(basis: DlfBasis, u, x, contour: Contour) -> _Panel:
    """Check eligibility, sample ``u``, the maps and ``w`` on the circle, form ``a`` and ``b``."""
    check_contour_eligibility(basis, contour, _as_analytic(u), targets=(x,))
    zs = contour.panel_points()
    psi = basis.psi
    psi_x = psi.values_at(x)
    basis._check_point(x)
    with np.errstate(all="ignore"):
        wx = complex(np.prod(psi_x - basis._psi_own))  # w(x), as weight_eval forms it
        if not cmath.isfinite(wx):
            raise InvalidParameterError(f"node product w is not finite at x = {x}")
        v0 = psi.values_at(zs)
        wt = (v0 - basis._psi_own[:, None]).prod(axis=0)
        ut = np.broadcast_to(u(zs), zs.shape)
        v1 = psi.values_at(zs, order=1)
        if psi.is_homogeneous:
            a = v1[0] * ut / (v0[0] - psi_x[0])
        else:
            a = (v1 * ut / (v0 - psi_x[:, None])).mean(axis=0)
        b = wx / wt
    return _Panel((basis, u, x, contour), zs, ut, wt, wx, a, b)


def _panel_for(basis: DlfBasis, u, x, contour: Contour, panel) -> _Panel:
    p = _panel(basis, u, x, contour) if panel is None else panel
    if p.key != (basis, u, x, contour):
        raise InvalidParameterError("panel data was built for another basis, u, x or contour")
    return p


def contour_interpolant(basis: DlfBasis, u, x, contour: Contour, *, panel=None) -> complex:
    """The interpolant value ``u_N(x)`` computed from the circle integrals.

    One trapezoid sum of ``a (1 - b)``, the ``j``-averaged kernel.  ``panel``,
    built by ``_panel`` for the same arguments, lets a caller that also
    wants :func:`contour_error` at ``x`` evaluate the circle only once.
    """
    p = _panel_for(basis, u, x, contour, panel)
    with np.errstate(all="ignore"):
        return _trapezoid(p.a * (1 - p.b), p.zs, contour)


def contour_error(basis: DlfBasis, u, x, contour: Contour, *, panel=None) -> complex:
    """The signed interpolation error ``u_N(x) - u(x)`` from the circle integrals."""
    p = _panel_for(basis, u, x, contour, panel)
    with np.errstate(all="ignore"):
        return _trapezoid(-p.a * p.b, p.zs, contour)


def _require_identity(basis: DlfBasis):
    if basis.psi.kind != "identity":
        raise ContourError(
            f"the single-kernel classical form needs the identity family, "
            f"got {basis.psi.kind!r}"
        )


def classical_contour_interpolant(basis: DlfBasis, u, x, contour: Contour) -> complex:
    """Single-kernel Hermite form of ``u_N(x)`` (identity family only)."""
    _require_identity(basis)
    p = _panel(basis, u, x, contour)
    with np.errstate(all="ignore"):
        return _trapezoid(p.ut * (p.wt - p.wx) / (p.wt * (p.zs - x)), p.zs, contour)


def classical_contour_error(basis: DlfBasis, u, x, contour: Contour) -> complex:
    """Single-kernel Hermite form of ``u_N(x) - u(x)`` (identity family only)."""
    _require_identity(basis)
    p = _panel(basis, u, x, contour)
    with np.errstate(all="ignore"):
        return _trapezoid(p.wx * p.ut / (p.wt * (x - p.zs)), p.zs, contour)


def contour_reconstruction_gap(basis: DlfBasis, u, x, contour: Contour) -> float:
    """``|(interpolant integral) - (error integral) - u(x)|``.

    Zero (to quadrature accuracy) when every map is injective inside the
    circle; reported as a measurement, not asserted, for families where
    the extra preimages of ``psi_j(x)`` contribute spurious residues.
    """
    p = _panel(basis, u, x, contour)
    ui = contour_interpolant(basis, u, x, contour, panel=p)
    ue = contour_error(basis, u, x, contour, panel=p)
    return abs(ui - ue - complex(u(x)))
