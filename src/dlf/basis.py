"""Generalized Lagrange bases built from per-index mapping functions.

A basis on nodes ``x_0 < ... < x_N`` assigns to every index ``i`` a smooth
map ``psi_i`` and defines the cardinal functions

    L_j(x) = prod_{i != j} (psi_i(x) - psi_i(x_i)) / (psi_i(x_j) - psi_i(x_i)).

With ``psi_i(x) = x`` for every ``i`` this is the classical Lagrange basis;
other maps produce fractional, rational, exponential, and trigonometric
interpolants on the same nodes.  The basis exists whenever every map
separates the nodes (``psi_i(x_j) != psi_i(x_i)`` for ``i != j``) and has a
nonzero slope at its own node; :func:`validate_basis` enforces both with an
absolute tolerance and precomputes every quantity the rest of the package
needs (first and second derivatives of the node-product function ``w`` at
the nodes, and the scale factors ``mu_j``).

Two evaluation routes exist for ``L_j``: the product above (authoritative,
used everywhere) and the ratio form ``mu_j * w(x) / (psi_j(x) - psi_j(x_j))``
(:func:`dlf_eval_via_weight`), which is exact away from the nodes and kept
as an independent cross-check.

Note on constant reproduction: ``sum_j L_j(x) = 1`` holds for every ``x``
exactly when all maps coincide (or differ by affine transformations).
Families whose maps genuinely vary with the index, such as ``exponential``
with distinct rates or ``mixed``, interpolate but do not reproduce
constants away from the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    DegenerateDerivativeError,
    DerivativeOrderError,
    DomainError,
    InvalidParameterError,
    SeparationError,
    UnsupportedKindError,
)

__all__ = [
    "PsiFamily",
    "NodeSet",
    "DlfBasis",
    "make_psi_family",
    "generate_nodes",
    "validate_basis",
    "weight_eval",
    "dlf_eval",
    "dlf_eval_via_weight",
    "lagrange_values",
    "lagrange_matrix",
    "dlf_limit",
    "FAMILY_KINDS",
    "TAU_SEP",
]

#: absolute separation tolerance for the basis existence conditions
TAU_SEP = 1e-10

FAMILY_KINDS = (
    "identity",
    "fractional",
    "generalized",
    "rational",
    "exponential",
    "fourier-sin",
    "fourier-cos",
    "mixed",
)

_RATIONAL_VARIANTS = ("x/(x+L)", "(x-L)/(x+L)")

# practical cap for kinds whose derivatives exist in closed form at any order
_UNBOUNDED_ORDER = 100


def _as_param_array(value, size: int, name: str) -> np.ndarray:
    """Broadcast a scalar or validate a length-``size`` sequence."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(size, float(arr))
    if arr.shape != (size,):
        raise InvalidParameterError(
            f"{name} must be a scalar or a sequence of length {size}, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


@dataclass
class PsiFamily:
    """A family of per-index maps ``psi_i``, with closed-form derivatives.

    Construct through :func:`make_psi_family`; the fields here are
    normalized (scalar parameters broadcast to per-index arrays, the
    ``generalized`` expression parsed and its derivative chain cached).

    Attributes
    ----------
    kind : str
        One of :data:`FAMILY_KINDS`.
    size : int
        Number of indices, equal to the node count ``N + 1``.
    params : dict
        The normalized constructor parameters.
    limit_values : numpy.ndarray or None
        Finite limits ``beta_i = lim_{x->+inf} psi_i(x)`` where they exist
        (populated for the rational variants, ``None`` otherwise).
    max_derivative_order : int
        Highest derivative order available in closed form.
    """

    kind: str
    size: int
    params: dict
    limit_values: np.ndarray | None = None
    max_derivative_order: int = _UNBOUNDED_ORDER
    # cached derivative expressions for the generalized kind
    _deriv_chain: list = field(default_factory=list, repr=False)

    # -- evaluation ---------------------------------------------------------

    def value(self, i: int, x, order: int = 0):
        """``psi_i`` or one of its derivatives at ``x`` (scalar, may be complex)."""
        if not 0 <= i < self.size:
            raise InvalidParameterError(f"map index {i} outside 0..{self.size - 1}")
        return self.values_at(x, order)[i]

    def values_at(self, x, order: int = 0):
        """All ``psi_i^(order)(x)`` as an array of shape ``(size,)``.

        ``x`` may also be a 1-d array of points, giving shape ``(size, K)``.
        """
        if order < 0:
            raise DerivativeOrderError(f"negative derivative order {order}")
        if order > self.max_derivative_order:
            raise DerivativeOrderError(
                f"derivative order {order} exceeds closed-form limit "
                f"{self.max_derivative_order} for kind {self.kind!r}"
            )
        x = np.asarray(x)
        scalar = x.ndim == 0
        pts = x.reshape(1) if scalar else x
        out = self._values(pts, order)  # (size, K)
        return out[:, 0] if scalar else out

    def _values(self, pts: np.ndarray, order: int) -> np.ndarray:
        kind = self.kind
        if kind == "identity":
            if order == 0:
                row = pts.astype(pts.dtype, copy=True)
            elif order == 1:
                row = np.ones_like(pts)
            else:
                row = np.zeros_like(pts)
            return np.tile(row, (self.size, 1))
        if kind == "fractional":
            delta = self.params["delta"]
            coeff = 1.0
            for k in range(order):
                coeff *= delta - k
            if coeff == 0.0:
                return np.zeros((self.size, len(pts)), dtype=pts.dtype)
            with np.errstate(all="ignore"):
                row = coeff * np.power(pts, delta - order)
            return np.tile(row, (self.size, 1))
        if kind == "generalized":
            expr = self._deriv_expr(order)
            with np.errstate(all="ignore"):
                row = np.broadcast_to(
                    exprlang._eval(expr, {"x": pts}), pts.shape
                ).astype(np.result_type(pts, float))
            return np.tile(row, (self.size, 1))
        if kind == "rational":
            L = self.params["L"][:, None]
            shifted = pts[None, :] + L
            with np.errstate(all="ignore"):
                if order == 0:
                    if self.params["variant"] == "x/(x+L)":
                        return pts[None, :] / shifted
                    return (pts[None, :] - L) / shifted
                strength = L if self.params["variant"] == "x/(x+L)" else 2.0 * L
                sign = 1.0 if order % 2 == 1 else -1.0
                return sign * math.factorial(order) * strength / shifted ** (order + 1)
        if kind == "exponential":
            w = self.params["rates"][:, None]
            return w ** order * np.exp(w * pts[None, :])
        if kind in ("fourier-sin", "fourier-cos"):
            w = self.params["freqs"][:, None]
            phase = w * pts[None, :] + order * np.pi / 2
            trig = np.sin if kind == "fourier-sin" else np.cos
            return w ** order * trig(phase)
        if kind == "mixed":
            split = self.params["split"]
            w_exp = self.params["rates"][: split + 1, None]
            w_sin = self.params["freqs"][split + 1 :, None]
            top = w_exp ** order * np.exp(w_exp * pts[None, :])
            bottom = w_sin ** order * np.sin(w_sin * pts[None, :] + order * np.pi / 2)
            return np.concatenate([top, bottom], axis=0)
        raise UnsupportedKindError(f"unknown family kind {kind!r}")

    def _deriv_expr(self, order: int):
        while len(self._deriv_chain) <= order:
            prev = self._deriv_chain[-1]
            self._deriv_chain.append(exprlang.diff_expr(prev, "x", 1))
        return self._deriv_chain[order]

    # -- structural queries -------------------------------------------------

    @property
    def is_homogeneous(self) -> bool:
        """True when every index uses the same map (constants are reproduced)."""
        if self.kind in ("identity", "fractional", "generalized"):
            return True
        if self.kind == "rational":
            L = self.params["L"]
            return bool(np.all(L == L[0]))
        if self.kind == "exponential":
            w = self.params["rates"]
            return bool(np.all(w == w[0]))
        if self.kind in ("fourier-sin", "fourier-cos"):
            w = self.params["freqs"]
            return bool(np.all(w == w[0]))
        return False

    def pole_locations(self) -> np.ndarray:
        """Real singularities of the maps (rational kind only)."""
        if self.kind == "rational":
            return -self.params["L"]
        return np.empty(0)


def make_psi_family(kind: str, params: dict | None = None, *, size: int) -> PsiFamily:
    """Construct and validate a map family of the given kind.

    Parameters per kind (scalars broadcast across indices):

    - ``identity``: none
    - ``fractional``: ``delta`` (> 0)
    - ``generalized``: ``expr`` (map source text in ``x``), optional
      ``max_derivative_order`` (default 10)
    - ``rational``: ``L`` (> 0, scalar or per-index), optional ``variant``
      (``"x/(x+L)"``, the default, or ``"(x-L)/(x+L)"``)
    - ``exponential``: optional ``rates`` (nonzero; default ``1..size``)
    - ``fourier-sin`` / ``fourier-cos``: optional ``freqs`` (nonzero;
      default ``1..size``)
    - ``mixed``: ``split`` (index of the last exponential entry); indices
      ``i <= split`` use ``exp(rate_i * x)`` with default rate ``i + 1``,
      indices ``i > split`` use ``sin(i * x)``

    The default exponential rates and Fourier frequencies are the shifted
    index ``i + 1``: the unshifted index would make entry 0 a constant map,
    which never satisfies the basis existence conditions.
    """
    params = dict(params or {})
    if size < 2:
        raise InvalidParameterError(f"family size must be at least 2, got {size}")
    if kind == "identity":
        _reject_extras(params, ())
        return PsiFamily("identity", size, {})
    if kind == "fractional":
        _reject_extras(params, ("delta",))
        delta = float(params.get("delta", 0.0))
        if not (delta > 0 and np.isfinite(delta)):
            raise InvalidParameterError(f"fractional exponent must be > 0, got {delta}")
        return PsiFamily("fractional", size, {"delta": delta})
    if kind == "generalized":
        _reject_extras(params, ("expr", "max_derivative_order"))
        src = params.get("expr")
        if not src:
            raise InvalidParameterError("generalized kind requires an 'expr' parameter")
        tree = exprlang.parse_expr(src)
        unknown = exprlang.expr_variables(tree) - {"x"}
        if unknown:
            raise InvalidParameterError(
                f"generalized map may only reference 'x', found {sorted(unknown)}"
            )
        max_order = int(params.get("max_derivative_order", 10))
        if max_order < 2:
            # basis validation caches w'' and therefore needs two derivatives
            raise InvalidParameterError("max_derivative_order must be >= 2")
        fam = PsiFamily(
            "generalized",
            size,
            {"expr": src, "max_derivative_order": max_order},
            max_derivative_order=max_order,
        )
        fam._deriv_chain.append(tree)
        return fam
    if kind == "rational":
        _reject_extras(params, ("L", "variant"))
        if "L" not in params:
            raise InvalidParameterError("rational kind requires an 'L' parameter")
        L = _as_param_array(params["L"], size, "L")
        if np.any(L <= 0):
            raise InvalidParameterError("rational scale parameters must be positive")
        variant = params.get("variant", "x/(x+L)")
        if variant not in _RATIONAL_VARIANTS:
            raise UnsupportedKindError(
                f"rational variant must be one of {_RATIONAL_VARIANTS}, got {variant!r}"
            )
        return PsiFamily(
            "rational",
            size,
            {"L": L, "variant": variant},
            limit_values=np.ones(size),
        )
    if kind == "exponential":
        _reject_extras(params, ("rates",))
        rates = _as_param_array(
            params.get("rates", np.arange(1, size + 1, dtype=float)), size, "rates"
        )
        if np.any(rates == 0):
            raise InvalidParameterError("exponential rates must be nonzero")
        return PsiFamily("exponential", size, {"rates": rates})
    if kind in ("fourier-sin", "fourier-cos"):
        _reject_extras(params, ("freqs",))
        freqs = _as_param_array(
            params.get("freqs", np.arange(1, size + 1, dtype=float)), size, "freqs"
        )
        if np.any(freqs == 0):
            raise InvalidParameterError("fourier frequencies must be nonzero")
        return PsiFamily(kind, size, {"freqs": freqs})
    if kind == "mixed":
        _reject_extras(params, ("split", "rates", "freqs"))
        if "split" not in params:
            raise InvalidParameterError("mixed kind requires a 'split' parameter")
        split = int(params["split"])
        if not 0 <= split <= size - 1:
            raise InvalidParameterError(
                f"mixed split must lie in 0..{size - 1}, got {split}"
            )
        rates = _as_param_array(
            params.get("rates", np.arange(1, size + 1, dtype=float)), size, "rates"
        )
        freqs = _as_param_array(
            params.get("freqs", np.arange(0, size, dtype=float)), size, "freqs"
        )
        if np.any(rates[: split + 1] == 0):
            raise InvalidParameterError("mixed exponential rates must be nonzero")
        if np.any(freqs[split + 1 :] == 0):
            raise InvalidParameterError("mixed sine frequencies must be nonzero")
        return PsiFamily(
            "mixed", size, {"split": split, "rates": rates, "freqs": freqs}
        )
    raise UnsupportedKindError(f"unknown family kind {kind!r}")


def _reject_extras(params: dict, allowed: tuple):
    extras = set(params) - set(allowed)
    if extras:
        raise InvalidParameterError(f"unexpected parameters {sorted(extras)}")


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class NodeSet:
    """Strictly increasing interpolation nodes inside a domain ``[a, b]``.

    ``b`` may be ``+inf`` (nodes stay finite); that is only meaningful for
    map kinds with a finite limit at infinity and is checked when a basis
    is validated.
    """

    nodes: np.ndarray
    domain: tuple
    scheme: str = "user-supplied"

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        a, b = self.domain
        if self.nodes.ndim != 1 or len(self.nodes) < 2:
            raise InvalidParameterError("a node set needs at least two nodes")
        if not np.all(np.isfinite(self.nodes)):
            raise InvalidParameterError("nodes must be finite")
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidParameterError("nodes must be strictly increasing")
        if not np.isfinite(a) or math.isnan(b):
            raise InvalidParameterError(f"bad domain [{a}, {b}]")
        if not a < b:
            raise InvalidParameterError(f"domain requires a < b, got [{a}, {b}]")
        slack = 1e-12 * max(1.0, abs(a), abs(self.nodes[-1]))
        if self.nodes[0] < a - slack or (np.isfinite(b) and self.nodes[-1] > b + slack):
            raise DomainError(
                f"nodes [{self.nodes[0]}, {self.nodes[-1]}] exceed domain [{a}, {b}]"
            )
        self.domain = (float(a), float(b))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n(self) -> int:
        """Polynomial-style degree parameter: node count minus one."""
        return len(self.nodes) - 1

    def with_domain(self, a: float, b: float) -> "NodeSet":
        """Same nodes inside a different (for example semi-infinite) domain."""
        return NodeSet(self.nodes.copy(), (a, b), self.scheme)

    def contains(self, x: float) -> bool:
        a, b = self.domain
        slack = 1e-12 * max(1.0, abs(a), abs(self.nodes[-1]))
        return a - slack <= x and (not np.isfinite(b) or x <= b + slack)


def generate_nodes(scheme: str, N: int, a: float, b: float) -> NodeSet:
    """Generate ``N + 1`` nodes on ``[a, b]``.

    Schemes: ``"cgl"`` (Chebyshev-Gauss-Lobatto points ``-cos(k pi / N)``
    mapped affinely onto ``[a, b]``; the default everywhere in this
    package) and ``"equispaced"``.
    """
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidParameterError(f"node generation needs finite a < b, got [{a}, {b}]")
    if scheme == "cgl":
        xi = -np.cos(np.arange(N + 1) * np.pi / N)
        xi = (xi - xi[::-1]) / 2  # enforce exact symmetry
        nodes = a + (b - a) * (xi + 1) / 2
        nodes[0], nodes[-1] = a, b
    elif scheme == "equispaced":
        nodes = np.linspace(a, b, N + 1)
    else:
        raise UnsupportedKindError(f"unknown node scheme {scheme!r}")
    return NodeSet(nodes, (a, b), scheme)


# ---------------------------------------------------------------------------
# validated basis
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DlfBasis:
    """A validated basis with cached node-product derivatives.

    Produced by :func:`validate_basis`.  ``mu``, ``wprime_at_nodes`` and
    ``wsecond_at_nodes`` are the per-node scale factor
    ``mu_j = psi_j'(x_j) / w'(x_j)`` and the first two derivatives of the
    node-product function ``w(x) = prod_i (psi_i(x) - psi_i(x_i))``.
    """

    psi: PsiFamily
    nodes: NodeSet
    mu: np.ndarray
    wprime_at_nodes: np.ndarray
    wsecond_at_nodes: np.ndarray
    tau_sep: float
    # internal caches
    _psi_tab: np.ndarray = field(repr=False, default=None)  # psi_i(x_j)
    _dpsi_tab: np.ndarray = field(repr=False, default=None)  # psi_i'(x_j)
    _f_tab: np.ndarray = field(repr=False, default=None)  # psi_i(x_j) - psi_i(x_i)
    _denom_prod: np.ndarray = field(repr=False, default=None)
    _dpsi_own: np.ndarray = field(repr=False, default=None)  # psi_j'(x_j)
    _d2psi_own: np.ndarray = field(repr=False, default=None)  # psi_j''(x_j)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def n(self) -> int:
        return self.nodes.n

    def _check_point(self, x):
        arr = np.asarray(x)
        if np.iscomplexobj(arr):
            return  # complex evaluation is the contour module's business
        lo, hi = float(np.min(arr)), float(np.max(arr))
        if not (self.nodes.contains(lo) and self.nodes.contains(hi)):
            a, b = self.nodes.domain
            raise DomainError(f"point {x} outside domain [{a}, {b}]")


def validate_basis(psi: PsiFamily, nodes: NodeSet, tau_sep: float = TAU_SEP) -> DlfBasis:
    """Check the basis existence conditions and build the cached tables.

    Raises :class:`SeparationError` if some map fails to separate a pair of
    nodes (``|psi_i(x_j) - psi_i(x_i)| <= tau_sep`` for ``i != j``) and
    :class:`DegenerateDerivativeError` if some map has
    ``|psi_i'(x_i)| <= tau_sep``.  Both tolerances are absolute.
    """
    if psi.size != len(nodes):
        raise InvalidParameterError(
            f"family size {psi.size} does not match node count {len(nodes)}"
        )
    a, b = nodes.domain
    if not np.isfinite(b) and psi.kind not in ("rational", "exponential"):
        raise InvalidParameterError(
            f"semi-infinite domains are only supported for rational and "
            f"exponential kinds, not {psi.kind!r}"
        )

    xs = nodes.nodes
    with np.errstate(all="ignore"):
        psi_tab = psi.values_at(xs)  # (size, size): psi_i(x_j)
        dpsi_tab = psi.values_at(xs, order=1)
    if not (np.all(np.isfinite(psi_tab)) and np.all(np.isfinite(dpsi_tab))):
        raise InvalidParameterError(
            "map values or derivatives are not finite at the nodes "
            "(check the domain against the family kind)"
        )

    own = np.diag(psi_tab)
    f_tab = psi_tab - own[:, None]  # f_i(x_j) = psi_i(x_j) - psi_i(x_i)
    size = psi.size
    off = ~np.eye(size, dtype=bool)
    gaps = np.abs(f_tab)
    bad = off & (gaps <= tau_sep)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise SeparationError(int(i), int(j), float(gaps[i, j]), tau_sep)

    dpsi_own = np.diag(dpsi_tab).copy()
    small = np.abs(dpsi_own) <= tau_sep
    if np.any(small):
        i = int(np.argmax(small))
        raise DegenerateDerivativeError(i, float(dpsi_own[i]), tau_sep)
    d2psi_own = np.diag(psi.values_at(xs, order=2)).copy()

    # row j holds the off-diagonal entries of column j, in row order
    f_off = f_tab.T[off].reshape(size, size - 1)
    denom_prod = np.prod(f_off, axis=1)
    wprime = dpsi_own * denom_prod
    # w''(x_j) = psi_j'' * prod + 2 psi_j' * prod * sum_{s != j} psi_s'(x_j)/f_s(x_j)
    s = np.sum(dpsi_tab.T[off].reshape(size, size - 1) / f_off, axis=1)
    wsecond = (d2psi_own + 2 * dpsi_own * s) * denom_prod
    mu = dpsi_own / wprime  # equals 1 / denom_prod

    return DlfBasis(
        psi=psi,
        nodes=nodes,
        mu=mu,
        wprime_at_nodes=wprime,
        wsecond_at_nodes=wsecond,
        tau_sep=tau_sep,
        _psi_tab=psi_tab,
        _dpsi_tab=dpsi_tab,
        _f_tab=f_tab,
        _denom_prod=denom_prod,
        _dpsi_own=dpsi_own,
        _d2psi_own=d2psi_own,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _terms(basis: DlfBasis, x) -> np.ndarray:
    """``psi_i(x) - psi_i(x_i)``: shape ``(size,)`` for scalar ``x``, else ``(size, K)``."""
    x = np.asarray(x)
    vals = basis.psi.values_at(x.astype(np.result_type(x, float), copy=False))
    np.subtract(vals.T, np.diag(basis._psi_tab), out=vals.T)
    return vals


def weight_eval(basis: DlfBasis, x):
    """The node-product function ``w(x) = prod_i (psi_i(x) - psi_i(x_i))``.

    Zero exactly (not just approximately) when ``x`` is one of the nodes.
    Accepts complex ``x`` for contour integration, and 1-d arrays.
    """
    basis._check_point(x)
    return _terms(basis, x).prod(axis=0)


def dlf_eval(basis: DlfBasis, j: int, x):
    """``L_j`` at ``x`` (scalar or 1-d array) by the defining product: the reference."""
    if not 0 <= j < basis.size:
        raise InvalidParameterError(f"basis index {j} outside 0..{basis.size - 1}")
    basis._check_point(x)
    terms = _terms(basis, x)
    out = None
    for i in range(basis.size):
        if i == j:
            continue
        factor = terms[i] / basis._f_tab[i, j]
        out = factor if out is None else out * factor
    return out


def dlf_eval_via_weight(basis: DlfBasis, j: int, x):
    """``L_j(x)`` through ``mu_j * w(x) / (psi_j(x) - psi_j(x_j))``.

    Independent of :func:`dlf_eval` away from the nodes (where it is 0/0);
    kept as a cross-check of the cached ``mu`` and weight quantities.
    """
    if not 0 <= j < basis.size:
        raise InvalidParameterError(f"basis index {j} outside 0..{basis.size - 1}")
    basis._check_point(x)
    w = weight_eval(basis, x)
    gap = basis.psi.value(j, x) - basis._psi_tab[j, j]
    return basis.mu[j] * w / gap


def lagrange_values(basis: DlfBasis, x) -> np.ndarray:
    """All basis functions at one point: array ``[L_0(x), ..., L_N(x)]``."""
    if np.asarray(x).ndim != 0:
        raise InvalidParameterError("lagrange_values takes one point; use lagrange_matrix")
    basis._check_point(x)
    return _cardinals(basis, _terms(basis, x)[:, None])[:, 0]


def lagrange_matrix(basis: DlfBasis, xs: np.ndarray) -> np.ndarray:
    """Basis functions on many points: shape ``(size, len(xs))``."""
    basis._check_point(xs)
    return _cardinals(basis, _terms(basis, xs))


def _cardinals(basis: DlfBasis, terms: np.ndarray) -> np.ndarray:
    """All ``L_j`` at K points from ``terms = psi_i(x) - psi_i(x_i)``, shape ``(size, K)``.

    Overwrites and returns ``terms``.  Columns without zero or tiny terms
    divide the full product by each term and by ``_denom_prod``.  With two
    or more zeros every ``L_j`` is 0; with one zero at row ``i`` only
    ``L_i`` is nonzero and, like every ``L_j`` of a column with a term at
    or below 1e-150, is formed factor by factor.
    """
    size = basis.size
    with np.errstate(all="ignore"):
        odd = (~(abs(terms).min(axis=0) > 1e-150)).nonzero()[0]
        if len(odd):
            zeros = np.count_nonzero(terms[:, odd] == 0, axis=0)
            one, tiny = odd[zeros == 1], odd[zeros == 0]
            js = np.concatenate(
                [np.argmax(terms[:, one] == 0, axis=0), np.tile(np.arange(size), len(tiny))]
            )
            cols = np.concatenate([one, np.repeat(tiny, size)])
            factors = terms[:, cols] / basis._f_tab[:, js]
            factors[js, np.arange(len(js))] = 1.0
            # down each column in row order, as a scalar loop over r != j would
            slow = factors.prod(axis=0)
        np.divide(terms.prod(axis=0), terms, out=terms)
        terms /= basis._denom_prod[:, None]
    if len(odd):
        terms[:, odd[zeros > 0]] = 0.0
        terms[js, cols] = slow
    return terms


def dlf_limit(basis: DlfBasis, j: int) -> float:
    """The finite limit of ``L_j(x)`` as ``x -> +inf``.

    Requires a family with ``limit_values`` (the rational variants):
    the limit is ``prod_{i != j} (beta_i - psi_i(x_i)) / (psi_i(x_j) - psi_i(x_i))``.
    """
    if basis.psi.limit_values is None:
        raise InvalidParameterError(
            f"kind {basis.psi.kind!r} has no finite limit at infinity"
        )
    if not 0 <= j < basis.size:
        raise InvalidParameterError(f"basis index {j} outside 0..{basis.size - 1}")
    num = basis.psi.limit_values - np.diag(basis._psi_tab)
    keep = np.arange(basis.size) != j
    return np.prod(num[keep] / basis._f_tab[keep, j])
