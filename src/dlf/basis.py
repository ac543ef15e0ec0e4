"""Generalized Lagrange bases built from per-index mapping functions.

A basis on nodes ``x_0 < ... < x_N`` assigns to every index ``i`` a smooth
map ``psi_i`` and defines the cardinal functions

    L_j(x) = prod_{i != j} (psi_i(x) - psi_i(x_i)) / (psi_i(x_j) - psi_i(x_i)).

With ``psi_i(x) = x`` for every ``i`` this is the classical Lagrange basis;
other maps produce fractional, rational, exponential, and trigonometric
interpolants on the same nodes.  The basis exists whenever every map
separates the nodes (``psi_i(x_j) != psi_i(x_i)`` for ``i != j``) and has a
nonzero slope at its own node; :func:`validate_basis` enforces both with an
absolute tolerance and precomputes what every caller needs (the node gaps
and the first derivative of the node-product function ``w`` at the nodes);
its second derivative and the scale factors ``mu_j`` are formed on first read.

Every cardinal column comes from one kernel, ``_block``, in the first
barycentric form ``L_j(x) = P(x) w_j / (psi_j(x) - psi_j(x_j))`` with
``P = prod_i (psi_i(x) - psi_i(x_i))`` and ``w_j`` the reciprocal node-gap
product (Berrut & Trefethen, SIAM Rev. 2004); where ``P`` is zero,
subnormal or not finite, from one fallback, ``_by_factors``.  ``_scaled``
multiplies the kernel's columns by ``P``; ``_table`` also forms again by
factors any column that comes out not finite, for :func:`lagrange_values`,
:func:`lagrange_matrix` (in cache-sized blocks of points, ``_blocks``),
``diffmat.dm_oracle_fd`` and the retried points of
``interp.eval_interpolant``.  A family evaluates each distinct map (same
kind part, same parameter) once per point.  :func:`dlf_eval` forms the
defining product above and is the only reference the kernel is tested
against.

Note on constant reproduction: ``sum_j L_j(x) = 1`` holds for every ``x``
exactly when all maps coincide (or differ by affine transformations).
Families whose maps genuinely vary with the index, such as ``exponential``
with distinct rates or ``mixed``, interpolate but do not reproduce
constants away from the nodes.
"""

from __future__ import annotations

import cmath
import functools
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
    "basis_from_spec",
    "weight_eval",
    "dlf_eval",
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

#: entries per block of a cardinal table (512 KB), so that a block's
#: temporaries stay in a 2 MB L2 cache
_BLOCK_ENTRIES = 2**16

#: a last block of points shorter than this share of a block joins the one
#: before it: each block has a fixed cost, and a short one is mostly that
_SHORT_BLOCK = 0.25

#: the smallest normal float: a cardinal column whose full product is smaller
#: in magnitude, or not finite, cannot scale the kernel's column by it
_TINY = np.finfo(float).tiny

_OVERFLOW = (
    "node-gap products overflow or underflow for kind {!r} at N={}; use fewer nodes or slower-growing maps"
)

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
    # every index's row among the distinct maps (None when there is one map or
    # a map per index), each distinct map's parameter as a column, and the
    # number of exponential maps (their rows come first)
    _row_of: np.ndarray | None = field(init=False, repr=False)
    _w: np.ndarray = field(init=False, repr=False)
    _n_exp: int = field(init=False, repr=False)

    def __post_init__(self):
        # indices share a map when they share its kind part and its parameter
        if self.kind == "mixed":
            sine = np.arange(self.size) > self.params["split"]
            param = np.where(sine, self.params["freqs"], self.params["rates"])
            pairs = list(zip(sine.tolist(), param.tolist()))
        else:
            trig = self.kind in ("fourier-sin", "fourier-cos")
            name = next((k for k in ("L", "rates", "freqs") if k in self.params), None)
            param = self.params[name].tolist() if name else [0.0] * self.size
            pairs = [(trig, v) for v in param]
        rows = dict.fromkeys(pairs)  # the distinct maps, in order of first use
        self._row_of = None
        if 1 < len(rows) < self.size:
            row = {pair: r for r, pair in enumerate(rows)}
            self._row_of = np.array([row[pair] for pair in pairs])
        self._w = np.array([v for _, v in rows], dtype=float)[:, None]
        self._n_exp = sum(not trig for trig, _ in rows)

    # -- evaluation ---------------------------------------------------------

    def values_at(self, x, order: int = 0):
        """All ``psi_i^(order)(x)`` as an array of shape ``(size,)``.

        ``x`` may also be a 1-d array of points, giving shape ``(size, K)``.
        Each distinct map (same kind part, same parameter) is evaluated once
        per point.  With one distinct map the result is a read-only
        broadcast view of its row (stride 0 along the index axis): copy it
        before writing.  With a map per index it is the table itself, and
        otherwise a gather of the distinct rows.

        This is the one finiteness rule for maps: a value that is not
        finite raises :class:`InvalidParameterError` naming the kind, the
        order and the first such point, and no numpy warning is emitted.
        A ``generalized`` map raises :class:`ExprEvalError` from
        :func:`exprlang.eval_expr` first.
        """
        x = np.asarray(x)
        with np.errstate(all="ignore"):
            out = self._values(x.reshape(1, -1), order)  # one row per distinct map
        finite = np.isfinite(out)
        if not finite.all():
            k = int(np.argmin(finite.all(axis=0)))
            raise InvalidParameterError(
                f"kind {self.kind!r} map of order {order} is not finite at x = {x.flat[k]}"
            )
        if len(self._w) == 1:
            out = np.broadcast_to(out, (self.size, out.shape[1]))
        elif self._row_of is not None:
            out = out[self._row_of]
        return out[:, 0] if x.ndim == 0 else out

    def _values(self, x: np.ndarray, order: int) -> np.ndarray:
        """Each distinct ``psi^(order)`` at the K points of ``x`` (shape ``(1, K)``).

        One row per distinct map, in order of first use: shape ``(len(_w), K)``.
        Every kind forms its table in place, one table per call; only the
        ``(x-L)/(x+L)`` map at order 0 forms its numerator as a second one.
        """
        if order < 0:
            raise DerivativeOrderError(f"negative derivative order {order}")
        if order > self.max_derivative_order:
            raise DerivativeOrderError(
                f"derivative order {order} exceeds closed-form limit "
                f"{self.max_derivative_order} for kind {self.kind!r}"
            )
        kind = self.kind
        if kind == "identity":
            if order == 0:
                return x.copy()  # the caller's points must not show through
            return np.ones_like(x) if order == 1 else np.zeros_like(x)
        if kind == "fractional":
            delta = self.params["delta"]
            coeff = 1.0
            for k in range(order):
                coeff *= delta - k
            if coeff == 0.0:
                return np.zeros_like(x)
            return coeff * np.power(x, delta - order)
        if kind == "generalized":
            row = exprlang.eval_expr(self._deriv_expr(order), {"x": x})
            return np.broadcast_to(row, x.shape).astype(np.result_type(x, float))
        if kind == "rational":
            L = self._w
            out = x + L
            if order == 0:
                return np.divide(x if self.params["variant"] == "x/(x+L)" else x - L, out, out=out)
            strength = L if self.params["variant"] == "x/(x+L)" else 2.0 * L
            sign = 1.0 if order % 2 == 1 else -1.0
            out **= order + 1
            return np.divide(sign * math.factorial(order) * strength, out, out=out)
        if kind in ("exponential", "fourier-sin", "fourier-cos", "mixed"):
            # formed in place: a second table per block (the argument, then the
            # result) cost the interp benchmark 7 % of its throughput on mixed maps
            w = self._w
            out = w * x
            top, bottom = out[: self._n_exp], out[self._n_exp :]
            if len(top):
                np.exp(top, out=top)
            if len(bottom):
                bottom += order * np.pi / 2
                (np.cos if kind == "fourier-cos" else np.sin)(bottom, out=bottom)
            if order:  # times w**0 = 1 changes no bit
                out *= w ** order
            return out
        raise UnsupportedKindError(f"unknown family kind {kind!r}")

    def _deriv_expr(self, order: int):
        while len(self._deriv_chain) <= order:
            prev = self._deriv_chain[-1]
            self._deriv_chain.append(exprlang.diff_expr(prev, "x", 1))
        return self._deriv_chain[order]

    # -- structural queries -------------------------------------------------

    @property
    def is_homogeneous(self) -> bool:
        """True when every index uses the same map (constants are reproduced).

        That holds unless the kind is ``mixed`` or some per-index parameter
        (``L``, ``rates``, ``freqs``) varies with the index.  Decided once,
        when the family is built.
        """
        return self.kind != "mixed" and len(self._w) == 1

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
            # w'' at the nodes, which D^(1) needs, takes two derivatives
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
    bounds: tuple = field(init=False, repr=False)  # what ``contains`` accepts

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
        self.domain = (float(a), float(b))
        slack = 1e-12 * max(1.0, abs(self.domain[0]), abs(float(self.nodes[-1])))
        # b + slack is inf on a semi-infinite domain; NaN fails both comparisons
        self.bounds = (self.domain[0] - slack, self.domain[1] + slack)
        if not (self.contains(self.nodes[0]) and self.contains(self.nodes[-1])):
            raise DomainError(
                f"nodes [{self.nodes[0]}, {self.nodes[-1]}] exceed domain [{a}, {b}]"
            )

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n(self) -> int:
        """Polynomial-style degree parameter: node count minus one."""
        return len(self.nodes) - 1

    def contains(self, x: float) -> bool:
        """``x`` lies in the domain widened by ``1e-12 * max(1, |a|, |x_N|)``."""
        lo, hi = self.bounds
        return lo <= x <= hi


def generate_nodes(scheme: str, N: int, a: float, b: float) -> NodeSet:
    """Generate ``N + 1`` nodes on ``[a, b]``.

    Schemes: ``"cgl"`` (Chebyshev-Gauss-Lobatto points ``-cos(k pi / N)``
    mapped affinely onto ``[a, b]``; the default everywhere in this
    package) and ``"equispaced"``.
    """
    return NodeSet(_node_values(scheme, N, a, b), (a, b), scheme)


def _node_values(scheme: str, N: int, a: float, b: float) -> np.ndarray:
    """The ``N + 1`` nodes of ``scheme`` on the finite interval ``[a, b]``."""
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    if not (a < b and math.isfinite(float(b) - float(a))):  # a or b infinite: so is b - a
        raise InvalidParameterError(f"node generation needs finite a < b and b - a, got [{a}, {b}]")
    if scheme == "cgl":
        xi = -np.cos(np.arange(N + 1) * np.pi / N)
        xi = (xi - xi[::-1]) / 2  # enforce exact symmetry
        nodes = a + (b - a) * (xi + 1) / 2
        nodes[0], nodes[-1] = a, b
    elif scheme == "equispaced":
        nodes = np.linspace(a, b, N + 1)
    else:
        raise UnsupportedKindError(f"unknown node scheme {scheme!r}")
    return nodes


# ---------------------------------------------------------------------------
# validated basis
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DlfBasis:
    """A validated basis with cached node-product derivatives.

    Produced by :func:`validate_basis`.  ``wprime_at_nodes``, ``wsecond_at_nodes``
    and ``mu`` are ``w'(x_j)``, ``w''(x_j)`` for ``w(x) = prod_i (psi_i(x) - psi_i(x_i))``
    and ``mu_j = psi_j'(x_j) / w'(x_j)``; the last two, with ``psi_j''(x_j)``, are
    formed and checked together on the first read of any (:attr:`_seconds`).
    """

    psi: PsiFamily
    nodes: NodeSet
    wprime_at_nodes: np.ndarray
    # internal caches
    _psi_own: np.ndarray = field(repr=False, default=None)  # psi_i(x_i)
    _f_tab: np.ndarray = field(repr=False, default=None)  # psi_i(x_j) - psi_i(x_i)
    _denom_prod: np.ndarray = field(repr=False, default=None)
    _dpsi_own: np.ndarray = field(repr=False, default=None)  # psi_j'(x_j)

    @functools.cached_property
    def _seconds(self) -> tuple:
        """``(w''(x_j), mu_j, psi_j''(x_j))``; one not finite raises :class:`InvalidParameterError`."""
        xs, size = self.nodes.nodes, self.size
        d2psi_own = np.diag(self.psi.values_at(xs, order=2)).copy()
        off = ~np.eye(size, dtype=bool)
        dpsi_off = self.psi.values_at(xs, order=1).T[off].reshape(size, size - 1)
        with np.errstate(all="ignore"):
            # w''(x_j) = psi_j'' * prod + 2 psi_j' * prod * sum_{s != j} psi_s'(x_j)/f_s(x_j)
            s = np.sum(dpsi_off / self._f_tab.T[off].reshape(size, size - 1), axis=1)
            wsecond = (d2psi_own + 2 * self._dpsi_own * s) * self._denom_prod
            mu = self._dpsi_own / self.wprime_at_nodes  # equals 1 / denom_prod
        if not np.all(np.isfinite([wsecond, mu])):
            raise InvalidParameterError(_OVERFLOW.format(self.psi.kind, self.nodes.n))
        return wsecond, mu, d2psi_own

    wsecond_at_nodes = property(lambda self: self._seconds[0])
    mu = property(lambda self: self._seconds[1])
    _d2psi_own = property(lambda self: self._seconds[2])  # psi_j''(x_j)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def n(self) -> int:
        return self.nodes.n

    def _check_point(self, x):
        if isinstance(x, (int, float)):  # also numpy float64: no array round trip
            lo = hi = x
        else:
            arr = np.asarray(x)
            if arr.dtype.kind == "c":
                return  # complex evaluation is the contour module's business
            lo, hi = arr.min(), arr.max()
        if not (self.nodes.contains(lo) and self.nodes.contains(hi)):
            a, b = self.nodes.domain
            raise DomainError(f"point {x} outside domain [{a}, {b}]")


def validate_basis(psi: PsiFamily, nodes: NodeSet) -> DlfBasis:
    """Check the basis existence conditions and build the cached tables.

    Raises :class:`SeparationError` if some map fails to separate a pair of
    nodes (``|psi_i(x_j) - psi_i(x_i)| <= TAU_SEP`` for ``i != j``) and
    :class:`DegenerateDerivativeError` if some map has
    ``|psi_i'(x_i)| <= TAU_SEP``.  Both tolerances are absolute.  Maps that
    are not finite at the nodes are rejected by :meth:`PsiFamily.values_at`,
    not here.
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
    psi_tab = psi.values_at(xs)  # (size, size): psi_i(x_j)
    dpsi_own = np.diag(psi.values_at(xs, order=1)).copy()  # psi_j'(x_j)

    psi_own = np.diag(psi_tab).copy()  # a view would keep the table alive
    f_tab = psi_tab - psi_own[:, None]  # f_i(x_j) = psi_i(x_j) - psi_i(x_i)
    size = psi.size
    off = ~np.eye(size, dtype=bool)
    gaps = np.abs(f_tab)
    bad = off & (gaps <= TAU_SEP)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise SeparationError(int(i), int(j), float(gaps[i, j]), TAU_SEP)

    small = np.abs(dpsi_own) <= TAU_SEP
    if np.any(small):
        i = int(np.argmax(small))
        raise DegenerateDerivativeError(i, float(dpsi_own[i]), TAU_SEP)

    with np.errstate(all="ignore"):
        # row j holds the off-diagonal entries of column j, in row order
        denom_prod = np.prod(f_tab.T[off].reshape(size, size - 1), axis=1)
        wprime = dpsi_own * denom_prod
    # psi_j'(x_j) is finite and nonzero: so are the node-gap products if w' is
    if not np.all(np.isfinite(wprime) & (wprime != 0)):
        raise InvalidParameterError(_OVERFLOW.format(psi.kind, nodes.n))

    return DlfBasis(
        psi=psi,
        nodes=nodes,
        wprime_at_nodes=wprime,
        _psi_own=psi_own,
        _f_tab=f_tab,
        _denom_prod=denom_prod,
        _dpsi_own=dpsi_own,
    )


# the keys a family and a nodes description may hold
_ENTRY_KEYS = {"family": {"kind", "params"}, "nodes": {"scheme", "values"}}


def basis_from_spec(family: dict, nodes: dict, n, domain) -> DlfBasis:
    """The validated basis that a family and a nodes description define.

    Configs, CLI flags and saved interpolants all describe a basis this way.
    ``family`` holds ``kind`` (default ``"identity"``) and ``params``;
    ``nodes`` holds ``values`` and ``scheme``.  Any other key raises
    :class:`InvalidParameterError` naming it.  With ``values`` the scheme is
    only a label (default ``"custom"``) and a non-``None`` ``n`` must equal
    ``len(values) - 1``.  Without them ``n + 1`` nodes are generated by the
    scheme (default ``"cgl"``) on ``domain``, or on ``[a, a + 1]`` when
    ``b`` is ``+inf``; the basis keeps the domain ``(a, b)`` either way.
    """
    for key, entry in (("family", family), ("nodes", nodes)):
        unknown = sorted(set(entry) - _ENTRY_KEYS[key])
        if unknown:
            raise InvalidParameterError(
                f"{key!r} may hold only {sorted(_ENTRY_KEYS[key])}, "
                f"found unknown key {unknown[0]!r}"
            )
    a, b = (float(t) for t in domain)
    if "values" in nodes:
        values, scheme = nodes["values"], nodes.get("scheme", "custom")
        if n is not None and len(values) != n + 1:
            raise InvalidParameterError(
                f"N={n} needs {n + 1} node values, 'nodes' lists {len(values)}"
            )
    elif n is None:
        raise InvalidParameterError("'nodes' without 'values' needs N")
    else:
        scheme = nodes.get("scheme", "cgl")
        values = _node_values(scheme, n, a, b if math.isfinite(b) else a + 1.0)
    node_set = NodeSet(values, (a, b), scheme)
    psi = make_psi_family(
        family.get("kind", "identity"), family.get("params") or {}, size=len(node_set)
    )
    return validate_basis(psi, node_set)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _terms(basis: DlfBasis, x) -> np.ndarray:
    """``psi_i(x) - psi_i(x_i)``: shape ``(size,)`` for scalar ``x``, else ``(size, K)``."""
    x = np.asarray(x)
    vals = basis.psi.values_at(x.astype(np.result_type(x, float), copy=False))
    # a shared map's broadcast row is read-only; the cardinal table must be C order
    out = vals if vals.flags.writeable else np.empty_like(vals, order="C")
    np.subtract(vals.T, basis._psi_own, out=out.T)
    return out


def weight_eval(basis: DlfBasis, x):
    """The node-product function ``w(x) = prod_i (psi_i(x) - psi_i(x_i))``.

    Zero exactly (not just approximately) when ``x`` is one of the nodes.
    Accepts complex ``x`` for contour integration, and 1-d arrays.  A
    product that overflows raises :class:`InvalidParameterError` naming its
    point.
    """
    basis._check_point(x)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _terms(basis, x).prod(axis=0)
    finite = np.isfinite(w)
    if not finite.all():
        bad = np.ravel(x)[np.argmin(np.ravel(finite))]
        raise InvalidParameterError(f"node product w is not finite at x = {bad}")
    return w


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


def lagrange_values(basis: DlfBasis, x) -> np.ndarray:
    """All basis functions at one point: array ``[L_0(x), ..., L_N(x)]``, all finite."""
    if np.asarray(x).ndim != 0:
        raise InvalidParameterError("lagrange_values takes one point; use lagrange_matrix")
    basis._check_point(x)
    return _table(basis, x, strict=True)[:, 0]


def lagrange_matrix(basis: DlfBasis, xs: np.ndarray) -> np.ndarray:
    """Basis functions on many points: shape ``(size, len(xs))``, in C order.

    ``xs`` must be a non-empty 1-d array; use :func:`lagrange_values` for one point.
    The table is formed one block of points at a time (:func:`_blocks`), each
    block's table holding fewer than ``(1 + _SHORT_BLOCK) * 2**16`` entries;
    every column is independent, so the blocks change no bit.  Both functions
    raise :class:`InvalidParameterError` naming the first point of a column
    that is not finite.
    """
    xs = np.asarray(xs)
    if xs.ndim != 1 or xs.size == 0:
        raise InvalidParameterError(
            f"lagrange_matrix needs a non-empty 1-d array of points, got shape {xs.shape}"
        )
    basis._check_point(xs)
    blocks = _blocks(xs.size, _BLOCK_ENTRIES // basis.size)
    if len(blocks) == 1:
        return _table(basis, xs, strict=True)
    out = np.empty((basis.size, xs.size), np.result_type(xs, float))
    for block in blocks:
        out[:, block] = _table(basis, xs[block], strict=True)
    return out


def _blocks(count: int, step: int) -> list:
    """Slices of ``step`` of ``count`` points; a last one shorter than ``_SHORT_BLOCK * step``
    joins the one before it."""
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] < _SHORT_BLOCK * step:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [count])]


def _table(basis: DlfBasis, x, strict: bool = False) -> np.ndarray:
    """All ``L_j`` at one block of points: shape ``(size, K)``, ``K = 1`` for scalar ``x``.

    The columns of :func:`_scaled`, checked: a column that comes out not
    finite (``w_j / term_j`` can overflow where ``L_j`` does not) is formed
    again by :func:`_by_factors`; one that stays not finite raises
    :class:`InvalidParameterError` naming its point if ``strict``.  Each
    column comes from its own point alone, so blocks change no bit.
    """
    with np.errstate(all="ignore"):
        table = _scaled(basis, x)
        if not cmath.isfinite(table.sum()):  # else every entry is finite; real or complex
            bad = np.flatnonzero(~np.isfinite(table.sum(axis=0)))
            table[:, bad] = _by_factors(basis, _terms(basis, np.ravel(x)[bad]))
            finite = np.isfinite(table[:, bad]).all(axis=0)
            if strict and not finite.all():
                point = np.ravel(x)[bad[np.argmin(finite)]]
                raise InvalidParameterError(f"cardinal functions are not finite at x = {point}")
    return table


def _scaled(basis: DlfBasis, x) -> np.ndarray:
    """The kernel's ``R_j`` (:func:`_block`) times ``P``, unchecked: one division and
    one multiplication per entry.  Callers hold numpy's floating-point warnings off."""
    table, P = _block(basis, x)
    table *= P
    return table


def _block(basis: DlfBasis, x, c=1.0):
    """The cardinal kernel: ``R_j = c_j w_j / term_j`` and ``P`` at one block of points.

    ``R`` is written over a fresh ``(size, K)`` table of the terms
    ``psi_i(x) - psi_i(x_i)``, ``P`` is their product down each column,
    ``w_j = 1 / _denom_prod_j`` and ``c`` is 1 or a ``(size, 1)`` column of
    coefficients, so that ``c_j L_j = P R_j``.  A column whose ``P`` is
    zero, subnormal, overflowed or NaN, real or complex (one test for both),
    holds ``c_j L_j`` by :func:`_by_factors` and has ``P = 1``.  Callers
    hold numpy's floating-point warnings off.
    """
    terms = _terms(basis, x).reshape(basis.size, -1)
    P = terms.prod(axis=0)
    # a NaN product fails >= too
    odd = np.flatnonzero(~(abs(P) >= _TINY) | np.isinf(P))
    slow = _by_factors(basis, terms[:, odd]) * c if len(odd) else None
    np.divide(c / basis._denom_prod[:, None], terms, out=terms)
    if len(odd):
        terms[:, odd] = slow
        P[odd] = 1.0
    return terms, P


def _by_factors(basis: DlfBasis, terms: np.ndarray) -> np.ndarray:
    """Every ``L_j`` at the points whose terms are the columns of ``terms``: the one fallback.

    ``L_j = prod_{i != j} term_i / (psi_i(x_j) - psi_i(x_i))``, down each
    column in row order, as a scalar loop would; with two or more zero terms
    every ``L_j`` is 0, and with one at row ``i`` only ``L_i`` is nonzero.
    """
    zeros = np.count_nonzero(terms == 0, axis=0)
    one, none = np.flatnonzero(zeros == 1), np.flatnonzero(zeros == 0)
    js = np.concatenate(
        [np.argmax(terms[:, one] == 0, axis=0), np.tile(np.arange(basis.size), len(none))]
    )
    cols = np.concatenate([one, np.repeat(none, basis.size)])
    factors = terms[:, cols] / basis._f_tab[:, js]
    factors[js, np.arange(len(js))] = 1.0
    out = np.zeros_like(terms)
    out[js, cols] = factors.prod(axis=0)
    return out


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
    num = basis.psi.limit_values - basis._psi_own
    keep = np.arange(basis.size) != j
    return np.prod(num[keep] / basis._f_tab[keep, j])
