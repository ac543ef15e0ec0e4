"""Nodal interpolants on tensor products of bases; one basis is the 1-D case.

Coefficients are nodal values: building an interpolant from samples is
storage, not a linear solve, and evaluation at a node returns the matching
coefficient exactly.  Coefficients are ordered with the last dimension
fastest (C-order flattening of the value grid).  Evaluation walks the
points one block at a time and contracts the coefficient grid one
dimension at a time, one table per dimension (the dense tensor form of
Trefethen, *Spectral Methods in MATLAB*, ch. 7); memory is O(block + K),
not O(N K).  A 1-D interpolant sums the columns of the cardinal kernel in
the first barycentric form,
``sum_j c_j L_j(x) = P(x) sum_j (c_j w_j) / (psi_j(x) - psi_j(x_j))``
(Berrut & Trefethen, SIAM Rev. 2004); more dimensions contract its
cardinal tables.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

# interp.validate_basis, interp.lagrange_values and interp.lagrange_matrix are not
# called here; they stay because perfbench/tracing.py patches them
from .basis import (
    _BLOCK_ENTRIES,
    DlfBasis,
    _block,
    _blocks,
    _scaled,
    _table,
    basis_from_spec,
    lagrange_matrix,
    lagrange_values,
    validate_basis,
)
from .errors import InvalidParameterError

__all__ = [
    "TensorInterpolant",
    "interpolate_1d",
    "eval_interpolant",
    "interpolate_nd",
    "interpolant_to_json",
    "interpolant_from_json",
    "save_interpolant",
    "load_interpolant",
]


@dataclass(eq=False)
class TensorInterpolant:
    """Interpolant over ``p`` bases; ``p = 1`` is the 1-D interpolant.

    ``coeffs`` is flat with the last dimension fastest: entry for grid
    index ``(i_1, ..., i_p)`` sits at position
    ``i_1 * n_2 * ... * n_p + ... + i_p``.
    """

    bases: list
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.bases) == 0:
            raise InvalidParameterError("tensor interpolant needs at least one basis")
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        want = int(np.prod([b.size for b in self.bases]))
        if self.coeffs.shape != (want,):
            raise InvalidParameterError(
                f"expected {want} coefficients for grid "
                f"{tuple(b.size for b in self.bases)}, got shape {self.coeffs.shape}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise InvalidParameterError("coefficients must be finite")

    @property
    def ndim(self) -> int:
        return len(self.bases)

    @property
    def grid_shape(self) -> tuple:
        return tuple(b.size for b in self.bases)

    def grid_values(self) -> np.ndarray:
        """Coefficients reshaped onto the node grid."""
        return self.coeffs.reshape(self.grid_shape)


def interpolate_1d(basis: DlfBasis, samples) -> TensorInterpolant:
    """Wrap nodal samples as an interpolant (coefficients are the samples)."""
    return TensorInterpolant(bases=[basis], coeffs=samples)


def interpolate_nd(bases, grid_values) -> TensorInterpolant:
    """Wrap a flat grid of nodal samples (last dimension fastest)."""
    return TensorInterpolant(bases=list(bases), coeffs=grid_values)


def eval_interpolant(itp: TensorInterpolant, x):
    """``sum_i U_i prod_d L_{i_d}(x_d)`` at one point or at K points.

    ``x`` is one point of shape ``(p,)`` (float out) or K points of shape
    ``(K, p)`` (shape ``(K,)`` out).  For ``p = 1`` a scalar is one point
    and a ``(K,)`` array is K points.  The points are taken in blocks
    (:func:`basis._blocks`) short enough that every table and partial sum
    of a block holds fewer than ``1.25 * 2**16`` entries (blocks of one
    point when a slice of the coefficient grid alone is longer), and each
    dimension contracts one table (:func:`_contract`).  A point whose value
    comes out not finite is evaluated again through the checked cardinal
    tables, whose columns that are not finite are formed by factors.  In
    1-D a real point has the same value, to the bit, alone or inside any
    batch.  A value that is not finite raises :class:`InvalidParameterError`
    naming its point.
    """
    p = itp.ndim
    pts = np.asarray(x)
    single = pts.ndim == (0 if p == 1 else 1)
    scalar = single and p == 1  # a point that is named as given
    if p == 1 and pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    elif single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != p or len(pts) == 0:
        raise InvalidParameterError(
            f"points must have shape ({p},) or (K, {p}) with K > 0, got {np.shape(x)}"
        )
    for d, basis in enumerate(itp.bases):
        basis._check_point(x if scalar else pts[:, d])
    coeffs = itp.coeffs.reshape(itp.bases[0].size, -1)
    if scalar and pts.dtype.kind != "c":  # one real point: no blocks, no output array
        with np.errstate(all="ignore"):
            value = float(_contract(itp, pts, coeffs)[0])
        if math.isfinite(value):
            return value  # else the block below retries it, or names it
    out = np.empty(len(pts), np.result_type(pts, float))
    for block in _blocks(len(pts), max(1, _BLOCK_ENTRIES // max(coeffs.shape))):
        with np.errstate(all="ignore"):
            vals = _contract(itp, pts[block], coeffs)
            finite = np.isfinite(vals)
            if not finite.all():  # c_j w_j / term_j can overflow where c_j L_j does not
                bad = np.flatnonzero(~finite)
                vals[bad] = _contract(itp, pts[block][bad], coeffs, retry=True)
                finite = np.isfinite(vals)
                if not finite.all():
                    point = x if scalar else pts[block][np.argmin(finite)].tolist()
                    raise InvalidParameterError(f"interpolant value is not finite at x = {point}")
        out[block] = vals
    return float(out[0]) if single else out


def _contract(itp: TensorInterpolant, pts: np.ndarray, coeffs: np.ndarray, retry=False):
    """The K values at ``pts``, contracting one table per dimension.

    In 1-D the table is the kernel's ``R_j = c_j w_j / term_j``
    (:func:`basis._block`); its rows are summed by :func:`_fold`, not in
    BLAS, so each point's sum is the same in any block, and only the K
    sums are scaled by ``P``.  With more dimensions each one contracts
    ``P R_j = L_j`` (:func:`basis._scaled`; BLAS matmul, then einsum).  A
    ``retry`` contracts the checked tables of :func:`basis._table`, whose
    columns that are not finite are formed again by factors; in 1-D it
    folds the products ``c_j L_j``.
    """
    if itp.ndim == 1 and retry:
        return _fold(_table(itp.bases[0], pts[:, 0]) * coeffs)
    if itp.ndim == 1:
        R, P = _block(itp.bases[0], pts[:, 0], coeffs)
        return _fold(R) * P
    form = _table if retry else _scaled
    # each table is formed in the expression that contracts it, never beside the last one
    vals = form(itp.bases[0], pts[:, 0]).T @ coeffs
    for d, basis in enumerate(itp.bases[1:], 1):
        vals = vals.reshape(len(pts), basis.size, -1)
        vals = np.einsum("kir,ik->kr", vals, form(basis, pts[:, d]))
    return vals.reshape(-1)


def _fold(rows: np.ndarray) -> np.ndarray:
    """The column sums of ``rows``, by folding its top half onto its bottom half, in place.

    Only elementwise adds: unlike a BLAS or a numpy reduction, a column's
    sum does not depend on how many columns there are.  Pairwise, its error
    grows with ``log N``; it matches the FMA dot products of the table form.
    """
    m = len(rows)
    while m > 1:
        half = m // 2
        rows[:half] += rows[m - half : m]  # with m odd, the middle row waits a round
        m -= half
    return rows[0]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _jsonable_params(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if isinstance(val, np.ndarray):
            out[key] = val.tolist()
        elif isinstance(val, (np.floating, np.integer)):
            out[key] = val.item()
        else:
            out[key] = val
    return out


def _dim_block(basis: DlfBasis) -> dict:
    return {
        "family": {"kind": basis.psi.kind, "params": _jsonable_params(basis.psi.params)},
        "nodes": {
            "values": basis.nodes.nodes.tolist(),
            "domain": [basis.nodes.domain[0], basis.nodes.domain[1]],
            "scheme": basis.nodes.scheme,
        },
    }


def interpolant_to_json(itp: TensorInterpolant) -> dict:
    """JSON-ready dict (coefficients last-fastest); 1-D files say ``interpolant``."""
    if not isinstance(itp, TensorInterpolant):
        raise InvalidParameterError(f"cannot serialize {type(itp).__name__}")
    return {
        "kind": "interpolant" if itp.ndim == 1 else "tensor-interpolant",
        "dims": [_dim_block(b) for b in itp.bases],
        "coeffs": itp.coeffs.tolist(),
        "ordering": "last-fastest",
    }


def interpolant_from_json(data: dict):
    """Rebuild an interpolant written by :func:`interpolant_to_json`.

    Bases are revalidated from their family parameters and nodes, so a
    hand-edited file that violates the existence conditions is rejected.
    """
    kind = data.get("kind")
    if data.get("ordering", "last-fastest") != "last-fastest":
        raise InvalidParameterError(
            f"unsupported coefficient ordering {data.get('ordering')!r}"
        )
    if kind not in ("interpolant", "tensor-interpolant"):
        raise InvalidParameterError(f"unknown serialized kind {kind!r}")
    bases = [
        basis_from_spec(
            block["family"],
            {k: v for k, v in block["nodes"].items() if k != "domain"},
            None,
            block["nodes"]["domain"],
        )
        for block in data["dims"]
    ]
    if kind == "interpolant" and len(bases) != 1:
        raise InvalidParameterError("1-d interpolant must have exactly one dim block")
    return TensorInterpolant(bases=bases, coeffs=data["coeffs"])


def write_artifact(path, text: str) -> None:
    """Write ``text`` as a new file at ``path``: the one writer of every ``dlf`` artifact.

    A regular file with one link at ``path`` is unlinked first: truncating it
    and writing it again costs several times as much on ext4, so the new file's
    mode comes from the umask.  Anything else (a symlink, a hard-linked file, a
    device, a FIFO), or a file the directory forbids to unlink, is written
    through in place, as by ``open(path, "w")``.  A write that fails leaves a
    partial file.
    """
    try:
        info = os.lstat(path)
        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1:
            os.unlink(path)
    except OSError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


def save_interpolant(itp, path) -> None:
    """Write ``itp`` as one line of compact JSON (``json``'s C encoder) and a newline."""
    write_artifact(path, json.dumps(interpolant_to_json(itp)) + "\n")


def load_interpolant(path):
    with open(path) as fh:
        return interpolant_from_json(json.load(fh))
