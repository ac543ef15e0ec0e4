"""Nodal interpolants on tensor products of bases; one basis is the 1-D case.

Coefficients are nodal values: building an interpolant from samples is
storage, not a linear solve, and evaluation at a node returns the matching
coefficient exactly.  Coefficients are ordered with the last dimension
fastest (C-order flattening of the value grid).  Evaluation walks the
points one block at a time: it builds one ``lagrange_matrix`` per dimension
for the block and contracts it with the coefficient grid one dimension at a
time (the dense tensor form of Trefethen, *Spectral Methods in MATLAB*,
ch. 7), so memory is O(block + K), not O(N K).
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

# interp.validate_basis is not called here; it stays because perfbench/tracing.py patches it
from .basis import (
    _BLOCK_ENTRIES,
    DlfBasis,
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
    and a ``(K,)`` array is K points.  The points are taken in blocks short
    enough that every table and partial sum of a block holds at most 2**16
    entries (blocks of one point when a slice of the coefficient grid alone
    is longer).  A value that is not finite raises
    :class:`InvalidParameterError` naming its point.
    """
    p = itp.ndim
    pts = np.asarray(x)
    if pts.ndim == 0 and p == 1:
        with np.errstate(invalid="ignore", over="ignore"):
            value = float(lagrange_values(itp.bases[0], x) @ itp.coeffs)
        if not math.isfinite(value):
            raise _not_finite(x)
        return value
    single = pts.ndim == 1 and p > 1
    if single:
        pts = pts[None, :]
    elif pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != p or len(pts) == 0:
        raise InvalidParameterError(
            f"points must have shape ({p},) or (K, {p}) with K > 0, got {np.shape(x)}"
        )
    coeffs = itp.coeffs.reshape(itp.bases[0].size, -1)
    step = max(1, _BLOCK_ENTRIES // max(coeffs.shape))
    out = np.empty(len(pts), np.result_type(pts, float))
    for start in range(0, len(out), step):
        block = pts[start : start + step]
        # each table is dropped once contracted, so a block holds one at a time
        with np.errstate(invalid="ignore", over="ignore"):
            # the first contraction stays a BLAS matmul: for p = 1 it is the whole sum,
            # bit for bit lagrange_matrix(...).T @ coeffs on the block
            vals = lagrange_matrix(itp.bases[0], block[:, 0]).T @ coeffs
            for d, basis in enumerate(itp.bases[1:], 1):
                vals = vals.reshape(len(block), basis.size, -1)
                vals = np.einsum("kir,ik->kr", vals, lagrange_matrix(basis, block[:, d]))
        # a table entry that is not finite, or a sum that overflows, leaves its
        # value not finite, so the block's K values are all there is to check
        finite = np.isfinite(vals)
        if not finite.all():
            raise _not_finite(block[np.argmin(finite)])
        out[start : start + step] = vals.reshape(-1)
    return float(out[0]) if single else out


def _not_finite(point) -> InvalidParameterError:
    return InvalidParameterError(
        f"interpolant value is not finite at x = {np.asarray(point).tolist()}"
    )


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
