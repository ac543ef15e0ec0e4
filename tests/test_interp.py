"""Interpolant wrappers, tensor-product evaluation, and JSON persistence."""

import json
import os
import re
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dlf.interp as interp_module
from dlf.basis import (
    _BLOCK_ENTRIES,
    FAMILY_KINDS,
    _block,
    _blocks,
    _terms,
    NodeSet,
    basis_from_spec,
    dlf_eval,
    generate_nodes,
    lagrange_matrix,
    lagrange_values,
    make_psi_family,
    validate_basis,
)
from dlf.errors import InvalidParameterError
from dlf.interp import (
    TensorInterpolant,
    eval_interpolant,
    interpolant_from_json,
    interpolant_to_json,
    interpolate_1d,
    interpolate_nd,
    load_interpolant,
    save_interpolant,
    write_artifact,
)

from conftest import KIND_CASES, build_basis, reciprocal_overflow_basis, underflow_basis
from exact import exact_values


def runge(x):
    return 1.0 / (1.0 + 25.0 * np.asarray(x) ** 2)


def test_nodal_evaluation_returns_coefficients_bitwise(rng):
    basis = build_basis("exponential", {"rates": 0.5}, n=7, a=0.0, b=1.0)
    coeffs = rng.normal(size=8)
    itp = interpolate_1d(basis, coeffs)
    for j, xj in enumerate(basis.nodes.nodes):
        assert eval_interpolant(itp, float(xj)) == coeffs[j]


def test_identity_basis_reproduces_polynomials():
    basis = build_basis("identity", n=6)
    poly = lambda x: 3.0 - 2.0 * x + x**3 - 0.25 * x**6
    itp = interpolate_1d(basis, poly(basis.nodes.nodes))
    xs = np.linspace(-1.0, 1.0, 113)
    assert np.max(np.abs(eval_interpolant(itp, xs) - poly(xs))) < 1e-12


def test_square_map_basis_reproduces_even_quartics():
    # three nodes suffice for x^4 because the map turns it into a quadratic
    nodes = NodeSet(np.array([0.5, 1.0, 2.0]), (0.25, 2.5))
    basis = validate_basis(make_psi_family("fractional", {"delta": 2.0}, size=3), nodes)
    f = lambda x: np.asarray(x) ** 4 - 3.0 * np.asarray(x) ** 2 + 1.0
    itp = interpolate_1d(basis, f(basis.nodes.nodes))
    xs = np.linspace(0.3, 2.4, 97)
    assert np.max(np.abs(eval_interpolant(itp, xs) - f(xs))) < 1e-11


def test_runge_error_decreases_with_n():
    errs = {}
    for n in (8, 16, 32):
        basis = build_basis("identity", n=n)
        itp = interpolate_1d(basis, runge(basis.nodes.nodes))
        xs = np.linspace(-1.0, 1.0, 1001)
        errs[n] = np.max(np.abs(eval_interpolant(itp, xs) - runge(xs)))
    # frozen levels: 2.05e-1, 3.67e-2, 1.62e-3
    assert errs[8] < 0.25
    assert errs[16] < 0.05
    assert errs[32] < 2e-3
    assert errs[16] < errs[8] / 4
    assert errs[32] < errs[16] / 10


def test_array_evaluation_matches_scalar_loop(rng):
    basis = build_basis("rational", {"L": 1.0}, n=5, a=0.0, b=1.0)
    itp = interpolate_1d(basis, rng.normal(size=6))
    xs = rng.uniform(0.0, 1.0, size=11)
    batch = eval_interpolant(itp, xs)
    assert batch.shape == (11,)
    for x, val in zip(xs, batch):
        assert val == pytest.approx(eval_interpolant(itp, float(x)), abs=1e-14)


class TestValidation:
    def test_coefficient_count(self):
        basis = build_basis("identity", n=4)
        with pytest.raises(InvalidParameterError):
            interpolate_1d(basis, np.zeros(4))

    def test_non_finite_coefficients(self):
        basis = build_basis("identity", n=4)
        with pytest.raises(InvalidParameterError):
            interpolate_1d(basis, [0.0, 1.0, np.nan, 0.0, 1.0])

    def test_tensor_needs_a_basis(self):
        with pytest.raises(InvalidParameterError):
            TensorInterpolant(bases=[], coeffs=np.zeros(0))

    def test_tensor_coefficient_count(self):
        bx = build_basis("identity", n=2)
        by = build_basis("identity", n=3)
        with pytest.raises(InvalidParameterError):
            interpolate_nd([bx, by], np.zeros(11))

    def test_point_arity(self):
        bx = build_basis("identity", n=2)
        itp = interpolate_nd([bx, bx], np.zeros(9))
        with pytest.raises(InvalidParameterError):
            eval_interpolant(itp, [0.0, 0.0, 0.0])

    def test_rejects_three_dimensional_points(self):
        bx = build_basis("identity", n=2)
        itp = interpolate_nd([bx, bx], np.zeros(9))
        with pytest.raises(InvalidParameterError):
            eval_interpolant(itp, np.zeros((2, 3, 2)))


def test_evaluation_follows_last_fastest_ordering():
    bx = build_basis("identity", n=2)
    by = build_basis("identity", n=3)
    point = np.array([0.3, -0.7])
    for i in range(bx.size):
        for j in range(by.size):
            unit = np.zeros(bx.size * by.size)
            unit[i * by.size + j] = 1.0
            want = lagrange_values(bx, point[0])[i] * lagrange_values(by, point[1])[j]
            got = eval_interpolant(interpolate_nd([bx, by], unit), point)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-16)


def test_one_dimensional_tensor_matches_plain_interpolant_bitwise(rng):
    # one basis is the 1-D interpolant: a point's value is the same to the bit
    # alone (a scalar, a (1,) or a (1, 1) array) and inside a batch of K points,
    # in every point form; the rows of R are folded, not summed in BLAS
    for kind in FAMILY_KINDS:
        _, params, (a, b) = KIND_CASES[kind]
        for n in (4, 16, 64):
            basis = build_basis(kind, params, n=n, a=a, b=b)
            itp = interpolate_nd([basis], rng.normal(size=basis.size))
            xs = rng.uniform(a, b, 257)
            xs[5] = basis.nodes.nodes[2]  # a node hit takes its cardinal column
            batch = eval_interpolant(itp, xs)
            np.testing.assert_array_equal(eval_interpolant(itp, xs[:, None]), batch)
            np.testing.assert_array_equal(eval_interpolant(itp, xs[100:]), batch[100:])
            for k in (0, 1, 5, 100, 256):
                value = eval_interpolant(itp, float(xs[k]))
                assert type(value) is float
                assert value == batch[k]
                assert eval_interpolant(itp, xs[k : k + 1])[0] == batch[k]
                assert eval_interpolant(itp, xs[k : k + 1, None])[0] == batch[k]
    # points whose P underflows (N=25 on [0, 3e-9]) and points where some
    # w_j / term_j overflows (N=40 on [0, 1e-7]), several in one batch
    cases = [(underflow_basis(), [1e-120, 1e-140, 2e-130]), (reciprocal_overflow_basis(), [])]
    for basis, odd in cases:
        b = basis.nodes.nodes[-1]
        itp = interpolate_1d(basis, rng.normal(size=basis.size))
        xs = rng.uniform(0.0, b, 200)
        xs[: len(odd)] = odd
        hits = np.flatnonzero(np.abs(_terms(basis, xs).prod(axis=0)) < 2.0**-1022)
        with np.errstate(all="ignore"):
            R, _ = _block(basis, xs, itp.coeffs[:, None])
        overflows = np.isinf(R).any()
        assert set(range(len(odd))) <= set(hits) and (len(odd) > 0 or overflows)
        batch = eval_interpolant(itp, xs)
        for k in range(len(xs)):
            assert eval_interpolant(itp, float(xs[k])) == batch[k]


# kind, params at N, domain, bound at N on points away from the nodes; bounds are
# about four times the largest error measured over six seeds of 200 points
ORACLE_CASES = {
    "identity": ("identity", lambda n: {}, (-1.0, 1.0), {8: 2.5e-15, 16: 3.5e-15, 64: 6e-15}),
    "rational": (
        "rational", lambda n: {"L": 1.0}, (0.0, 1.0), {8: 1.5e-13, 16: 3.5e-13, 64: 1.5e-11}
    ),
    "per-index": (
        "rational",
        lambda n: {"L": [1 + i / (2 * n) for i in range(n + 1)]},
        (0.0, 1.0),
        {8: 8e-14, 16: 5e-13, 64: 1.5e-11},
    ),
}


def _two_division_table(basis, xs):
    """The cardinal table as the product form divided it, P / term_j / gap product_j,
    at points where every P is a normal number."""
    terms = _terms(basis, xs)
    full = terms.prod(axis=0)
    assert np.all(np.abs(full) >= 2.0**-1022)
    return full / terms / basis._denom_prod[:, None]


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_values_against_the_exact_oracle(case, n, rng):
    # errors over sum_j |c_j L_j(x)|, against the value in 100-digit arithmetic
    kind, params, (a, b), tol = ORACLE_CASES[case]
    basis = build_basis(kind, params(n), n=n, a=a, b=b)
    coeffs = rng.normal(size=basis.size)
    xs = np.concatenate([rng.uniform(a, b, 100), basis.nodes.nodes[:-1] + 2.0**-40])
    exact = exact_values(basis, coeffs, xs)
    table = _two_division_table(basis, xs)
    scale = np.abs(coeffs) @ np.abs(table)
    err = np.abs(eval_interpolant(interpolate_1d(basis, coeffs), xs) - exact) / scale
    err_table = np.abs(table.T @ coeffs - exact) / scale
    assert err[:100].max() <= tol[n]
    # no less accurate than the cardinal table on the same points: measured, the mean
    # error is within 5 % of the table's and the largest within 1.2 units of 2**-52.
    # Next to a node a rational map rounds psi_i(x) - psi_i(x_k), an error both share
    # (2e-5 at N=64)
    assert err.mean() <= 1.1 * err_table.mean()
    assert err.max() <= err_table.max() + 2 * 2.0**-52


def _tensor_case(kind, sizes, rng):
    _, params, (a, b) = KIND_CASES[kind]
    bases = [build_basis(kind, params, n=n - 1, a=a, b=b) for n in sizes]
    itp = interpolate_nd(bases, rng.normal(size=int(np.prod(sizes))))
    return itp, (a, b)


@pytest.mark.parametrize("sizes", [(7, 10), (5, 6, 7)], ids=["p2", "p3"])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_tensor_evaluation_matches_product_form(kind, sizes, rng):
    itp, (a, b) = _tensor_case(kind, sizes, rng)
    p = itp.ndim
    points = rng.uniform(a, b, size=(60, p))
    got = eval_interpolant(itp, points)
    # sum over the grid of c_i * prod_d L_{i_d}(x_d), each L from its defining product
    tables = [
        np.array([dlf_eval(basis, j, points[:, d]) for j in range(basis.size)])
        for d, basis in enumerate(itp.bases)
    ]
    spec = ",".join(["abc"[:p]] + [f"{c}k" for c in "abc"[:p]]) + "->k"
    want = np.einsum(spec, itp.grid_values(), *tables)
    scale = np.einsum(spec, np.abs(itp.grid_values()), *map(np.abs, tables))
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    for k in range(0, 60, 15):
        assert eval_interpolant(itp, points[k]) == pytest.approx(got[k], rel=1e-14)
    # at grid nodes the value is the coefficient itself, bit for bit
    nodes = [basis.nodes.nodes for basis in itp.bases]
    grid = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=1)
    np.testing.assert_array_equal(eval_interpolant(itp, grid), itp.coeffs)


def test_point_shapes(rng):
    bx = build_basis("identity", n=4)
    line = interpolate_1d(bx, rng.normal(size=5))
    plane = interpolate_nd([bx, bx], rng.normal(size=25))
    assert type(eval_interpolant(line, 0.25)) is float
    assert eval_interpolant(line, np.array([0.25, 0.5])).shape == (2,)
    assert eval_interpolant(line, np.array([[0.25], [0.5], [0.75]])).shape == (3,)
    assert type(eval_interpolant(plane, [0.25, 0.5])) is float
    assert eval_interpolant(plane, np.zeros((4, 2))).shape == (4,)


@pytest.mark.parametrize(
    "ndim, points",
    [
        (1, np.zeros((3, 2))),
        (1, np.zeros(0)),
        (1, np.zeros((0, 1))),
        (1, np.zeros((2, 1, 1))),
        (2, 0.5),
        (2, np.zeros((4, 3))),
        (2, np.zeros(0)),
        (2, np.zeros((0, 2))),
    ],
    ids=[
        "1d-trailing", "1d-empty", "1d-empty-2d", "1d-3d",
        "2d-scalar", "2d-trailing", "2d-empty", "2d-empty-2d",
    ],
)
def test_bad_point_shapes_rejected(ndim, points):
    bx = build_basis("identity", n=3)
    itp = interpolate_nd([bx] * ndim, np.ones(4**ndim))
    with pytest.raises(InvalidParameterError):
        eval_interpolant(itp, points)


def test_bilinear_functions_are_reproduced(rng):
    bx = build_basis("identity", n=3)
    by = build_basis("identity", n=4)
    g = lambda x, y: 2.0 + 0.5 * x - 1.5 * y + 0.25 * x * y
    grid = np.array([[g(x, y) for y in by.nodes.nodes] for x in bx.nodes.nodes])
    itp = interpolate_nd([bx, by], grid.ravel())
    for _ in range(25):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        assert eval_interpolant(itp, [x, y]) == pytest.approx(g(x, y), abs=1e-13)


def test_grid_values_round_trips_c_order(rng):
    bx = build_basis("identity", n=2)
    by = build_basis("identity", n=3)
    grid = rng.normal(size=(3, 4))
    itp = interpolate_nd([bx, by], grid.ravel())
    assert itp.grid_shape == (3, 4)
    assert itp.ndim == 2
    np.testing.assert_array_equal(itp.grid_values(), grid)
    # flat index i*4 + j must address grid entry (i, j)
    assert itp.coeffs[2 * 4 + 3] == grid[2, 3]


def test_nodal_grid_evaluation_matches_coefficients(rng):
    bx = build_basis("fractional", {"delta": 2.0}, n=3, a=0.5, b=2.0)
    by = build_basis("identity", n=2, a=0.0, b=1.0)
    grid = rng.normal(size=(4, 3))
    itp = interpolate_nd([bx, by], grid.ravel())
    for i, x in enumerate(bx.nodes.nodes):
        for j, y in enumerate(by.nodes.nodes):
            assert eval_interpolant(itp, [x, y]) == grid[i, j]


def _table_form(itp, pts):
    """The contraction of whole cardinal tables over all of ``pts`` (shape (K, p)) at once."""
    vals = lagrange_matrix(itp.bases[0], pts[:, 0]).T @ itp.coeffs.reshape(itp.bases[0].size, -1)
    for d in range(1, itp.ndim):
        table = lagrange_matrix(itp.bases[d], pts[:, d])
        vals = np.einsum("kir,ik->kr", vals.reshape(len(pts), table.shape[0], -1), table)
    return vals.reshape(-1)


# more points than one block holds; the last 17 join the block before them
@pytest.mark.parametrize("sizes", [(65,), (129,), (29, 29), (12, 40)], ids=["n65", "n129", "29x29", "12x40"])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_blocked_evaluation_is_the_per_block_contraction(kind, sizes, rng):
    itp, (a, b) = _tensor_case(kind, sizes, rng)
    step = _BLOCK_ENTRIES // max(sizes[0], int(np.prod(sizes[1:])))
    pts = rng.uniform(a, b, size=(3 * step + 17, len(sizes)))
    blocks = _blocks(len(pts), step)
    assert [len(range(len(pts))[blk]) for blk in blocks] == [step, step, step + 17]
    got = eval_interpolant(itp, pts)
    alone = [eval_interpolant(itp, pts[blk]) for blk in blocks]
    assert got.tobytes() == np.concatenate(alone).tobytes()
    # the form of whole cardinal tables rounds otherwise: within 4e-15 of sum |c_i L_i(x)|
    # (the largest gap measured over eight kinds, N 16-128, 12 x 40, 29 x 29 and
    # three seeds is 8.4e-16, in 1-D; 7.9e-16 in 2-D and 3-D)
    tables = [lagrange_matrix(basis, pts[:, d]) for d, basis in enumerate(itp.bases)]
    spec = ",".join(["ab"[: itp.ndim]] + [f"{c}k" for c in "ab"[: itp.ndim]]) + "->k"
    scale = np.einsum(spec, np.abs(itp.grid_values()), *map(np.abs, tables))
    assert np.all(np.abs(got - _table_form(itp, pts)) <= 4e-15 * scale)
    # the defining product: within 1e-14 of the same scale (largest measured 2.8e-15)
    few = pts[::50]
    products = [
        np.array([dlf_eval(basis, j, few[:, d]) for j in range(basis.size)])
        for d, basis in enumerate(itp.bases)
    ]
    want = np.einsum(spec, itp.grid_values(), *products)
    assert np.all(np.abs(got[::50] - want) <= 1e-14 * scale[::50])


def test_short_last_block_joins_the_one_before(monkeypatch):
    # dlf interp --samples 512 at N=128: 508 + 4 points were two blocks
    assert _blocks(512, 508) == [slice(0, 512)]
    assert _blocks(17, 8) == [slice(0, 8), slice(8, 17)]  # 1 point, under a quarter of 8
    assert _blocks(18, 8) == [slice(0, 8), slice(8, 16), slice(16, 18)]
    assert _blocks(3, 8) == [slice(0, 3)]
    basis = build_basis("identity", n=128)
    itp = interpolate_1d(basis, np.cos(basis.nodes.nodes))
    calls = []

    def counted(basis, x, *args):
        calls.append(len(x))
        return _block(basis, x, *args)

    monkeypatch.setattr(interp_module, "_block", counted)
    eval_interpolant(itp, np.linspace(-1.0, 1.0, 512))
    assert calls == [512]


@pytest.mark.parametrize("sizes", [(129,), (29, 29)], ids=["n129", "29x29"])
def test_blocked_evaluation_at_nodes_returns_coefficients(sizes, rng):
    itp, _ = _tensor_case("rational", sizes, rng)
    nodes = [basis.nodes.nodes for basis in itp.bases]
    grid = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=1)
    repeats = 2 * _BLOCK_ENTRIES // len(grid) + 1  # several blocks
    got = eval_interpolant(itp, np.tile(grid, (repeats, 1)))
    assert got.tobytes() == np.tile(itp.coeffs, repeats).tobytes()


@pytest.mark.parametrize("p", [1, 2])
def test_value_that_is_not_finite_names_its_point(p):
    # rate 1 on [0, inf]: every map value is finite at x = 300, while L_j(300) overflows
    basis = basis_from_spec({"kind": "exponential", "params": {"rates": 1.0}}, {}, 8, (0, np.inf))
    itp = interpolate_nd([basis] * p, np.ones(basis.size**p))
    pts = np.full((5, p), 0.5)
    pts[3, 0] = 300.0
    with pytest.raises(InvalidParameterError, match=re.escape(f"not finite at x = {[300.0, 0.5][:p]}")):
        eval_interpolant(itp, pts)
    if p == 1:
        with pytest.raises(InvalidParameterError, match="not finite at x = 300.0$"):
            eval_interpolant(itp, 300.0)
    np.testing.assert_allclose(eval_interpolant(itp, pts[:3]), 1.0, rtol=1e-15)


def test_reciprocal_that_overflows_takes_the_cardinal_table(rng):
    # some w_j / term_j overflow where P is normal and every L_j finite: those points
    # are evaluated again through the checked table, whose columns that are not
    # finite are formed by factors (9.97e-16 measured; 1.07e-15 over 13 seeds)
    basis = reciprocal_overflow_basis()
    coeffs = np.ones(basis.size)
    xs = rng.uniform(0.0, 1e-7, 400)
    terms = _terms(basis, xs)
    with np.errstate(all="ignore"):
        reciprocals = (coeffs / basis._denom_prod)[:, None] / terms
    overflows = np.isinf(reciprocals).any(axis=0) & (np.abs(terms.prod(axis=0)) >= 2.0**-1022)
    assert 0 < overflows.sum() < len(xs)
    values = eval_interpolant(interpolate_1d(basis, coeffs), xs)
    scale = np.abs(coeffs) @ np.abs(lagrange_matrix(basis, xs))
    exact = exact_values(basis, coeffs, xs)
    assert np.all(np.abs(values - exact) <= 4e-15 * scale)
    # in 2-D the unchecked tables hold inf at those points (9.12e-16 measured)
    perm = rng.permutation(len(xs))
    grid = interpolate_nd([basis] * 2, np.ones(basis.size**2))
    values = eval_interpolant(grid, np.c_[xs, xs[perm]])
    exact_y, scale_y = exact[perm], scale[perm]
    assert np.all(np.abs(values - exact * exact_y) <= 4e-15 * scale * scale_y)


# -- persistence -----------------------------------------------------------


def test_json_round_trip_1d(tmp_path, rng):
    basis = build_basis("exponential", {"rates": [0.3, 0.7, 1.1, 0.5, 0.9, 0.2]},
                        n=5, a=0.0, b=1.0)
    itp = interpolate_1d(basis, rng.normal(size=6))
    path = tmp_path / "itp.json"
    save_interpolant(itp, path)
    back = load_interpolant(path)
    assert isinstance(back, TensorInterpolant)
    assert back.ndim == 1
    np.testing.assert_array_equal(back.coeffs, itp.coeffs)
    np.testing.assert_array_equal(back.bases[0].nodes.nodes, basis.nodes.nodes)
    for x in np.linspace(0.1, 0.9, 7):
        assert eval_interpolant(back, float(x)) == eval_interpolant(itp, float(x))


def test_json_round_trip_tensor(tmp_path, rng):
    bx = build_basis("identity", n=3)
    by = build_basis("rational", {"L": 2.0}, n=4, a=0.0, b=1.0)
    itp = interpolate_nd([bx, by], rng.normal(size=20))
    path = tmp_path / "tensor.json"
    save_interpolant(itp, path)
    back = load_interpolant(path)
    assert isinstance(back, TensorInterpolant)
    assert back.grid_shape == (4, 5)
    assert eval_interpolant(back, [0.2, 0.8]) == eval_interpolant(itp, [0.2, 0.8])


def test_json_round_trip_semi_infinite_domain(tmp_path):
    nodes = NodeSet(np.array([0.0, 0.5, 1.5, 4.0, 9.0]), (0.0, float("inf")))
    basis = validate_basis(make_psi_family("rational", {"L": 1.0}, size=5), nodes)
    itp = interpolate_1d(basis, 1.0 / (1.0 + nodes.nodes))
    path = tmp_path / "semi.json"
    save_interpolant(itp, path)
    back = load_interpolant(path)
    assert back.bases[0].nodes.domain == (0.0, float("inf"))
    assert eval_interpolant(back, 100.0) == eval_interpolant(itp, 100.0)


def test_save_over_a_longer_file_leaves_the_bytes_of_a_fresh_save(tmp_path, rng):
    itp = interpolate_1d(build_basis("identity", n=6), rng.normal(size=7))
    save_interpolant(itp, tmp_path / "fresh.json")
    fresh = (tmp_path / "fresh.json").read_bytes()
    path = tmp_path / "again.json"
    path.write_bytes(fresh * 50)
    for _ in range(2):
        save_interpolant(itp, path)
        assert path.read_bytes() == fresh


def test_written_file_takes_its_mode_from_the_umask(tmp_path):
    # documented behaviour change: a rewrite in place kept the old file's mode
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    mask = os.umask(0o022)
    try:
        write_artifact(path, "new\n")
    finally:
        os.umask(mask)
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o777 == 0o644


def test_path_that_cannot_be_unlinked_is_rewritten_in_place(tmp_path, monkeypatch):
    # a writable file in a directory that forbids the unlink is still written
    path = tmp_path / "a.csv"
    path.write_text("a much longer old text\n")

    def refuse(target):
        raise PermissionError(13, "Permission denied", str(target))

    monkeypatch.setattr(os, "unlink", refuse)
    write_artifact(path, "new\n")
    assert path.read_text() == "new\n"


def test_hard_linked_file_is_written_through(tmp_path):
    path, other = tmp_path / "a.csv", tmp_path / "b.csv"
    path.write_text("a much longer old text\n")
    os.link(path, other)
    write_artifact(path, "new\n")
    assert other.read_text() == "new\n"
    assert path.stat().st_ino == other.stat().st_ino


def test_fifo_at_the_path_is_written_through(tmp_path):
    path = tmp_path / "pipe"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_text()), daemon=True)
    reader.start()
    write_artifact(path, "new\n")
    reader.join(timeout=10)
    assert got == ["new\n"]
    assert stat.S_ISFIFO(os.lstat(path).st_mode)


def test_device_at_the_path_is_written_through(tmp_path, monkeypatch):
    # a character device (/dev/null, a tty) must not be unlinked; lstat reports one here
    path = tmp_path / "dev"
    path.write_text("a much longer old text\n")
    real, unlinked = os.lstat, []
    monkeypatch.setattr(
        os, "lstat", lambda p: os.stat_result((stat.S_IFCHR | 0o666,) + tuple(real(p))[1:])
    )
    monkeypatch.setattr(os, "unlink", unlinked.append)
    write_artifact(path, "new\n")
    assert path.read_text() == "new\n"
    assert unlinked == []


def test_serialized_form_is_plain_data():
    basis = build_basis("identity", n=2)
    blob = interpolant_to_json(interpolate_1d(basis, [1.0, 2.0, 3.0]))
    assert blob["kind"] == "interpolant"
    assert blob["ordering"] == "last-fastest"
    assert blob["dims"][0]["family"]["kind"] == "identity"
    json.dumps(blob)  # must not need custom encoders


def test_kind_tag_follows_dimension():
    basis = build_basis("identity", n=2)
    line = interpolant_to_json(interpolate_nd([basis], [1.0, 2.0, 3.0]))
    assert line["kind"] == "interpolant"
    plane = interpolant_to_json(interpolate_nd([basis, basis], np.arange(9.0)))
    assert plane["kind"] == "tensor-interpolant"
    # files that tag a one-basis interpolant as a tensor still load
    line["kind"] = "tensor-interpolant"
    assert interpolant_from_json(line).ndim == 1
    plane["kind"] = "interpolant"
    with pytest.raises(InvalidParameterError, match="exactly one dim block"):
        interpolant_from_json(plane)


def test_from_json_rejects_unknown_kind():
    basis = build_basis("identity", n=2)
    blob = interpolant_to_json(interpolate_1d(basis, [1.0, 2.0, 3.0]))
    blob["kind"] = "mystery"
    with pytest.raises(InvalidParameterError):
        interpolant_from_json(blob)


def test_from_json_rejects_foreign_ordering():
    basis = build_basis("identity", n=2)
    blob = interpolant_to_json(interpolate_1d(basis, [1.0, 2.0, 3.0]))
    blob["ordering"] = "first-fastest"
    with pytest.raises(InvalidParameterError):
        interpolant_from_json(blob)


def test_from_json_revalidates_nodes():
    basis = build_basis("identity", n=2)
    blob = interpolant_to_json(interpolate_1d(basis, [1.0, 2.0, 3.0]))
    blob["dims"][0]["nodes"]["values"][1] = blob["dims"][0]["nodes"]["values"][0]
    with pytest.raises(InvalidParameterError):
        interpolant_from_json(blob)


def test_to_json_rejects_foreign_objects():
    with pytest.raises(InvalidParameterError):
        interpolant_to_json({"not": "an interpolant"})


@given(
    coeffs=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=5, max_size=5
    )
)
def test_round_trip_preserves_values(coeffs):
    basis = build_basis("identity", n=4)
    itp = interpolate_1d(basis, coeffs)
    back = interpolant_from_json(interpolant_to_json(itp))
    np.testing.assert_array_equal(back.coeffs, itp.coeffs)
