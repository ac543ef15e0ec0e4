"""Interpolant wrappers, tensor-product evaluation, and JSON persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlf.basis import (
    FAMILY_KINDS,
    NodeSet,
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
)

from conftest import build_basis
from test_basis import KIND_CASES


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
    # one basis is the 1-D interpolant: a scalar is lagrange_values @ coeffs and
    # K points are lagrange_matrix.T @ coeffs, bit for bit, in every point form
    for kind in FAMILY_KINDS:
        _, params, (a, b) = KIND_CASES[kind]
        for n in (4, 16, 64):
            basis = build_basis(kind, params, n=n, a=a, b=b)
            coeffs = rng.normal(size=basis.size)
            itp = interpolate_nd([basis], coeffs)
            xs = rng.uniform(a, b, 257)
            batch = eval_interpolant(itp, xs)
            np.testing.assert_array_equal(batch, lagrange_matrix(basis, xs).T @ coeffs)
            np.testing.assert_array_equal(eval_interpolant(itp, xs[:, None]), batch)
            for x in xs[:9]:
                value = eval_interpolant(itp, float(x))
                assert type(value) is float
                assert value == lagrange_values(basis, float(x)) @ coeffs


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
