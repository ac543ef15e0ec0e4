"""Basis construction, cardinal-function properties, and validation errors.

The square-map two-node basis (maps x^2 on nodes {1, 2}) is small enough
to differentiate by hand; its weight-derivative and scale-factor values
below were differentiated by hand and anchor the cached quantities.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlf.basis import (
    _BLOCK_ENTRIES,
    FAMILY_KINDS,
    NodeSet,
    basis_from_spec,
    dlf_eval,
    dlf_limit,
    generate_nodes,
    lagrange_matrix,
    lagrange_values,
    make_psi_family,
    validate_basis,
    weight_eval,
    _terms,
)
from dlf.errors import (
    DegenerateDerivativeError,
    DomainError,
    ExprEvalError,
    InvalidParameterError,
    SeparationError,
    UnsupportedKindError,
)
from dlf.interp import eval_interpolant, interpolate_1d

from conftest import FAMILY_CASES, HOMOGENEOUS_CASES, KIND_CASES, build_basis


def square_map_basis():
    # domain stretches past the right node so the weight can be probed at 3
    nodes = NodeSet(np.array([1.0, 2.0]), (1.0, 3.0))
    fam = make_psi_family("fractional", {"delta": 2.0}, size=2)
    return validate_basis(fam, nodes)


class TestSquareMapWitness:
    def test_weight_value(self):
        b = square_map_basis()
        # w(3) = (9 - 1)(9 - 4)
        assert weight_eval(b, 3.0) == pytest.approx(40.0, abs=1e-12)

    def test_cardinal_value(self):
        b = square_map_basis()
        assert dlf_eval(b, 0, 1.5) == pytest.approx(7.0 / 12.0, abs=1e-14)

    def test_weight_derivatives(self):
        b = square_map_basis()
        np.testing.assert_allclose(b.wprime_at_nodes, [-6.0, 12.0], atol=1e-12)
        np.testing.assert_allclose(b.wsecond_at_nodes, [2.0, 38.0], atol=1e-12)

    def test_scale_factors(self):
        b = square_map_basis()
        np.testing.assert_allclose(b.mu, [-1.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_weight_derivatives_match_finite_differences():
    b = build_basis("rational", {"L": 1.5}, n=6, a=0.0, b=2.0)
    h = 1e-5
    for j in (1, 3, 5):
        x = b.nodes.nodes[j]
        wp = (weight_eval(b, x + h) - weight_eval(b, x - h)) / (2 * h)
        wpp = (
            weight_eval(b, x + h) - 2 * weight_eval(b, x) + weight_eval(b, x - h)
        ) / h**2
        assert wp == pytest.approx(b.wprime_at_nodes[j], rel=1e-7, abs=1e-9)
        assert wpp == pytest.approx(b.wsecond_at_nodes[j], rel=1e-5, abs=1e-6)


def test_weight_is_exactly_zero_at_nodes():
    b = build_basis("exponential", {"rates": 0.5}, n=5, a=0.0, b=1.0)
    for x in b.nodes.nodes:
        assert weight_eval(b, x) == 0.0


def test_mu_is_reciprocal_denominator_product():
    b = build_basis("rational", {"L": 1.0}, n=5, a=0.0, b=1.0)
    np.testing.assert_allclose(b.mu * b._denom_prod, np.ones(b.size), rtol=1e-13)


# -- cardinal-function properties ----------------------------------------


def _case_basis(case, n):
    kind, params, (a, b) = case
    if kind == "mixed":
        params = dict(params, split=min(params["split"], n - 1))
    return build_basis(kind, params, n=n, a=a, b=b)


@given(
    case=st.sampled_from(FAMILY_CASES),
    n=st.integers(min_value=3, max_value=9),
)
def test_kronecker_delta_exact(case, n):
    basis = _case_basis(case, n)
    table = lagrange_matrix(basis, basis.nodes.nodes)
    np.testing.assert_array_equal(table, np.eye(n + 1))


@given(
    case=st.sampled_from(HOMOGENEOUS_CASES),
    n=st.integers(min_value=3, max_value=8),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_partition_of_unity_for_shared_maps(case, n, t):
    kind, params, (a, b) = case
    basis = build_basis(kind, params, n=n, a=a, b=b)
    x = a + (b - a) * t
    assert abs(np.sum(lagrange_values(basis, x)) - 1.0) <= 1e-10


def test_partition_fails_for_mixed_maps():
    # structurally different maps (exp head, sin tail) cannot reproduce
    # constants away from the nodes; the defect is large, not a rounding
    # artifact, which is why partition of unity is promised for shared maps only
    kind, params, (a, b) = FAMILY_CASES[-1]
    basis = build_basis(kind, params, n=8, a=a, b=b)
    defect = max(
        abs(np.sum(lagrange_values(basis, x)) - 1.0)
        for x in np.linspace(a + 0.013, b - 0.017, 40)
    )
    assert defect > 1e-2


def test_lagrange_matrix_columns_match_pointwise_eval(rng):
    basis = build_basis("rational", {"L": 2.0}, n=7, a=0.0, b=2.0)
    xs = rng.uniform(0.0, 2.0, 6)
    table = lagrange_matrix(basis, xs)
    for k, x in enumerate(xs):
        np.testing.assert_allclose(table[:, k], lagrange_values(basis, x), rtol=1e-12)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_batched_kernel_matches_product_form(kind, rng):
    kind, params, (a, b) = KIND_CASES[kind]
    basis = build_basis(kind, params, n=12, a=a, b=b)
    xs = rng.uniform(a, b, 200)
    table = lagrange_matrix(basis, xs)
    reference = np.array([dlf_eval(basis, j, xs) for j in range(basis.size)])
    np.testing.assert_allclose(table, reference, rtol=1e-13)
    for k in range(0, len(xs), 20):
        np.testing.assert_array_equal(table[:, k], lagrange_values(basis, xs[k]))
    np.testing.assert_array_equal(
        lagrange_matrix(basis, basis.nodes.nodes), np.eye(basis.size)
    )
    if 0.0 in basis.nodes.nodes:
        # a term of 1e-160 (identity, generalized, rational: psi(0) = 0) sends
        # the point down the factor-by-factor route
        tiny = np.array([1e-160, 0.5 * b])
        table = lagrange_matrix(basis, tiny)
        reference = np.array([dlf_eval(basis, j, tiny) for j in range(basis.size)])
        np.testing.assert_allclose(table, reference, rtol=1e-13)
        np.testing.assert_array_equal(table[:, 0], lagrange_values(basis, 1e-160))
        assert table[np.flatnonzero(basis.nodes.nodes == 0.0)[0], 0] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [4, 16, 128])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_own_values_are_the_table_diagonal(kind, n):
    kind, params, (a, b) = KIND_CASES[kind]
    basis = build_basis(kind, params, n=n, a=a, b=b)
    # BLAS products of the cardinal table round differently in F order
    assert lagrange_matrix(basis, np.linspace(a, b, 7)).flags.c_contiguous
    owns = [basis._psi_own, basis._dpsi_own, basis._d2psi_own, None]
    for order, own in enumerate(owns):
        table = basis.psi.values_at(basis.nodes.nodes, order)
        assert table.shape == (n + 1, n + 1)
        if basis.psi.is_homogeneous:
            # one shared row, evaluated once per point
            assert not table.flags.writeable and table.strides[0] == 0, order
        else:
            assert table.flags.c_contiguous, order
        if own is not None:
            assert own.tobytes() == np.diag(table).tobytes(), order


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_blocked_table_equals_one_block_calls(kind, rng):
    kind, params, (a, b) = KIND_CASES[kind]
    basis = build_basis(kind, params, n=12, a=a, b=b)
    step = _BLOCK_ENTRIES // basis.size
    # three full blocks and a last one of five points
    xs = rng.uniform(a, b, 3 * step + 5)
    xs[7] = basis.nodes.nodes[3]
    if 0.0 in basis.nodes.nodes:
        xs[2 * step + 1] = 1e-160  # the factor-by-factor route, in a later block
        assert np.abs(_terms(basis, xs[2 * step + 1])).min() <= 1e-150
    table = lagrange_matrix(basis, xs)
    assert table.flags.c_contiguous
    blocks = [lagrange_matrix(basis, xs[s : s + step]) for s in range(0, len(xs), step)]
    assert [blk.shape[1] for blk in blocks] == [step, step, step, 5]
    assert table.tobytes() == np.concatenate(blocks, axis=1).tobytes()
    assert table[:, 7].tobytes() == np.eye(basis.size)[3].tobytes()


def _formula(kind, params, x, order):
    """``psi^(order)`` of a homogeneous kind at the points ``x``, written out."""
    if kind == "identity":
        return [x, np.ones_like(x), np.zeros_like(x)][order]
    if kind == "fractional":
        d = params["delta"]
        return [x**d, d * x ** (d - 1), d * (d - 1) * x ** (d - 2)][order]
    if kind == "generalized":  # x^3 + x
        return [x**3 + x, 3 * x**2 + 1, 6 * x][order]
    if kind == "rational":
        L = params["L"]
        return [x / (x + L), L / (x + L) ** 2, -2 * L / (x + L) ** 3][order]
    if kind == "exponential":
        w = params["rates"]
        return w**order * np.exp(w * x)
    w = params["freqs"]
    trig = np.sin if kind == "fourier-sin" else np.cos
    return w**order * trig(w * x + order * np.pi / 2)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kind", [k for k in FAMILY_KINDS if k != "mixed"])
def test_shared_row_is_the_formula(kind, order, rng):
    kind, params, (a, b) = KIND_CASES[kind]
    fam = make_psi_family(kind, params, size=9)
    xs = rng.uniform(a, b, 50)
    table = fam.values_at(xs, order)
    expected = np.asarray(_formula(kind, params, xs, order), dtype=float)
    assert all(row.tobytes() == expected.tobytes() for row in table)


@pytest.mark.parametrize("kind", ["identity", "fourier-cos"])
def test_blocked_table_peak_memory_is_about_the_output(kind):
    kind, params, (a, b) = KIND_CASES[kind]
    basis = build_basis(kind, params, n=128, a=a, b=b)
    xs = np.linspace(a, b, 16384)
    tracemalloc.start()
    try:
        table = lagrange_matrix(basis, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, peak / table.nbytes


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_basis_holds_one_square_table(kind):
    kind, params, (a, b) = KIND_CASES[kind]
    basis = build_basis(kind, params, n=16, a=a, b=b)
    square = [
        name
        for name, value in vars(basis).items()
        if isinstance(value, np.ndarray) and value.shape == (17, 17)
    ]
    assert square == ["_f_tab"]


@pytest.mark.parametrize(
    "kind, key",
    [("rational", "L"), ("exponential", "rates"), ("fourier-sin", "freqs"), ("fourier-cos", "freqs")],
)
def test_homogeneous_exactly_when_per_index_parameters_are_equal(kind, key):
    def homogeneous(values):
        return make_psi_family(kind, {key: values}, size=5).is_homogeneous

    assert homogeneous(0.7) and homogeneous([0.7] * 5)
    assert not homogeneous([0.7, 0.7, 0.7, 0.7, 0.8])
    assert not homogeneous(np.arange(1.0, 6.0))
    if kind != "rational":  # the default rates and freqs are 1..N+1
        assert not make_psi_family(kind, {}, size=5).is_homogeneous


@pytest.mark.parametrize(
    "kind, key",
    [("rational", "L"), ("exponential", "rates"), ("fourier-sin", "freqs"), ("fourier-cos", "freqs")],
)
def test_one_differing_parameter_gives_its_own_row(kind, key, rng):
    xs = rng.uniform(0.1, 0.9, 6)

    def table(values):
        return make_psi_family(kind, {key: values}, size=5).values_at(xs)

    mixed, shared, other = table([0.7, 0.7, 0.7, 0.7, 0.8]), table(0.7), table(0.8)
    assert mixed.flags.c_contiguous and mixed.flags.writeable
    assert mixed[:4].tobytes() == np.ascontiguousarray(shared[:4]).tobytes()
    assert mixed[4].tobytes() == other[0].tobytes()
    assert not np.any(mixed[4] == mixed[0])


def test_mixed_is_never_homogeneous():
    fam = make_psi_family("mixed", {"split": 2, "rates": 1.0, "freqs": 1.0}, size=5)
    assert not fam.is_homogeneous


_EVALUATORS = {
    "weight_eval": weight_eval,
    "dlf_eval": lambda basis, x: dlf_eval(basis, 3, x),
}


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@pytest.mark.parametrize("k", [2, 9])  # 9 points = the basis size
def test_reference_evaluators_accept_arrays(name, k, rng):
    evaluate = _EVALUATORS[name]
    basis = build_basis("identity", n=8)
    xs = rng.uniform(-1.0, 1.0, k)
    values = evaluate(basis, xs)
    assert values.shape == (k,)
    np.testing.assert_array_equal(values, [evaluate(basis, x) for x in xs])


@pytest.mark.parametrize("xs", [[0.1, 0.2], np.linspace(-0.9, 0.9, 9), [0.5]])
def test_lagrange_values_rejects_arrays(xs):
    basis = build_basis("identity", n=8)
    with pytest.raises(InvalidParameterError, match="lagrange_matrix"):
        lagrange_values(basis, np.asarray(xs))


@pytest.mark.parametrize(
    "xs", [0.3, np.zeros((2, 3)), np.array([])], ids=["scalar", "2-d", "empty"]
)
def test_lagrange_matrix_rejects_bad_point_arrays(xs):
    basis = build_basis("identity", n=4)
    with pytest.raises(InvalidParameterError, match="non-empty 1-d"):
        lagrange_matrix(basis, xs)


# -- boundedness for maps with finite limits ------------------------------


def mapped_cgl_rational_basis(n=6, ymax=0.97):
    """Nodes drawn CGL in the mapped variable y = x/(1+x), pulled back."""
    ys = generate_nodes("cgl", n, 0.0, ymax).nodes
    xs = ys / (1.0 - ys)
    nodes = NodeSet(xs, (0.0, np.inf))
    fam = make_psi_family("rational", {"L": 1.0}, size=n + 1)
    return validate_basis(fam, nodes)


def test_cardinal_functions_stay_bounded_toward_infinity():
    basis = mapped_cgl_rational_basis()
    limits = np.array([dlf_limit(basis, j) for j in range(basis.size)])
    devs = []
    for exponent in (3, 4, 5, 6):
        vals = lagrange_values(basis, 10.0**exponent)
        devs.append(np.max(np.abs(vals - limits)))
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
    assert devs[-1] <= 1e-4


def test_limit_formula_matches_far_field_evaluation():
    basis = mapped_cgl_rational_basis()
    far = lagrange_values(basis, 1e8)
    for j in range(basis.size):
        assert dlf_limit(basis, j) == pytest.approx(far[j], abs=1e-6)


def test_limit_requires_a_family_with_limits():
    basis = build_basis("identity", n=4)
    with pytest.raises(InvalidParameterError):
        dlf_limit(basis, 0)


# -- family construction and validation errors ----------------------------


def test_family_kinds_are_exposed():
    assert "identity" in FAMILY_KINDS and "mixed" in FAMILY_KINDS


@pytest.mark.parametrize(
    "kind,params",
    [
        ("fractional", {"delta": 0.0}),
        ("fractional", {"delta": -1.0}),
        ("rational", {}),
        ("rational", {"L": -1.0}),
        ("generalized", {}),
        ("generalized", {"expr": "x + y"}),
        ("generalized", {"expr": "x^2", "max_derivative_order": 1}),
        ("exponential", {"rates": 0.0}),
        ("fourier-sin", {"freqs": 0.0}),
        ("mixed", {}),
        ("mixed", {"split": 99}),
        ("identity", {"bogus": 1}),
    ],
)
def test_bad_family_parameters(kind, params):
    with pytest.raises(InvalidParameterError):
        make_psi_family(kind, params, size=5)


def test_unknown_kind():
    with pytest.raises(UnsupportedKindError):
        make_psi_family("legendre", size=5)


def test_unknown_rational_variant():
    with pytest.raises(UnsupportedKindError):
        make_psi_family("rational", {"L": 1.0, "variant": "1/x"}, size=5)


def test_family_size_floor():
    with pytest.raises(InvalidParameterError):
        make_psi_family("identity", size=1)


def test_param_broadcast_and_length_check():
    fam = make_psi_family("exponential", {"rates": [1.0, 2.0, 3.0]}, size=3)
    np.testing.assert_array_equal(fam.params["rates"], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        make_psi_family("exponential", {"rates": [1.0, 2.0]}, size=3)


def test_separation_failure_square_map():
    # x^2 cannot tell -1 from 1 apart
    nodes = NodeSet(np.array([-1.0, 1.0]), (-1.0, 1.0))
    fam = make_psi_family("fractional", {"delta": 2.0}, size=2)
    with pytest.raises(SeparationError) as exc:
        validate_basis(fam, nodes)
    assert exc.value.gap <= 1e-10


def test_separation_failure_sine_symmetry():
    nodes = NodeSet(np.array([0.5, np.pi - 0.5]), (0.0, np.pi))
    fam = make_psi_family("fourier-sin", {"freqs": 1.0}, size=2)
    with pytest.raises(SeparationError):
        validate_basis(fam, nodes)


def test_degenerate_slope_cosine_at_zero():
    nodes = NodeSet(np.array([0.0, 1.0]), (0.0, 1.0))
    fam = make_psi_family("fourier-cos", {"freqs": 1.0}, size=2)
    with pytest.raises(DegenerateDerivativeError):
        validate_basis(fam, nodes)


def test_size_mismatch():
    nodes = NodeSet(np.array([0.0, 1.0, 2.0]), (0.0, 2.0))
    fam = make_psi_family("identity", size=2)
    with pytest.raises(InvalidParameterError):
        validate_basis(fam, nodes)


@pytest.mark.parametrize("n", [48, 64])
def test_overflowing_node_gap_products_rejected(n):
    # default rates 1..N+1: the products of node gaps overflow to inf
    fam = make_psi_family("exponential", size=n + 1)
    with pytest.raises(InvalidParameterError, match=f"'exponential' at N={n}"):
        validate_basis(fam, generate_nodes("cgl", n, -1.0, 1.0))


def test_semi_infinite_domain_restricted_to_decaying_kinds():
    nodes = NodeSet(np.array([0.0, 1.0, 2.0]), (0.0, np.inf))
    with pytest.raises(InvalidParameterError):
        validate_basis(make_psi_family("identity", size=3), nodes)
    validate_basis(make_psi_family("rational", {"L": 1.0}, size=3), nodes)


def test_fractional_needs_positive_nodes_for_noninteger_delta():
    nodes = NodeSet(np.array([-1.0, 0.5, 1.0]), (-1.0, 1.0))
    fam = make_psi_family("fractional", {"delta": 1.5}, size=3)
    with pytest.raises(InvalidParameterError):
        validate_basis(fam, nodes)


# -- the map finiteness rule ------------------------------------------------


def exponential_half_line_basis():
    # rate 1 on [0, inf]: finite at every node, while exp(1000) overflows
    return basis_from_spec({"kind": "exponential", "params": {"rates": 1.0}}, {}, 8, (0, np.inf))


FAR_POINT_CALLS = [
    ("lagrange_matrix", lambda b: lagrange_matrix(b, np.array([0.5, 1000.0]))),
    ("lagrange_values", lambda b: lagrange_values(b, 1000.0)),
    ("weight_eval", lambda b: weight_eval(b, 1000.0)),
    ("eval_interpolant", lambda b: eval_interpolant(interpolate_1d(b, np.ones(b.size)), 1000.0)),
    (
        "eval_interpolant-array",
        lambda b: eval_interpolant(interpolate_1d(b, np.ones(b.size)), np.array([2.0, 1000.0])),
    ),
]


@pytest.mark.parametrize("name,call", FAR_POINT_CALLS, ids=[c[0] for c in FAR_POINT_CALLS])
def test_map_overflow_between_nodes_raises_naming_the_point(name, call):
    basis = exponential_half_line_basis()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError) as exc:
            call(basis)
    assert str(exc.value) == "kind 'exponential' map of order 0 is not finite at x = 1000.0"


def test_map_rule_names_the_order_and_the_first_bad_point():
    fam = make_psi_family("rational", {"L": [1.0, 2.0, 3.0]}, size=3)
    with pytest.raises(InvalidParameterError) as exc:
        fam.values_at(np.array([0.0, -2.0, -1.0]), order=1)
    assert str(exc.value) == "kind 'rational' map of order 1 is not finite at x = -2.0"


def test_generalized_map_fails_through_the_expression_rule():
    fam = make_psi_family("generalized", {"expr": "1/x"}, size=5)
    with pytest.raises(ExprEvalError, match="non-finite result evaluating '1.0 / x'"):
        validate_basis(fam, generate_nodes("cgl", 4, -1.0, 1.0))  # a node at 0


@given(
    case=st.sampled_from(FAMILY_CASES),
    n=st.integers(min_value=3, max_value=9),
    t=st.floats(min_value=0.0, max_value=1.0),
    order=st.integers(min_value=0, max_value=2),
)
def test_map_rule_never_fires_inside_bounded_domains(case, n, t, order):
    basis = _case_basis(case, n)
    a, b = basis.nodes.domain
    x = a + (b - a) * t
    assert np.all(np.isfinite(basis.psi.values_at(np.array([a, x, b]), order=order)))
    assert np.all(np.isfinite(lagrange_values(basis, x)))


# -- node sets ------------------------------------------------------------


def test_cgl_nodes_symmetric_with_exact_endpoints():
    ns = generate_nodes("cgl", 8, -1.0, 1.0)
    assert ns.nodes[0] == -1.0 and ns.nodes[-1] == 1.0
    np.testing.assert_array_equal(ns.nodes, -ns.nodes[::-1])


def test_cgl_nodes_affine_map():
    ref = generate_nodes("cgl", 6, -1.0, 1.0).nodes
    mapped = generate_nodes("cgl", 6, 2.0, 5.0).nodes
    np.testing.assert_allclose(mapped, 2.0 + 3.0 * (ref + 1) / 2, atol=1e-14)


def test_equispaced_nodes():
    ns = generate_nodes("equispaced", 4, 0.0, 1.0)
    np.testing.assert_allclose(ns.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: generate_nodes("cgl", 0, 0.0, 1.0),
        lambda: generate_nodes("cgl", 4, 1.0, 0.0),
        lambda: generate_nodes("cgl", 4, 0.0, np.inf),
    ],
)
def test_generate_nodes_rejects(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_unknown_scheme():
    with pytest.raises(UnsupportedKindError):
        generate_nodes("legendre", 4, 0.0, 1.0)


# -- bases from a description ---------------------------------------------


def test_spec_defaults_to_identity_on_cgl_nodes():
    basis = basis_from_spec({}, {}, 6, (0.0, 2.0))
    assert (basis.psi.kind, basis.nodes.scheme) == ("identity", "cgl")
    assert basis.nodes.nodes.tobytes() == generate_nodes("cgl", 6, 0.0, 2.0).nodes.tobytes()
    assert basis_from_spec({}, {"values": [0.0, 2.0]}, None, (0.0, 2.0)).nodes.scheme == "custom"


def test_spec_generates_semi_infinite_nodes_on_a_unit_interval():
    basis = basis_from_spec({"kind": "rational", "params": {"L": 1.0}}, {}, 8, (0.5, np.inf))
    assert basis.nodes.domain == (0.5, np.inf)
    assert basis.nodes.nodes.tobytes() == generate_nodes("cgl", 8, 0.5, 1.5).nodes.tobytes()


@pytest.mark.parametrize(
    "family, nodes, key",
    [
        ({"kind": "exponential", "rates": 0.5}, {}, "'family'.*'rates'"),
        ({}, {"scheme": "cgl", "N": 4}, "'nodes'.*'N'"),
        ({}, {"values": [0.0, 1.0], "domain": [0.0, 1.0]}, "'nodes'.*'domain'"),
    ],
)
def test_spec_rejects_unknown_keys_by_name(family, nodes, key):
    with pytest.raises(InvalidParameterError, match=key):
        basis_from_spec(family, nodes, 1, (0.0, 1.0))


def test_spec_node_values_must_number_n_plus_one():
    values = [0.0, 0.3, 0.7, 1.0]
    for n in (3, None):
        assert basis_from_spec({}, {"values": values}, n, (0.0, 1.0)).size == 4
    with pytest.raises(InvalidParameterError, match="N=4 needs 5 node values"):
        basis_from_spec({}, {"values": values}, 4, (0.0, 1.0))
    with pytest.raises(InvalidParameterError, match="needs N"):
        basis_from_spec({}, {"scheme": "cgl"}, None, (0.0, 1.0))


@pytest.mark.parametrize(
    "nodes,domain",
    [
        ([0.0], (0.0, 1.0)),
        ([0.0, 0.0, 1.0], (0.0, 1.0)),
        ([1.0, 0.5], (0.0, 1.0)),
        ([0.0, np.nan], (0.0, 1.0)),
    ],
)
def test_node_set_rejects(nodes, domain):
    with pytest.raises(InvalidParameterError):
        NodeSet(np.asarray(nodes), domain)


def test_nodes_outside_domain():
    with pytest.raises(DomainError):
        NodeSet(np.array([0.0, 2.0]), (0.0, 1.0))


def test_evaluation_outside_domain():
    basis = build_basis("identity", n=4, a=0.0, b=1.0)
    with pytest.raises(DomainError):
        dlf_eval(basis, 0, 1.5)


def test_complex_evaluation_skips_domain_check():
    basis = build_basis("identity", n=4, a=0.0, b=1.0)
    w = weight_eval(basis, 0.5 + 2.0j)
    assert np.iscomplexobj(w) and np.isfinite(w)
    ws = weight_eval(basis, np.array([5.0 + 0.0j, -3.0 + 1.0j]))
    assert ws.shape == (2,) and np.all(np.isfinite(ws))


# every real-point entry point; the array form of each wraps the point in a 1-d array
DOMAIN_CHECKED = [
    ("lagrange_values", lambda b, x: lagrange_values(b, x)),
    ("lagrange_matrix", lambda b, x: lagrange_matrix(b, np.array([0.5, x]))),
    ("weight_eval", lambda b, x: weight_eval(b, x)),
    ("weight_eval-array", lambda b, x: weight_eval(b, np.array([x, 0.5]))),
    ("dlf_eval", lambda b, x: dlf_eval(b, 1, x)),
]


class TestDomainCheck:
    """``_check_point``: 1e-12 relative slack, NaN rejected, complex exempt."""

    @pytest.mark.parametrize("name,call", DOMAIN_CHECKED, ids=[c[0] for c in DOMAIN_CHECKED])
    def test_slack_is_1e_12_of_the_domain_scale(self, name, call):
        basis = build_basis("identity", n=4, a=-3.0, b=2.0)  # slack 3e-12
        for x in (-3.0 - 2.9e-12, 2.0 + 2.9e-12, np.float64(2.0), 1):
            call(basis, x)
        for x in (-3.0 - 3.1e-12, 2.0 + 3.1e-12, np.float64(-4.0)):
            with pytest.raises(DomainError):
                call(basis, x)

    @pytest.mark.parametrize("name,call", DOMAIN_CHECKED, ids=[c[0] for c in DOMAIN_CHECKED])
    def test_nan_is_outside(self, name, call):
        basis = build_basis("identity", n=4, a=0.0, b=1.0)
        for x in (float("nan"), np.float64("nan")):
            with pytest.raises(DomainError):
                call(basis, x)

    def test_nan_inside_an_array_is_outside(self):
        basis = build_basis("identity", n=4, a=0.0, b=1.0)
        for xs in ([np.nan, 0.5, 0.7], [0.2, np.nan, 0.7], [0.2, 0.5, np.nan]):
            with pytest.raises(DomainError):
                lagrange_matrix(basis, np.array(xs))

    def test_message_names_the_point_and_domain(self):
        basis = build_basis("identity", n=4, a=0.0, b=1.0)
        with pytest.raises(DomainError, match=r"^point 1\.5 outside domain \[0\.0, 1\.0\]$"):
            lagrange_values(basis, 1.5)
        with pytest.raises(DomainError, match=r"^point \[0\.5 2\. \] outside domain"):
            lagrange_matrix(basis, np.array([0.5, 2.0]))

    def test_semi_infinite_domain(self):
        nodes = NodeSet(np.array([0.0, 0.5, 1.5, 4.0, 9.0]), (0.0, float("inf")))
        basis = validate_basis(make_psi_family("rational", {"L": 1.0}, size=5), nodes)
        assert nodes.bounds == (-1e-12 * 9.0, float("inf"))
        lagrange_values(basis, 1e6)
        lagrange_matrix(basis, np.array([0.0, 50.0, 1e12]))
        for bad in (-1e-3, float("nan")):
            with pytest.raises(DomainError):
                lagrange_values(basis, bad)
        with pytest.raises(DomainError):
            lagrange_matrix(basis, np.array([1.0, -1.0]))


def test_basis_index_bounds():
    basis = build_basis("identity", n=4)
    with pytest.raises(InvalidParameterError):
        dlf_eval(basis, 5, 0.0)
    with pytest.raises(InvalidParameterError):
        dlf_eval(basis, -1, 0.0)
