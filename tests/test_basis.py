"""Basis construction, cardinal-function properties, and validation errors.

The square-map two-node basis (maps x^2 on nodes {1, 2}) is small enough
to differentiate by hand; its weight-derivative and scale-factor values
below were differentiated by hand and anchor the cached quantities.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlf.basis import (
    FAMILY_KINDS,
    NodeSet,
    dlf_eval,
    dlf_eval_via_weight,
    dlf_limit,
    generate_nodes,
    lagrange_matrix,
    lagrange_values,
    make_psi_family,
    validate_basis,
    weight_eval,
)
from dlf.errors import (
    DegenerateDerivativeError,
    DomainError,
    InvalidParameterError,
    SeparationError,
    UnsupportedKindError,
)

from conftest import build_basis

# kind, params, domain; every kind is exercised, heterogeneous ones last
FAMILY_CASES = [
    ("identity", {}, (-1.0, 1.0)),
    ("fractional", {"delta": 2.0}, (0.5, 2.5)),
    ("fractional", {"delta": 1.5}, (0.5, 2.5)),
    ("generalized", {"expr": "x^3 + x"}, (-1.0, 1.0)),
    ("rational", {"L": 1.0}, (0.0, 1.0)),
    ("rational", {"L": 2.0, "variant": "(x-L)/(x+L)"}, (0.0, 3.0)),
    ("exponential", {"rates": 0.5}, (0.0, 1.0)),
    ("fourier-sin", {"freqs": 1.2}, (0.1, 1.2)),
    ("fourier-cos", {"freqs": 1.0}, (0.2, 2.8)),
    ("mixed", {"split": 4, "rates": 0.3, "freqs": 1.1}, (0.1, 0.9)),
]
HOMOGENEOUS_CASES = [s for s in FAMILY_CASES if s[0] != "mixed"]


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


@given(
    case=st.sampled_from(FAMILY_CASES),
    t=st.floats(min_value=0.05, max_value=0.95),
)
def test_product_and_ratio_forms_agree(case, t):
    kind, params, (a, b) = case
    basis = build_basis(kind, params, n=6, a=a, b=b)
    x = a + (b - a) * t
    if np.min(np.abs(x - basis.nodes.nodes)) < 1e-6 * (b - a):
        return  # the ratio form is 0/0 at the nodes
    for j in (0, 3, 6):
        direct = dlf_eval(basis, j, x)
        via_weight = dlf_eval_via_weight(basis, j, x)
        assert via_weight == pytest.approx(direct, rel=1e-9, abs=1e-11)


def test_lagrange_matrix_columns_match_pointwise_eval(rng):
    basis = build_basis("rational", {"L": 2.0}, n=7, a=0.0, b=2.0)
    xs = rng.uniform(0.0, 2.0, 6)
    table = lagrange_matrix(basis, xs)
    for k, x in enumerate(xs):
        np.testing.assert_allclose(table[:, k], lagrange_values(basis, x), rtol=1e-12)


# first case of every kind, for tests that run once per kind
KIND_CASES = {case[0]: case for case in reversed(FAMILY_CASES)}


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


_EVALUATORS = {
    "weight_eval": weight_eval,
    "dlf_eval": lambda basis, x: dlf_eval(basis, 3, x),
    "dlf_eval_via_weight": lambda basis, x: dlf_eval_via_weight(basis, 3, x),
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


def test_basis_index_bounds():
    basis = build_basis("identity", n=4)
    with pytest.raises(InvalidParameterError):
        dlf_eval(basis, 5, 0.0)
    with pytest.raises(InvalidParameterError):
        dlf_eval_via_weight(basis, -1, 0.0)
