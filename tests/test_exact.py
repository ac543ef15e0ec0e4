"""The cardinal kernel against cardinal functions in exact rational arithmetic.

Each tolerance bounds ``max_j |L_j - exact L_j|`` over the largest exact
``|L_j|`` of the column, and was set at about four times the largest value
measured.  Near a node the float maps round ``psi_i(x) - psi_i(x_k)`` far
more than the kernel rounds its products, so those tolerances grow with
``N`` and with the map, not with the kernel.
"""

import numpy as np
import pytest

from dlf.basis import _terms, lagrange_matrix

from conftest import build_basis, overflow_basis, reciprocal_overflow_basis, underflow_basis
from exact import exact_table

# kind, params, domain, N, tolerance; a case with a node at 0 also takes TINY_POINTS
EXACT_CASES = [
    ("identity", {}, (-1.0, 1.0), 24, 4e-15),
    ("rational", {"L": 1.0}, (0.0, 1.0), 16, 1e-12),
    ("rational", {"L": 2.0, "variant": "(x-L)/(x+L)"}, (0.0, 3.0), 8, 1.5e-13),
    ("rational", {"L": [1 + i / 16 for i in range(9)]}, (0.0, 1.0), 8, 2.5e-14),
    ("fractional", {"delta": 2.0}, (0.5, 2.5), 8, 8e-14),
    ("fractional", {"delta": 3.0}, (0.5, 2.5), 8, 5e-12),
    ("generalized", {"expr": "x^3 + x"}, (-1.0, 1.0), 8, 5e-15),
    ("generalized", {"expr": "2*x - 0.5*x^2"}, (-1.0, 1.0), 8, 1e-14),
]
EXACT_IDS = ["identity", "rational", "variant", "per-index", "square", "cube", "cubic", "quadratic"]
TINY_POINTS = [1e-160, 5e-324, 1e-151, 1e-149, 1e-300]


def test_exact_table_is_the_kronecker_delta_at_the_nodes():
    basis = build_basis("rational", {"L": [1 + i / 16 for i in range(9)]}, n=8, a=0.0, b=1.0)
    assert exact_table(basis, basis.nodes.nodes).tobytes() == np.eye(9).tobytes()


@pytest.mark.parametrize("kind, params, domain, n, tol", EXACT_CASES, ids=EXACT_IDS)
def test_lagrange_matrix_against_the_exact_table(kind, params, domain, n, tol):
    basis = build_basis(kind, params, n=n, a=domain[0], b=domain[1])
    nodes = basis.nodes.nodes
    xs = np.concatenate(
        [
            np.nextafter(nodes, np.inf)[:-1],
            np.nextafter(nodes, -np.inf)[1:],
            nodes[:-1] + 2.0**-40,
            TINY_POINTS if 0.0 in nodes else [],
        ]
    )
    exact = exact_table(basis, xs)
    assert np.max(np.abs(lagrange_matrix(basis, xs) - exact) / np.abs(exact).max(axis=0)) <= tol


def test_lagrange_matrix_where_reciprocals_overflow_against_the_exact_table(rng):
    # next to each node, and at some random points, w_j / term_j overflows while every
    # L_j is finite: those columns are formed again by factors (1.7e-15 measured)
    basis = reciprocal_overflow_basis()
    xs = np.concatenate([np.nextafter(basis.nodes.nodes, np.inf)[:-1], rng.uniform(0.0, 1e-7, 20)])
    with np.errstate(over="ignore"):
        overflows = np.isinf((1.0 / basis._denom_prod)[:, None] / _terms(basis, xs)).any(axis=0)
    assert overflows[:40].all()
    exact = exact_table(basis, xs)
    assert np.max(np.abs(lagrange_matrix(basis, xs) - exact) / np.abs(exact).max(axis=0)) <= 8e-15


@pytest.mark.parametrize(
    "basis, xs",
    [
        (underflow_basis(), np.array([1e-120, 1e-140, 1e-100])),
        (overflow_basis(), np.linspace(1.0, 1e300, 200)),
    ],
    ids=["underflow", "overflow"],
)
def test_columns_whose_product_is_not_normal_are_exact_to_rounding(basis, xs):
    # each entry, however small, to within a few roundings of its exact value
    table, exact = lagrange_matrix(basis, xs), exact_table(basis, xs)
    assert np.all(np.abs(table - exact) <= 2e-15 * np.abs(exact))
