"""The cardinal kernel against cardinal functions in exact rational arithmetic.

Each tolerance bounds ``max_j |L_j - exact L_j|`` over the largest exact
``|L_j|`` of the column, and was set at about four times the largest value
measured.  Near a node the float maps round ``psi_i(x) - psi_i(x_k)`` far
more than the kernel rounds its products, so those tolerances grow with
``N`` and with the map, not with the kernel.
"""

import numpy as np
import pytest

from dlf.basis import lagrange_matrix

from conftest import build_basis, overflow_basis, underflow_basis
from exact import exact_table

# kind, params, domain, N, tolerance; every case has a node at 0, next to TINY_POINTS
EXACT_CASES = [
    ("identity", {}, (-1.0, 1.0), 24, 4e-15),
    ("rational", {"L": 1.0}, (0.0, 1.0), 16, 1e-12),
    ("rational", {"L": 2.0, "variant": "(x-L)/(x+L)"}, (0.0, 3.0), 8, 1.5e-13),
    ("rational", {"L": [1 + i / 16 for i in range(9)]}, (0.0, 1.0), 8, 2.5e-14),
]
TINY_POINTS = [1e-160, 5e-324, 1e-151, 1e-149, 1e-300]


def test_exact_table_is_the_kronecker_delta_at_the_nodes():
    basis = build_basis("rational", {"L": [1 + i / 16 for i in range(9)]}, n=8, a=0.0, b=1.0)
    assert exact_table(basis, basis.nodes.nodes).tobytes() == np.eye(9).tobytes()


@pytest.mark.parametrize(
    "kind, params, domain, n, tol", EXACT_CASES, ids=["identity", "rational", "variant", "per-index"]
)
def test_lagrange_matrix_against_the_exact_table(kind, params, domain, n, tol):
    basis = build_basis(kind, params, n=n, a=domain[0], b=domain[1])
    nodes = basis.nodes.nodes
    xs = np.concatenate(
        [
            np.nextafter(nodes, np.inf)[:-1],
            np.nextafter(nodes, -np.inf)[1:],
            nodes[:-1] + 2.0**-40,
            TINY_POINTS,
        ]
    )
    exact = exact_table(basis, xs)
    assert np.max(np.abs(lagrange_matrix(basis, xs) - exact) / np.abs(exact).max(axis=0)) <= tol


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
