"""Derivative operational matrices against hand values and the FD oracle.

The two-node square-map basis is differentiated by hand below:
D1 = [[-2/3, 2/3], [-4/3, 4/3]], the order-2 recurrence matrix is
[[-2/3, 2/3], [-2/3, 2/3]], while (D1)^2 = [[-4/9, 4/9], [-8/9, 8/9]].
Their max-abs gap of 2/9 is the concrete witness that squaring the
first-derivative matrix is NOT the second-derivative matrix for general
map families, even homogeneous ones.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlf.basis import FAMILY_KINDS, NodeSet, PsiFamily, make_psi_family, validate_basis
from dlf.diffmat import (
    DiffMatrix,
    PROVENANCES,
    d1_matrix,
    dm_matrix,
    dm_oracle_fd,
    dm_power_classical,
)
from dlf.errors import (
    DerivativeOrderError,
    FdStepError,
    InvalidParameterError,
)

from conftest import KIND_CASES, build_basis


def square_map_basis():
    nodes = NodeSet(np.array([1.0, 2.0]), (1.0, 2.0))
    fam = make_psi_family("fractional", {"delta": 2.0}, size=2)
    return validate_basis(fam, nodes)


class TestSquareMapWitness:
    def test_first_derivative_matrix(self):
        d1 = d1_matrix(square_map_basis())
        np.testing.assert_allclose(
            d1.entries, [[-2 / 3, 2 / 3], [-4 / 3, 4 / 3]], atol=1e-14
        )

    def test_second_derivative_recurrence(self):
        d2 = dm_matrix(square_map_basis(), 2)
        np.testing.assert_allclose(
            d2.entries, [[-2 / 3, 2 / 3], [-2 / 3, 2 / 3]], atol=1e-14
        )

    def test_matrix_square_differs(self):
        b = square_map_basis()
        sq = d1_matrix(b).entries @ d1_matrix(b).entries
        np.testing.assert_allclose(sq, [[-4 / 9, 4 / 9], [-8 / 9, 8 / 9]], atol=1e-14)
        gap = np.max(np.abs(dm_matrix(b, 2).entries - sq))
        assert gap >= 0.2

    def test_oracle_agrees_with_both_orders(self):
        b = square_map_basis()
        o1 = dm_oracle_fd(b, 1)
        np.testing.assert_allclose(o1.entries, d1_matrix(b).entries, atol=1e-9)
        o2 = dm_oracle_fd(b, 2)
        np.testing.assert_allclose(o2.entries, dm_matrix(b, 2).entries, atol=1e-7)


# instantiations with steps known to sit inside the oracle's safe window
ORACLE_CASES = [
    ("identity", {}, -1.0, 1.0, {}),
    ("fractional", {"delta": 2.0}, 0.5, 2.5, {3: 3e-2}),
    ("rational", {"L": 5.0}, 0.0, 1.0, {3: 8e-2}),
    ("exponential", {"rates": 0.5}, 0.0, 1.0, {}),
]


@pytest.mark.parametrize("kind,params,a,b,steps", ORACLE_CASES)
def test_first_derivative_matches_oracle(kind, params, a, b, steps):
    basis = build_basis(kind, params, n=8, a=a, b=b)
    oracle = dm_oracle_fd(basis, 1)
    dev = np.max(np.abs(d1_matrix(basis).entries - oracle.entries))
    assert dev <= 1e-8


@pytest.mark.parametrize("kind,params,a,b,steps", ORACLE_CASES)
@pytest.mark.parametrize("m", [2, 3])
def test_recurrence_matches_oracle_for_shared_maps(kind, params, a, b, steps, m):
    basis = build_basis(kind, params, n=8, a=a, b=b)
    oracle = dm_oracle_fd(basis, m, step=steps.get(m))
    dev = np.max(np.abs(dm_matrix(basis, m).entries - oracle.entries))
    assert dev <= 1e-5


def test_dm_matrix_order_one_is_the_closed_form():
    basis = build_basis("rational", {"L": 1.0}, n=6, a=0.0, b=1.0)
    np.testing.assert_array_equal(
        dm_matrix(basis, 1).entries, d1_matrix(basis).entries
    )


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("m", [2, 3])
def test_identity_recurrence_collapses_to_matrix_power(n, m):
    basis = build_basis("identity", n=n)
    rec = dm_matrix(basis, m).entries
    power = dm_power_classical(basis, m).entries
    assert np.max(np.abs(rec - power)) <= 1e-9


def test_row_sums_vanish_for_shared_maps():
    # constant functions are reproduced, so every derivative matrix
    # annihilates the all-ones vector
    for kind, params, a, b, _ in ORACLE_CASES:
        basis = build_basis(kind, params, n=8, a=a, b=b)
        for m in (1, 2, 3):
            sums = dm_matrix(basis, m).entries.sum(axis=1)
            assert np.max(np.abs(sums)) <= 1e-8


def mixed_basis():
    return build_basis("mixed", {"split": 2}, n=4, a=0.1, b=0.9)


class TestIndexDependentMaps:
    """With per-index maps the closed form stays exact but the high-order
    recurrence does not track the true nodal derivatives."""

    def test_closed_form_still_exact(self):
        basis = mixed_basis()
        oracle = dm_oracle_fd(basis, 1, step=1e-2)
        dev = np.max(np.abs(d1_matrix(basis).entries - oracle.entries))
        assert dev <= 1e-8

    def test_recurrence_gap_is_structural(self):
        basis = mixed_basis()
        oracle = dm_oracle_fd(basis, 2, step=1e-2)
        gap = np.max(np.abs(dm_matrix(basis, 2).entries - oracle.entries))
        assert gap > 1e3  # measured 1.79e4, step-independent

    def test_row_sums_do_not_vanish(self):
        sums = d1_matrix(mixed_basis()).entries.sum(axis=1)
        assert np.max(np.abs(sums)) > 1.0


# -- oracle self-diagnostics ----------------------------------------------


def test_oracle_rejects_roundoff_dominated_step():
    basis = build_basis("identity", n=6)
    with pytest.raises(FdStepError) as exc:
        dm_oracle_fd(basis, 3, step=1e-5)
    assert exc.value.disagreement > 1e-4


def test_oracle_rejects_truncation_dominated_step():
    basis = build_basis("exponential", {"rates": 3.0}, n=6, a=0.0, b=1.0)
    with pytest.raises(FdStepError):
        dm_oracle_fd(basis, 2, step=30.0)


def test_oracle_supported_orders():
    basis = build_basis("identity", n=4)
    with pytest.raises(InvalidParameterError):
        dm_oracle_fd(basis, 4)


# -- derivative-order limits ---------------------------------------------


def test_generalized_map_order_cap():
    fam = make_psi_family(
        "generalized", {"expr": "x^3 + x", "max_derivative_order": 2}, size=5
    )
    basis = validate_basis(fam, NodeSet(np.linspace(-1, 1, 5), (-1.0, 1.0)))
    dm_matrix(basis, 2)  # needs psi'' only
    with pytest.raises(DerivativeOrderError):
        dm_matrix(basis, 3)  # needs psi''' which the cap forbids


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_second_d1_matrix_forms_nothing_new(kind, monkeypatch):
    kind, params, (a, b) = KIND_CASES[kind]
    basis = build_basis(kind, params, n=8, a=a, b=b)
    orders = []
    values_at = PsiFamily.values_at

    def counting_values_at(self, x, order=0):
        orders.append(order)
        return values_at(self, x, order)

    monkeypatch.setattr(PsiFamily, "values_at", counting_values_at)
    first = d1_matrix(basis).entries
    assert orders == [2, 1]  # psi'' at the nodes, and psi' for w''
    assert d1_matrix(basis).entries.tobytes() == first.tobytes()
    dm_matrix(basis, 3)
    assert orders == [2, 1, 3]  # only the third derivative is new


def test_dm_matrix_rejects_bad_order():
    basis = build_basis("identity", n=4)
    with pytest.raises(InvalidParameterError):
        dm_matrix(basis, 0)


# -- container validation and CSV -----------------------------------------


def test_diff_matrix_validation():
    with pytest.raises(InvalidParameterError):
        DiffMatrix(1, np.zeros((2, 3)), "closed-form")
    with pytest.raises(InvalidParameterError):
        DiffMatrix(1, np.full((2, 2), np.nan), "closed-form")
    with pytest.raises(InvalidParameterError):
        DiffMatrix(1, np.zeros((2, 2)), "guesswork")
    with pytest.raises(InvalidParameterError):
        DiffMatrix(0, np.zeros((2, 2)), "closed-form")


def test_provenance_tags():
    basis = build_basis("identity", n=4)
    assert d1_matrix(basis).provenance == "closed-form"
    assert dm_matrix(basis, 2).provenance == "recurrence"
    assert dm_power_classical(basis, 2).provenance == "classical-power"
    assert dm_oracle_fd(basis, 1).provenance == "fd-oracle"
    assert set(PROVENANCES) >= {"closed-form", "recurrence"}


@given(n=st.integers(min_value=2, max_value=10))
def test_identity_first_derivative_row_sums(n):
    basis = build_basis("identity", n=n)
    sums = d1_matrix(basis).entries.sum(axis=1)
    assert np.max(np.abs(sums)) <= 1e-10 * (n + 1) ** 2
