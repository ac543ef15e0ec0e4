"""Circle-integral forms of the interpolant and error, and their guards.

Quadrature oracles are residue sums: for a rational integrand the
normalized circle integral equals the sum of residues of the enclosed
poles, which is computable by hand.
"""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlf.basis import NodeSet, PsiFamily, make_psi_family, validate_basis
from dlf.contour import (
    NODE_CLEARANCE,
    AnalyticFn,
    Contour,
    check_contour_eligibility,
    classical_contour_error,
    classical_contour_interpolant,
    contour_error,
    contour_interpolant,
    contour_reconstruction_gap,
    trapezoid_contour_quad,
)
from dlf.contour import _panel
from dlf.errors import ContourError, InvalidParameterError
from dlf.interp import eval_interpolant, interpolate_1d

from conftest import build_basis


class TestContourDataclass:
    def test_defaults(self):
        c = Contour()
        assert c.center == 0j and c.radius == 1.0 and c.panels == 256

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_bad_radius(self, radius):
        with pytest.raises(InvalidParameterError):
            Contour(radius=radius)

    def test_minimum_panels(self):
        with pytest.raises(InvalidParameterError):
            Contour(panels=8)
        Contour(panels=16)  # boundary value allowed

    @pytest.mark.parametrize("panels", [16.9, np.nan, np.inf, True, "32", None])
    def test_panel_count_must_be_an_integer(self, panels):
        with pytest.raises(InvalidParameterError, match="panel count must be an integer"):
            Contour(panels=panels)

    @pytest.mark.parametrize("panels", [32.0, np.int64(32), np.float64(32.0)])
    def test_integral_panel_counts_are_accepted(self, panels):
        c = Contour(panels=panels)
        assert c.panels == 32 and type(c.panels) is int

    @pytest.mark.parametrize("center", [complex("nan"), complex(0.0, np.inf), np.nan, -np.inf])
    def test_center_must_be_finite(self, center):
        with pytest.raises(InvalidParameterError, match="center must be finite"):
            Contour(center=center)

    def test_panel_points_lie_on_circle(self):
        c = Contour(center=1 + 2j, radius=3.0, panels=32)
        zs = c.panel_points()
        assert zs.shape == (32,)
        np.testing.assert_allclose(np.abs(zs - (1 + 2j)), 3.0, atol=1e-13)
        assert zs[0] == pytest.approx(4 + 2j)

    def test_enclosure_clearance(self):
        c = Contour(radius=2.0)
        assert c.encloses(1.8)  # exactly at the clearance margin
        assert not c.encloses(1.9)
        assert c.encloses(1.9, clearance=0.0)


class TestTrapezoidQuad:
    def test_simple_pole_at_center(self):
        val = trapezoid_contour_quad(lambda z: 1.0 / z, Contour(panels=64))
        assert abs(val - 1.0) < 1e-13

    def test_offset_pole_inside(self):
        val = trapezoid_contour_quad(
            lambda z: 5.0 / (z - 0.3j), Contour(panels=128)
        )
        assert abs(val - 5.0) < 1e-12

    def test_pole_outside_contributes_nothing(self):
        val = trapezoid_contour_quad(lambda z: 1.0 / (z - 2.0), Contour(panels=64))
        assert abs(val) < 1e-12

    def test_entire_integrand_vanishes(self):
        val = trapezoid_contour_quad(np.exp, Contour(panels=64))
        assert abs(val) < 1e-13

    def test_double_pole_has_zero_residue(self):
        val = trapezoid_contour_quad(lambda z: 1.0 / z**2, Contour(panels=64))
        assert abs(val) < 1e-13

    def test_two_poles_sum_residues(self):
        f = lambda z: 2.0 / (z - 0.4) - 1.5 / (z + 0.2j)
        val = trapezoid_contour_quad(f, Contour(panels=128))
        assert abs(val - 0.5) < 1e-11

    def test_pole_on_circle_detected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ContourError):
                trapezoid_contour_quad(lambda z: 1.0 / (z - 1.0), Contour(panels=64))

    def test_pole_on_circle_leaks_no_warning(self):
        # no errstate here: a leaked RuntimeWarning fails under the suite's filter
        with pytest.raises(ContourError, match=r"panel point \(1\+0j\)"):
            trapezoid_contour_quad(lambda z: 1.0 / (z - 1.0), Contour(panels=64))

    def test_constant_integrand_is_broadcast(self):
        val = trapezoid_contour_quad(lambda z: 2.0, Contour(panels=64))
        assert abs(val) < 1e-13

    @given(
        re=st.floats(min_value=-0.5, max_value=0.5),
        im=st.floats(min_value=-0.5, max_value=0.5),
        c=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_residue_recovery_for_random_inside_poles(self, re, im, c):
        pole = complex(re, im)
        val = trapezoid_contour_quad(lambda z: c / (z - pole), Contour(panels=96))
        assert abs(val - c) < 1e-10


class TestAnalyticFn:
    def test_requires_callable(self):
        with pytest.raises(InvalidParameterError):
            AnalyticFn(fn=3.0)

    def test_poles_coerced_complex(self):
        u = AnalyticFn(np.exp, poles=(1, -2.5))
        assert u.poles == (1 + 0j, -2.5 + 0j)
        assert u(0.0) == 1.0


class TestEligibility:
    def test_identity_ok(self):
        basis = build_basis("identity", n=4)
        check_contour_eligibility(basis, Contour(radius=2.0))

    def test_node_clearance_enforced(self):
        basis = build_basis("identity", n=4)
        with pytest.raises(ContourError, match="clearance"):
            check_contour_eligibility(basis, Contour(radius=1.05))

    def test_target_clearance_enforced(self):
        basis = build_basis("identity", n=4)
        with pytest.raises(ContourError, match="clearance"):
            check_contour_eligibility(basis, Contour(radius=2.0), targets=(1.9,))

    def test_integer_fractional_ok(self):
        basis = build_basis("fractional", {"delta": 2.0}, n=4, a=0.5, b=2.5)
        check_contour_eligibility(basis, Contour(center=1.5, radius=2.0))

    def test_non_integer_fractional_rejected(self):
        basis = build_basis("fractional", {"delta": 1.5}, n=4, a=0.5, b=2.5)
        with pytest.raises(ContourError, match="not an integer"):
            check_contour_eligibility(basis, Contour(center=1.5, radius=2.0))

    def test_rational_pole_inside_rejected(self):
        basis = build_basis("rational", {"L": 1.0}, n=4, a=0.0, b=1.0)
        with pytest.raises(ContourError, match="pole"):
            check_contour_eligibility(basis, Contour(center=0.5, radius=2.0))

    def test_rational_pole_outside_ok(self):
        basis = build_basis("rational", {"L": 1.0}, n=4, a=0.0, b=1.0)
        check_contour_eligibility(basis, Contour(center=0.5, radius=1.2))

    @pytest.mark.parametrize(
        "kind,params",
        [("mixed", {"split": 2}), ("generalized", {"expr": "x^3 + x"})],
    )
    def test_unsupported_families_rejected(self, kind, params):
        basis = build_basis(kind, params, n=4, a=0.1, b=0.9)
        with pytest.raises(ContourError, match="not supported"):
            check_contour_eligibility(basis, Contour(center=0.5, radius=2.0))

    def test_declared_u_pole_inside_rejected(self):
        basis = build_basis("identity", n=4)
        u = AnalyticFn(lambda z: 1.0 / (z - 0.2), poles=(0.2,))
        with pytest.raises(ContourError, match="singularity"):
            check_contour_eligibility(basis, Contour(radius=2.0), u=u)

    def test_first_offending_node_is_named(self):
        basis = build_basis("identity", n=6)
        nodes = basis.nodes.nodes
        contour = Contour(center=0.5, radius=1.5)
        # CGL nodes on [-1, 1]: only those below -0.85 miss the clearance
        first = next(x for x in nodes if not contour.encloses(x))
        with pytest.raises(ContourError, match=re.escape(f"node {first} misses")):
            check_contour_eligibility(basis, contour, targets=(5.0,))

    def test_first_offending_target_is_named(self):
        basis = build_basis("identity", n=4)
        with pytest.raises(ContourError, match=r"evaluation point \(1\.9\+0\.5j\) misses"):
            check_contour_eligibility(basis, Contour(radius=2.0), targets=(0.2, 1.9 + 0.5j, 3.0))

    def test_first_rational_pole_inside_is_named(self):
        # per-index poles -3, -2.5, ..., -1: the circle reaches down to -2.1
        basis = build_basis("rational", {"L": 3.0 - 0.5 * np.arange(5)}, n=4, a=0.0, b=1.0)
        poles = basis.psi.pole_locations()
        with pytest.raises(ContourError, match=re.escape(f"rational map pole at {poles[2]} ")):
            check_contour_eligibility(basis, Contour(center=0.5, radius=2.6))

    def test_first_declared_u_pole_inside_is_named(self):
        basis = build_basis("identity", n=4)
        u = AnalyticFn(np.exp, poles=(5.0, 0.2j, 0.3))
        with pytest.raises(ContourError, match=re.escape("singularity of u at 0.2j lies")):
            check_contour_eligibility(basis, Contour(radius=2.0), u=u)

    def test_interpolant_entry_point_checks_too(self):
        basis = build_basis("mixed", {"split": 2}, n=4, a=0.1, b=0.9)
        with pytest.raises(ContourError):
            contour_interpolant(basis, np.exp, 0.5, Contour(center=0.5, radius=2.0))


def identity_setup(n=4, panels=256):
    basis = build_basis("identity", n=n)
    itp = interpolate_1d(basis, np.exp(basis.nodes.nodes))
    return basis, itp, Contour(radius=2.0, panels=panels)


class TestAgainstDirectEvaluation:
    def test_interpolant_form(self):
        basis, itp, contour = identity_setup()
        for x in (-0.9, -0.35, 0.1, 0.62):
            ci = contour_interpolant(basis, np.exp, x, contour)
            assert abs(ci - eval_interpolant(itp, x)) < 1e-10
            assert abs(ci.imag) < 1e-11

    def test_error_form(self):
        basis, itp, contour = identity_setup()
        for x in (-0.7, 0.25, 0.83):
            ce = contour_error(basis, np.exp, x, contour)
            direct = eval_interpolant(itp, x) - np.exp(x)
            assert abs(ce - direct) < 1e-10

    def test_panel_refinement_converged(self):
        basis, _, coarse = identity_setup(panels=128)
        fine = Contour(radius=2.0, panels=256)
        x = 0.37
        a = contour_interpolant(basis, np.exp, x, coarse)
        b = contour_interpolant(basis, np.exp, x, fine)
        assert abs(a - b) < 1e-12

    def test_radius_independence(self):
        basis, _, c2 = identity_setup()
        c3 = Contour(radius=3.0, panels=256)
        x = -0.28
        a = contour_error(basis, np.exp, x, c2)
        b = contour_error(basis, np.exp, x, c3)
        assert abs(a - b) < 1e-11

    def test_classical_forms_agree_with_averaged(self):
        basis, _, contour = identity_setup()
        x = 0.41
        assert (
            abs(
                classical_contour_interpolant(basis, np.exp, x, contour)
                - contour_interpolant(basis, np.exp, x, contour)
            )
            < 1e-11
        )
        assert (
            abs(
                classical_contour_error(basis, np.exp, x, contour)
                - contour_error(basis, np.exp, x, contour)
            )
            < 1e-11
        )

    def test_classical_forms_need_identity(self):
        basis = build_basis("exponential", {"rates": 0.5}, n=4, a=0.0, b=1.0)
        contour = Contour(center=0.5, radius=1.2)
        with pytest.raises(ContourError):
            classical_contour_interpolant(basis, np.exp, 0.5, contour)

    def test_error_vanishes_at_nodes(self):
        basis, _, contour = identity_setup()
        xk = float(basis.nodes.nodes[2])
        assert abs(contour_error(basis, np.exp, xk, contour)) < 1e-11
        ci = contour_interpolant(basis, np.exp, xk, contour)
        assert abs(ci - np.exp(xk)) < 1e-11

    def test_polynomial_u_has_no_error(self):
        basis, _, contour = identity_setup()
        u = lambda z: z**2 - 3.0 * z
        for x in (-0.5, 0.3):
            assert abs(contour_error(basis, u, x, contour)) < 1e-11
            assert abs(contour_interpolant(basis, u, x, contour) - u(x)) < 1e-11

    def test_exponential_family(self):
        basis = build_basis("exponential", {"rates": 0.5}, n=4, a=0.0, b=1.0)
        itp = interpolate_1d(basis, np.exp(basis.nodes.nodes))
        contour = Contour(center=0.5, radius=1.2, panels=256)
        x = 0.3
        ci = contour_interpolant(basis, np.exp, x, contour)
        assert abs(ci - eval_interpolant(itp, x)) < 1e-9

    def test_rational_family(self):
        basis = build_basis("rational", {"L": 1.0}, n=4, a=0.0, b=1.0)
        u = lambda z: np.cos(z)
        itp = interpolate_1d(basis, u(basis.nodes.nodes))
        contour = Contour(center=0.5, radius=1.2, panels=256)
        x = 0.7
        ci = contour_interpolant(basis, u, x, contour)
        ce = contour_error(basis, u, x, contour)
        assert abs(ci - eval_interpolant(itp, x)) < 1e-10
        assert abs(ce - (eval_interpolant(itp, x) - u(x))) < 1e-10


class TestReconstruction:
    def test_identity_gap(self):
        basis, _, contour = identity_setup()
        for x in (-0.6, 0.15, 0.8):
            assert contour_reconstruction_gap(basis, np.exp, x, contour) < 1e-10

    def test_rational_gap(self):
        # the map is injective on the whole plane minus its pole, so the
        # reconstruction identity holds to quadrature accuracy
        basis = build_basis("rational", {"L": 1.0}, n=4, a=0.0, b=1.0)
        contour = Contour(center=0.5, radius=1.2, panels=256)
        assert contour_reconstruction_gap(basis, np.cos, 0.3, contour) < 1e-10

    def test_fourier_gap_is_a_measurement(self):
        # sine maps repeat values off the real line; the gap is whatever it
        # is, and the function must report it rather than fail
        basis = build_basis("fourier-sin", {"freqs": 1.2}, n=4, a=0.1, b=1.2)
        contour = Contour(center=0.65, radius=1.5, panels=256)
        gap = contour_reconstruction_gap(basis, np.exp, 0.5, contour)
        assert np.isfinite(gap) and gap >= 0.0


# -- the array pass against a per-panel, per-j scalar loop -------------------

# kind, params, domain, circle center and radius: every eligible kind, with
# the maps analytic and injective inside the circle
ELIGIBLE_CASES = [
    ("identity", {}, (-1.0, 1.0), 0.0, 2.0),
    ("fractional", {"delta": 2.0}, (0.5, 1.5), 1.0, 0.8),
    ("exponential", {"rates": 0.7}, (-1.0, 1.0), 0.0, 1.5),
    ("fourier-sin", {"freqs": 0.9}, (-1.0, 1.0), 0.0, 1.3),
    ("fourier-cos", {"freqs": 1.0}, (0.5, 2.5), 1.5, 1.3),
    ("rational", {"L": 1.5}, (0.0, 1.0), 0.5, 0.6),
]


def smooth_u(z):
    return np.exp(0.8 * z) * np.cos(1.1 * z)


def scalar_reference(basis, u, x, contour, error):
    """The averaged j-form, one panel point and one index ``j`` at a time."""
    own = basis._psi_own
    psi_x = basis.psi.values_at(x)
    wx = complex(np.prod(psi_x - own))
    zs = contour.panel_points()
    sums = np.zeros(basis.size, dtype=complex)
    for t in zs:
        v0, v1 = basis.psi.values_at(t), basis.psi.values_at(t, order=1)
        wt, ut = complex(np.prod(v0 - own)), complex(u(t))
        unit = (t - contour.center) / contour.radius
        for j in range(basis.size):
            if error:
                f = v1[j] * wx * ut / (wt * (psi_x[j] - v0[j]))
            else:
                f = v1[j] * ut * (wt - wx) / (wt * (v0[j] - psi_x[j]))
            sums[j] += f * unit
    return complex(np.mean(contour.radius / contour.panels * sums))


# the same circles with a map per index: these take the mean over the rows
# of one table instead of the single row of a shared map
PER_INDEX_CASES = [
    ("rational", lambda n: {"L": 1.0 + np.arange(n + 1) / (2 * n)}, (0.0, 1.0), 0.5, 0.6),
    ("exponential", lambda n: {"rates": 0.5 + 0.4 * np.arange(n + 1) / n}, (-1.0, 1.0), 0.0, 1.5),
]
ARRAY_PASS_CASES = ELIGIBLE_CASES + PER_INDEX_CASES
ARRAY_PASS_IDS = [c[0] for c in ELIGIBLE_CASES] + [f"{c[0]}-per-index" for c in PER_INDEX_CASES]


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("case", ARRAY_PASS_CASES, ids=ARRAY_PASS_IDS)
def test_array_pass_matches_scalar_loop(case, n):
    kind, params, (a, b), center, radius = case
    per_index = callable(params)
    basis = build_basis(kind, params(n) if per_index else params, n=n, a=a, b=b)
    assert basis.psi.is_homogeneous is not per_index
    contour = Contour(center, radius, panels=128)
    # a point off the nodes, and two nodes, where w(x) and the error vanish
    for x in (a + 0.3 * (b - a), float(basis.nodes.nodes[1]), b):
        for form, error in ((contour_interpolant, False), (contour_error, True)):
            got = form(basis, smooth_u, x, contour)
            want = scalar_reference(basis, smooth_u, x, contour, error)
            assert abs(got - want) < 1e-13, (form.__name__, x)


@pytest.mark.parametrize("k", [0, 5, 37])
def test_pole_of_u_on_a_panel_point_is_named(k):
    # no errstate here: a leaked RuntimeWarning fails under the suite's filter
    basis = build_basis("identity", n=6)
    contour = Contour(radius=2.0, panels=64)
    pole = contour.panel_points()[k]
    u = lambda z: np.exp(z) / (z - pole)
    for form in (contour_interpolant, contour_error, contour_reconstruction_gap):
        with pytest.raises(ContourError, match=re.escape(f"at panel point {pole}")):
            form(basis, u, 0.3, contour)


@pytest.mark.parametrize("n", [8, 16])
def test_classical_forms_match_averaged_forms(n):
    basis = build_basis("identity", n=n)
    contour = Contour(radius=2.0)
    for x in (-0.77, 0.05, 0.9):
        ci = contour_interpolant(basis, smooth_u, x, contour)
        ce = contour_error(basis, smooth_u, x, contour)
        assert abs(classical_contour_interpolant(basis, smooth_u, x, contour) - ci) < 1e-13
        assert abs(classical_contour_error(basis, smooth_u, x, contour) - ce) < 1e-13


# -- call counts: one array pass, whatever N and the panel count ------------


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``u`` calls and ``PsiFamily.values_at`` calls."""
    calls = {"u": 0, "values_at": 0}
    values_at = PsiFamily.values_at

    def counting_values_at(self, x, order=0):
        calls["values_at"] += 1
        return values_at(self, x, order)

    def u(z):
        calls["u"] += 1
        return smooth_u(z)

    monkeypatch.setattr(PsiFamily, "values_at", counting_values_at)
    return calls, u


@pytest.mark.parametrize("n,panels", [(4, 16), (4, 256), (16, 64), (16, 512)])
def test_interpolant_evaluates_u_and_maps_once(counted, n, panels):
    calls, u = counted
    basis = build_basis("exponential", {"rates": 0.7}, n=n)
    calls.update(u=0, values_at=0)
    contour_interpolant(basis, u, 0.3, Contour(radius=1.5, panels=panels))
    # psi and psi' on the panel points, and psi(x), which also gives w(x)
    assert calls == {"u": 1, "values_at": 3}


def test_reconstruction_gap_shares_one_panel_build(counted):
    calls, u = counted
    basis = build_basis("identity", n=8)
    calls.update(u=0, values_at=0)
    contour_reconstruction_gap(basis, u, 0.3, Contour(radius=2.0))
    # one array call on the circle, one scalar call for u(x)
    assert calls == {"u": 2, "values_at": 3}


def test_panel_data_must_match_the_call():
    basis = build_basis("identity", n=4)
    contour = Contour(radius=2.0)
    panel = _panel(basis, np.exp, 0.3, contour)
    assert contour_error(basis, np.exp, 0.3, contour, panel=panel) == contour_error(
        basis, np.exp, 0.3, contour
    )
    with pytest.raises(InvalidParameterError, match="panel data"):
        contour_interpolant(basis, np.exp, 0.4, contour, panel=panel)
