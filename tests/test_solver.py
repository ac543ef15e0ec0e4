"""Collocation assembly, row bookkeeping, and the linear/Newton solvers."""

import dataclasses
import json
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from dlf import exprlang, solver
from dlf.basis import NodeSet, make_psi_family, validate_basis
from dlf.diffmat import dm_matrix
from dlf.errors import (
    AssemblyError,
    DlfError,
    ExprDiffError,
    InvalidParameterError,
    NewtonError,
    SingularSystemError,
)
from dlf.interp import TensorInterpolant, eval_interpolant
from dlf.solver import (
    CollocationProblem,
    CollocationSystem,
    SolveOptions,
    assemble_collocation_nd,
    bases_from_config,
    detect_linear,
    load_config,
    problem_from_config,
    solve_config,
    solve_system,
)

from conftest import build_basis


def bvp_problem(**overrides):
    kw = dict(
        domains=[(0.0, 1.0)],
        residual="d2u",
        rhs="-pi^2*sin(pi*x)",
        conditions=[
            {"face": "a1", "order": 0, "expr": "0"},
            {"face": "b1", "order": 0, "expr": "0"},
        ],
    )
    kw.update(overrides)
    return CollocationProblem(**kw)


def poisson_problem(rhs="4", cond_exprs=("x2^2", "1 + x2^2", "x1^2", "1 + x1^2")):
    return CollocationProblem(
        domains=[(0.0, 1.0), (0.0, 1.0)],
        residual="u_2,0 + u_0,2",
        rhs=rhs,
        conditions=[
            {"face": "a1", "order": 0, "expr": cond_exprs[0]},
            {"face": "b1", "order": 0, "expr": cond_exprs[1]},
            {"face": "a2", "order": 0, "expr": cond_exprs[2]},
            {"face": "b2", "order": 0, "expr": cond_exprs[3]},
        ],
    )


class TestProblemShape:
    def test_shape_is_counted_from_the_conditions(self):
        prob = CollocationProblem(
            domains=[(0.0, 1.0), (0.0, 2.0)],
            residual="u_1,0 + u_0,2",
            rhs="0",
            conditions=[
                {"face": "b2", "order": 0, "expr": "x1"},
                {"face": "a1", "order": 0, "expr": "x2"},
                {"face": "a2", "order": 0, "expr": "0"},
            ],
        )
        assert prob.dim == 2
        assert prob.orders == [1, 2]
        assert prob.splits == [(1, 0), (1, 1)]
        inputs = [f.name for f in dataclasses.fields(CollocationProblem) if f.init]
        assert inputs == ["domains", "residual", "rhs", "conditions"]

    # the orders and splits keys the bundled configs used to carry
    OLD_SHAPE = {
        "poisson2d": ([2, 2], [[1, 1], [1, 1]]),
        "riccati_ivp": ([1], [[1, 0]]),
        "sine_bvp": ([2], [[1, 1]]),
    }

    @pytest.mark.parametrize("name", sorted(OLD_SHAPE))
    def test_bundled_configs_solve_as_with_declared_shape(self, name):
        cfg = load_config(f"configs/{name}.json")
        for key in ("orders", "splits"):
            cfg.pop(key, None)
        orders, splits = self.OLD_SHAPE[name]
        prob = problem_from_config(cfg)
        assert (prob.orders, prob.splits) == (orders, [tuple(s) for s in splits])
        counted = solve_config(cfg)
        declared = solve_config(dict(cfg, orders=orders, splits=splits))
        assert counted.interpolant.coeffs.tobytes() == declared.interpolant.coeffs.tobytes()
        assert (counted.iterations, counted.residual_norm, counted.cond_estimate) == (
            declared.iterations,
            declared.residual_norm,
            declared.cond_estimate,
        )

    def test_contradicting_shape_keys_are_not_read(self):
        cfg = load_config("configs/sine_bvp.json")
        for key in ("orders", "splits"):
            cfg.pop(key, None)
        wrong = dict(cfg, orders=[3], splits=[[2, 1]])
        assert problem_from_config(wrong).splits == [(1, 1)]
        a, b = solve_config(cfg), solve_config(wrong)
        assert a.interpolant.coeffs.tobytes() == b.interpolant.coeffs.tobytes()


class TestProblemValidation:
    def test_dimension_positive(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(domains=[], conditions=[])

    def test_entry_counts_match_dimension(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(domains=[(0.0, 1.0), (0.0, 1.0)])

    def test_domain_must_be_nonempty(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(domains=[(1.0, 1.0)])

    def test_unknown_residual_symbol(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(residual="d2u + q")

    def test_residual_order_above_declared(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(residual="d3u")

    def test_1d_symbols_rejected_in_2d(self):
        with pytest.raises(InvalidParameterError):
            poisson_problem().__class__(
                domains=[(0.0, 1.0), (0.0, 1.0)],
                residual="d2u",
                rhs="0",
                conditions=poisson_problem().conditions,
            )

    def test_multi_index_arity(self):
        with pytest.raises(InvalidParameterError):
            CollocationProblem(
                domains=[(0.0, 1.0), (0.0, 1.0)],
                residual="u_2",
                rhs="0",
                conditions=poisson_problem().conditions,
            )

    def test_non_differentiable_residual_rejected(self):
        with pytest.raises(ExprDiffError, match="'u'") as exc:
            bvp_problem(residual="d2u - abs(u)")
        assert isinstance(exc.value, DlfError)

    def test_rhs_is_coordinates_only(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(rhs="u + x")

    def test_condition_face_syntax(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(
                conditions=[
                    {"face": "c1", "order": 0, "expr": "0"},
                    {"face": "b1", "order": 0, "expr": "0"},
                ]
            )

    def test_condition_face_dimension_range(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(
                conditions=[
                    {"face": "a2", "order": 0, "expr": "0"},
                    {"face": "b1", "order": 0, "expr": "0"},
                ]
            )

    def test_condition_count_per_face(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(conditions=[{"face": "a1", "order": 0, "expr": "0"}])

    def test_repeated_condition_order(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(
                conditions=[
                    {"face": "a1", "order": 0, "expr": "0"},
                    {"face": "a1", "order": 0, "expr": "1"},
                ],
            )

    def test_condition_order_below_equation_order(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(
                conditions=[
                    {"face": "a1", "order": 2, "expr": "0"},
                    {"face": "b1", "order": 0, "expr": "0"},
                ]
            )

    def test_condition_expr_cannot_use_own_coordinate(self):
        with pytest.raises(InvalidParameterError):
            bvp_problem(
                conditions=[
                    {"face": "a1", "order": 0, "expr": "x"},
                    {"face": "b1", "order": 0, "expr": "0"},
                ]
            )


class TestLinearityDetection:
    def test_linear_operator(self):
        assert detect_linear(bvp_problem()) is True

    def test_variable_coefficients_stay_linear(self):
        prob = bvp_problem(residual="d2u + sin(x)*u - x*du")
        assert detect_linear(prob) is True

    def test_quadratic_term(self):
        prob = bvp_problem(
            residual="du - u^2",
            conditions=[{"face": "a1", "order": 0, "expr": "1"}],
        )
        assert detect_linear(prob) is False

    def test_product_of_unknowns(self):
        assert detect_linear(bvp_problem(residual="u*du + d2u")) is False

    def test_unknown_inside_function(self):
        assert detect_linear(bvp_problem(residual="d2u + sin(u)")) is False

    def test_power_one_is_linear(self):
        assert detect_linear(bvp_problem(residual="d2u + u^1")) is True

    def test_abs_of_coordinates_stays_linear(self):
        prob = bvp_problem(residual="d2u - abs(x - 0.5)*u")
        assert detect_linear(prob) is True
        system = assemble_collocation_nd(prob, [build_basis("identity", n=8, a=0.0, b=1.0)])
        result = solve_system(system)
        assert result.linear is True
        assert result.residual_norm < 1e-8


class TestRowBookkeeping:
    def test_1d_counts(self):
        system = assemble_collocation_nd(
            bvp_problem(), [build_basis("identity", n=5, a=0.0, b=1.0)]
        )
        assert system.size == 6
        assert system.row_roles == ["interior"] * 4 + ["initial"] + ["boundary"]

    def test_2d_counts_small(self):
        bases = [
            build_basis("identity", n=3, a=0.0, b=1.0),
            build_basis("identity", n=3, a=0.0, b=1.0),
        ]
        system = assemble_collocation_nd(poisson_problem(), bases)
        assert system.size == 16
        assert system.row_roles == (
            ["interior"] * 4 + ["initial"] * 6 + ["boundary"] * 6
        )

    def test_2d_counts_telescope(self):
        # interior (N-1)^2 plus (N+1) + (N-1) rows per side
        n = 12
        bases = [build_basis("identity", n=n, a=0.0, b=1.0) for _ in range(2)]
        system = assemble_collocation_nd(poisson_problem(), bases)
        from collections import Counter

        counts = Counter(system.row_roles)
        assert counts["interior"] == (n - 1) ** 2
        assert counts["initial"] == (n + 1) + (n - 1)
        assert counts["boundary"] == (n + 1) + (n - 1)
        assert system.size == (n + 1) ** 2

    def test_3d_counts(self):
        # a 5x6x7 grid with order-0 conditions on all six faces: the a faces
        # own 1*6*7 + 3*1*7 + 3*4*1 rows, and so do the b faces
        conds = ("0",) * 6
        bases = [build_basis("identity", n=n, a=0.0, b=1.0) for n in (4, 5, 6)]
        system = assemble_collocation_nd(
            dirichlet_problem("u_2,0,0 + u_0,2,0 + u_0,0,2", conds), bases
        )
        assert system.size == 210
        assert system.row_roles == ["interior"] * 60 + ["initial"] * 75 + ["boundary"] * 75

    def test_first_order_counts(self):
        prob = bvp_problem(
            residual="du",
            rhs="1",
            conditions=[{"face": "a1", "order": 0, "expr": "0"}],
        )
        system = assemble_collocation_nd(prob, [build_basis("identity", n=4, a=0.0, b=1.0)])
        assert system.row_roles == ["interior"] * 4 + ["initial"]


class TestAssemblyErrors:
    def test_basis_count(self):
        with pytest.raises(AssemblyError):
            assemble_collocation_nd(
                poisson_problem(), [build_basis("identity", n=3, a=0.0, b=1.0)]
            )

    def test_wrapper_requires_1d(self):
        with pytest.raises(AssemblyError):
            assemble_collocation_nd(
                poisson_problem(), [build_basis("identity", n=3, a=0.0, b=1.0)]
            )

    def test_n_below_equation_order(self):
        with pytest.raises(AssemblyError):
            assemble_collocation_nd(
                bvp_problem(), [build_basis("identity", n=1, a=0.0, b=1.0)]
            )

    def test_conditions_need_endpoint_nodes(self):
        nodes = NodeSet(np.array([0.0, 0.3, 0.6, 0.9]), (0.0, 1.0))
        basis = validate_basis(make_psi_family("identity", {}, size=4), nodes)
        with pytest.raises(AssemblyError, match="last node"):
            assemble_collocation_nd(bvp_problem(), [basis])

    def test_residual_vector_shape(self):
        system = assemble_collocation_nd(
            bvp_problem(), [build_basis("identity", n=5, a=0.0, b=1.0)]
        )
        with pytest.raises(InvalidParameterError):
            system.evaluate_residual(np.zeros(5))


class TestLinearSolves:
    def test_first_order_exact_polynomial(self):
        prob = bvp_problem(
            residual="du",
            rhs="1",
            conditions=[{"face": "a1", "order": 0, "expr": "0"}],
        )
        basis = build_basis("identity", n=6, a=0.0, b=1.0)
        result = solve_system(assemble_collocation_nd(prob, [basis]))
        assert result.linear is True
        assert result.iterations == 0
        assert result.cond_estimate is not None and np.isfinite(result.cond_estimate)
        np.testing.assert_allclose(result.interpolant.coeffs, basis.nodes.nodes, atol=1e-12)

    def test_neumann_style_condition(self):
        prob = bvp_problem(
            residual="d2u",
            rhs="0",
            conditions=[
                {"face": "a1", "order": 0, "expr": "0"},
                {"face": "b1", "order": 1, "expr": "2"},
            ],
        )
        basis = build_basis("identity", n=6, a=0.0, b=1.0)
        result = solve_system(assemble_collocation_nd(prob, [basis]))
        np.testing.assert_allclose(
            result.interpolant.coeffs, 2.0 * basis.nodes.nodes, atol=1e-10
        )

    def test_exponential_growth(self):
        prob = bvp_problem(
            residual="du - u",
            rhs="0",
            conditions=[{"face": "a1", "order": 0, "expr": "1"}],
        )
        basis = build_basis("identity", n=10, a=0.0, b=1.0)
        result = solve_system(assemble_collocation_nd(prob, [basis]))
        xs = np.linspace(0.0, 1.0, 41)
        err = np.max(np.abs(eval_interpolant(result.interpolant, xs) - np.exp(xs)))
        assert err < 1e-9

    def test_manufactured_2d_polynomial(self):
        bases = [build_basis("identity", n=4, a=0.0, b=1.0) for _ in range(2)]
        result = solve_system(assemble_collocation_nd(poisson_problem(), bases))
        assert isinstance(result.interpolant, TensorInterpolant)
        for x1 in (0.2, 0.5, 0.9):
            for x2 in (0.1, 0.6):
                val = eval_interpolant(result.interpolant, [x1, x2])
                assert val == pytest.approx(x1**2 + x2**2, abs=1e-10)

    def test_singular_system_reported(self):
        prob = bvp_problem(
            residual="du - du",
            rhs="0",
            conditions=[{"face": "a1", "order": 0, "expr": "0"}],
        )
        system = assemble_collocation_nd(prob, [build_basis("identity", n=4, a=0.0, b=1.0)])
        with pytest.raises(SingularSystemError) as exc:
            solve_system(system)
        assert exc.value.cond_estimate > 1e12

    @pytest.mark.parametrize(
        "case", ["1d-linear", "2d-nonlinear", "3d-nonlinear", "1d-condition-free"]
    )
    def test_jacobian_matches_probed_matrix(self, case, rng):
        if case == "1d-linear":
            prob = bvp_problem()
            bases = [build_basis("identity", n=5, a=0.0, b=1.0)]
        elif case == "1d-condition-free":
            # no condition rows: the stacked condition block is empty
            prob = bvp_problem(residual="u^3 - x", rhs="0", domains=[(1.0, 2.0)], conditions=[])
            bases = [build_basis("identity", n=6, a=1.0, b=2.0)]
        elif case == "3d-nonlinear":
            # a non-cubic grid and an order-1 condition on b3, whose rows are
            # interior in dimensions 1 and 2
            faces = ["a1", "b1", "a2", "b2", "a3", "b3"]
            exprs = ["x2*x3", "1", "x1", "x3^2", "x1 + x2", "x1*x2"]
            prob = CollocationProblem(
                domains=[(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)],
                residual="u_2,0,0 + u_0,2,0 + u_0,0,2 + u*u_0,0,1 - x3*u^2",
                rhs="x1",
                conditions=[
                    {"face": f, "order": int(f == "b3"), "expr": e} for f, e in zip(faces, exprs)
                ],
            )
            bases = [
                build_basis("rational", {"L": 1.0}, n=3, a=0.0, b=1.0),
                build_basis("identity", n=4, a=-1.0, b=1.0),
                build_basis("identity", n=5, a=0.0, b=2.0),
            ]
        else:
            # order-0 and order-1 conditions, a rational family in x1 and a
            # non-square grid, so a swapped axis or factor shows
            prob = CollocationProblem(
                domains=[(0.0, 1.0), (0.0, 1.0)],
                residual="u_2,0 + u_0,2 + u*u_1,0 - sin(u_0,1) + x1*u^2",
                rhs="1",
                conditions=[
                    {"face": "a1", "order": 0, "expr": "x2"},
                    {"face": "b1", "order": 1, "expr": "1"},
                    {"face": "a2", "order": 0, "expr": "x1^2"},
                    {"face": "b2", "order": 1, "expr": "0"},
                ],
            )
            bases = [
                build_basis("rational", {"L": 1.0}, n=5, a=0.0, b=1.0),
                build_basis("identity", n=4, a=0.0, b=1.0),
            ]
        system = assemble_collocation_nd(prob, bases)
        assert system.is_linear is (case == "1d-linear")
        u = rng.uniform(-1.0, 1.0, system.size)
        h = 1e-6
        probed = np.empty((system.size, system.size))
        for j in range(system.size):
            bump = np.zeros(system.size)
            bump[j] = h
            probed[:, j] = (
                system.evaluate_residual(u + bump) - system.evaluate_residual(u - bump)
            ) / (2 * h)
        jac = system.evaluate_jacobian(u)
        assert np.max(np.abs(jac - probed)) < 1e-6 * (1.0 + np.max(np.abs(jac)))

        # a second u gets exactly what a freshly assembled system gives, and
        # no returned array aliases another
        v = rng.uniform(-1.0, 1.0, system.size)
        fresh = assemble_collocation_nd(prob, bases).evaluate_jacobian(v)
        again = system.evaluate_jacobian(v)
        assert again.tobytes() == fresh.tobytes()
        again.fill(np.nan)
        assert system.evaluate_jacobian(v).tobytes() == fresh.tobytes()
        if case == "1d-condition-free":
            result = solve_system(system, SolveOptions(initial_guess=np.ones(system.size)))
            assert result.iterations == 5
            assert result.residual_norm <= SolveOptions().tol


@pytest.mark.parametrize("rows", ["square", "interior"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["identity", "rational"])
def test_along_matches_the_tensordot_reference(kind, dim, rows, rng):
    # one basis per dimension, each of another size, so a wrong axis shows
    params = {"L": 1.0} if kind == "rational" else None
    mats = []
    for n in (4, 5, 6)[:dim]:
        entries = dm_matrix(build_basis(kind, params, n=n, a=0.0, b=1.0), 2).entries
        mats.append(entries if rows == "square" else entries[1:-1])
    grid = rng.uniform(-1.0, 1.0, [m.shape[1] for m in mats])

    def reference(mat, arr, axis):
        return np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)

    chained = expected = grid
    for axis, mat in enumerate(mats):
        out, ref = solver._along(mat, grid, axis), reference(mat, grid, axis)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        # as in ``_apply``: later axes act on the non-contiguous earlier result
        chained, expected = solver._along(mat, chained, axis), reference(mat, expected, axis)
        assert chained.shape == expected.shape and chained.tobytes() == expected.tobytes()


def kron_jacobian(system, u):
    """The Jacobian from ``reduce(np.kron, ...)`` of each box's factors, an identity
    dimension as rows of ``np.eye``: the reference of the strided box writes."""
    _, env = system._grid_and_env(u)

    def kron_rows(box):
        factors = [
            (np.eye(n) if mat is None else mat)[rows]
            for n, mat, rows in zip(system._shape, box.mats, box.rows)
        ]
        return reduce(np.kron, factors)

    jac = np.zeros((system.size, system.size))
    interior = jac[: system._rhs.size]
    for _, box, partial in system._derivs:
        vals = np.asarray(exprlang.eval_expr(partial, env), dtype=float)
        interior += np.broadcast_to(vals, system._rhs.shape).reshape(-1, 1) * kron_rows(box)
    conds = [np.empty((0, system.size))] + [kron_rows(box) for box in system._conds]
    jac[system._rhs.size :] = np.concatenate(conds)
    return jac


# (residual, [(face, order)] per case) over every box kind: u alone, one
# matrix (u_2,0), two matrices (u_1,1, u_1,1,0), and conditions of orders 0
# and 1 on both faces of a dimension
KRON_CASES = {
    "1d": ("d2u + u*du - sin(u) + x*u^2", [("a1", 0), ("a1", 1), ("b1", 0), ("b1", 1)]),
    "2d-orders-by-face": (
        "u_2,0 + u_0,2 + u*u_1,1 - x1*u_1,0 + u^3",
        [("a1", 0), ("b1", 1), ("a2", 1), ("b2", 0)],
    ),
    "2d-both-orders-on-a-face": (
        "u_2,0 + u_0,2 + u_1,1 + x2*u^2",
        [("a1", 0), ("a1", 1), ("b1", 0), ("b1", 1), ("a2", 0), ("b2", 0)],
    ),
    "3d": (
        "u_2,0,0 + u_0,2,0 + u_0,0,2 + u*u_1,1,0 - sin(u)",
        [("a1", 0), ("b1", 1), ("a2", 1), ("b2", 0), ("a3", 0), ("b3", 1)],
    ),
}


@pytest.mark.parametrize("kind", ["identity", "rational"])
@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_jacobian_matches_the_kronecker_reference(case, kind, rng):
    residual, conds = KRON_CASES[case]
    dim = 1 if case == "1d" else int(case[0])
    prob = CollocationProblem(
        domains=[(0.0, 1.0)] * dim,
        residual=residual,
        rhs="x1" if dim > 1 else "x",
        conditions=[{"face": f, "order": k, "expr": "1"} for f, k in conds],
    )
    params = {"L": 1.0} if kind == "rational" else None
    # one size per dimension, so a swapped axis or stride shows
    bases = [build_basis(kind, params, n=n, a=0.0, b=1.0) for n in (6, 7, 5)[:dim]]
    system = assemble_collocation_nd(prob, bases)
    for u in (rng.uniform(-1.0, 1.0, system.size), np.zeros(system.size)):
        jac, ref = system.evaluate_jacobian(u), kron_jacobian(system, u)
        # the reference's condition rows hold -0.0 where np.kron multiplied a
        # negative entry by an identity factor's 0.0; every nonzero is equal
        assert (jac + 0.0).tobytes() == (ref + 0.0).tobytes()
        if dim == 1:
            assert jac.tobytes() == ref.tobytes()


def test_jacobian_forms_no_dense_kronecker_rows():
    """Each box writes only its nonzeros: the first Jacobian of a dense 2-D
    Newton system costs little beyond the Jacobian itself, and the system
    keeps no array as wide as the grid."""
    prob = dirichlet_problem("u_2,0 + u_0,2 + u^3", ZERO_DATA, rhs="1")
    system = assemble_collocation_nd(prob, [build_basis("identity", n=28, a=0.0, b=1.0)] * 2)
    tracemalloc.start()
    try:
        jac = system.evaluate_jacobian(np.zeros(system.size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * jac.nbytes

    result = solve_system(system)
    assert result.route == "dense" and result.iterations > 0

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            yield from arrays(list(value.values()))

    wide = [
        name
        for name, value in vars(system).items()
        for arr in arrays(value)
        if arr.ndim >= 2 and arr.shape[-1] == system.size
    ]
    assert wide == []


# linear problems whose condition boxes take a derivative matrix:
# (domains, residual, rhs, [(face, order, expr)], per-dimension (kind, params, N))
AFFINE_CASES = {
    "1d-order-1": (
        [(0.0, 1.0)], "d2u + x*du - 2*u", "sin(x)",
        [("a1", 0, "1"), ("b1", 1, "-2")], [("rational", {"L": 1.0}, 9)],
    ),
    "2d-mixed-orders": (
        [(0.0, 1.0), (-1.0, 1.0)], "u_2,0 + u_0,2 + x2*u_1,0 + u", "x1*x2",
        [("a1", 0, "x2"), ("b1", 1, "1 + x2"), ("a2", 1, "x1"), ("b2", 0, "x1^2")],
        [("identity", None, 7), ("identity", None, 6)],
    ),
    "3d-order-1-on-b3": (
        [(0.0, 1.0)] * 3, "u_2,0,0 + u_0,2,0 + u_0,0,2 + x1*u_0,1,0", "1",
        [("a1", 0, "x2"), ("b1", 0, "x3"), ("a2", 0, "x1"), ("b2", 0, "1"),
         ("a3", 0, "x1*x2"), ("b3", 1, "x1 + x2")],
        [("identity", None, 3), ("identity", None, 4), ("identity", None, 5)],
    ),
}


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_linear_residual_is_the_jacobian_applied(case, rng):
    """On a linear problem the residual and the Jacobian read the same boxes:
    R(u) = J(0) u + R(0) to rounding."""
    domains, residual, rhs, conds, dims = AFFINE_CASES[case]
    prob = CollocationProblem(
        domains=domains,
        residual=residual,
        rhs=rhs,
        conditions=[{"face": f, "order": k, "expr": e} for f, k, e in conds],
    )
    bases = [
        build_basis(kind, params, n=n, a=a, b=b)
        for (kind, params, n), (a, b) in zip(dims, domains)
    ]
    system = assemble_collocation_nd(prob, bases)
    assert system.is_linear is True
    zero = np.zeros(system.size)
    jac, base = system.evaluate_jacobian(zero), system.evaluate_residual(zero)
    for u in (rng.uniform(-1.0, 1.0, system.size), np.linspace(-2.0, 3.0, system.size)):
        res = system.evaluate_residual(u)
        assert np.max(np.abs(res - (jac @ u + base))) <= 1e-12 * np.max(np.abs(res))


def dirichlet_problem(residual, conds, rhs="0"):
    """Order-2 problem with order-0 conditions on every face; ``conds`` lists
    the data face by face (a1, b1, a2, b2, ...)."""
    dim = len(conds) // 2
    faces = [f"{side}{d + 1}" for d in range(dim) for side in "ab"]
    return CollocationProblem(
        domains=[(0.0, 1.0)] * dim,
        residual=residual,
        rhs=rhs,
        conditions=[{"face": f, "order": 0, "expr": e} for f, e in zip(faces, conds)],
    )


def solve_dense(system, monkeypatch):
    """The dense LU solve of ``system``: the reference for the diagonalised route."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_separable_blocks", lambda system: None)
        return solve_system(system)


def poisson2d_system(ns):
    cfg = load_config("configs/poisson2d.json")
    return assemble_collocation_nd(problem_from_config(cfg), bases_from_config(cfg, ns))


ZERO_DATA = ("0",) * 4
HARMONIC = ("sin(x2)", "exp(1)*sin(x2)", "0", "exp(x1)*sin(1)")  # u = exp(x1) sin(x2)

# (residual, rhs, conditions, per-dimension (kind, params, N))
DIFFERENTIAL_CASES = {
    **{
        f"poisson2d-N{n}": ("u_2,0 + u_0,2", None, None, [("identity", None, n)] * 2)
        for n in (8, 12, 16, 20, 24, 28)
    },
    **{
        f"poisson2d-{n1}x{n2}": ("u_2,0 + u_0,2", None, None, [("identity", None, n1), ("identity", None, n2)])
        for n1, n2 in ((12, 17), (20, 9), (28, 16))
    },
    **{
        f"harmonic-{n1}x{n2}": ("u_2,0 + u_0,2", "0", HARMONIC, [("identity", None, n1), ("identity", None, n2)])
        for n1, n2 in ((8, 13), (16, 21))
    },
    **{
        f"helmholtz-rational-N{n}": (
            "2*u_2,0 + 0.5*u_0,2 - 3*u",
            "sin(x1)*x2",
            ("x2", "1 + x2", "x1", "x1^2"),
            [("rational", {"L": 5.0}, n), ("identity", None, n + 3)],
        )
        for n in (8, 16)
    },
    "shifted-identity": (
        "u_2,0 + u_0,2 - 4*u", "x1*x2", ("x2", "1", "0", "x1^2"), [("identity", None, 14)] * 2
    ),
    **{
        f"poisson3d-{'x'.join(map(str, ns))}": (
            "u_2,0,0 + u_0,2,0 + u_0,0,2",
            "6",
            ("x2^2 + x3^2", "1 + x2^2 + x3^2", "x1^2 + x3^2", "x1^2 + 1 + x3^2",
             "x1^2 + x2^2", "x1^2 + x2^2 + 1"),
            [("identity", None, n) for n in ns],
        )
        for ns in ((4, 5, 6), (8, 8, 8))
    },
}


class TestDiagonalisedRoute:
    def system(self, case):
        residual, rhs, conds, dims = DIFFERENTIAL_CASES[case]
        if rhs is None:
            return poisson2d_system([n for _, _, n in dims])
        bases = [build_basis(kind, params, n=n, a=0.0, b=1.0) for kind, params, n in dims]
        return assemble_collocation_nd(dirichlet_problem(residual, conds, rhs), bases)

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_agrees_with_the_dense_solve(self, case, monkeypatch):
        system = self.system(case)
        fast = solve_system(system)
        dense = solve_dense(system, monkeypatch)
        assert (fast.route, dense.route) == ("diagonalised", "dense")
        assert fast.linear and fast.iterations == 0
        u, ref = fast.interpolant.coeffs, dense.interpolant.coeffs
        assert np.max(np.abs(u - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
        assert fast.residual_norm <= 100 * max(dense.residual_norm, 1e-13)
        assert 1.0 < fast.cond_estimate < 1e10

    @pytest.mark.parametrize(
        "case, exact",
        [
            ("harmonic-16x21", lambda x1, x2: np.exp(x1) * np.sin(x2)),
            ("poisson3d-8x8x8", lambda x1, x2, x3: x1**2 + x2**2 + x3**2),
        ],
    )
    def test_matches_exact_solution_to_rounding(self, case, exact):
        system = self.system(case)
        result = solve_system(system)
        grids = np.meshgrid(*(b.nodes.nodes for b in system.bases), indexing="ij")
        assert np.max(np.abs(result.interpolant.coeffs - exact(*grids).ravel())) < 1e-12

    @pytest.mark.parametrize(
        "residual, separable",
        [
            ("x1*u_2,0 + u_0,2", False),  # variable coefficient
            ("u_2,0 + u_0,2 + u_1,1", False),  # mixed partial
            ("u_1,0 - 0.1*u_0,2", True),  # separable, but with a complex spectrum
        ],
    )
    def test_other_linear_problems_go_dense(self, residual, separable):
        bases = [build_basis("identity", n=12, a=0.0, b=1.0)] * 2
        system = assemble_collocation_nd(dirichlet_problem(residual, ZERO_DATA, "1"), bases)
        assert (solver._separable_blocks(system) is not None) == separable
        result = solve_system(system)
        assert (result.linear, result.route) == (True, "dense")
        assert result.residual_norm < 1e-8

    def test_order_one_condition_goes_dense(self):
        prob = CollocationProblem(
            domains=[(0.0, 1.0)] * 2,
            residual="u_2,0 + u_0,2",
            rhs="1",
            conditions=[
                {"face": face, "order": k, "expr": "0"}
                for face, k in (("a1", 0), ("b1", 1), ("a2", 0), ("b2", 0))
            ],
        )
        bases = [build_basis("identity", n=10, a=0.0, b=1.0)] * 2
        result = solve_system(assemble_collocation_nd(prob, bases))
        assert result.route == "dense"
        assert result.residual_norm < 1e-8

    def test_nonlinear_and_one_dimensional_problems_go_dense(self):
        bases = [build_basis("identity", n=10, a=0.0, b=1.0)] * 2
        prob = dirichlet_problem("u_2,0 + u_0,2 - u^2", ZERO_DATA, "1")
        result = solve_system(assemble_collocation_nd(prob, bases))
        assert (result.linear, result.route) == (False, "dense")
        result = solve_config(load_config("configs/sine_bvp.json"))
        assert (result.linear, result.route) == (True, "dense")

    @pytest.mark.parametrize("threshold", ["_KAPPA_MAX", "_RESIDUAL_FACTOR"])
    def test_failed_check_falls_back_to_dense(self, threshold, monkeypatch):
        system = poisson2d_system([12, 12])
        monkeypatch.setattr(solver, threshold, 0.0)
        result = solve_system(system)
        assert result.route == "dense"
        assert result.residual_norm < 1e-10

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_singular_operator_raises_on_both_routes(self, n):
        # u_2,0 - u_0,2 on a square grid has eigenvalue sums l_i - l_i = 0
        bases = [build_basis("identity", n=n, a=0.0, b=1.0)] * 2
        system = assemble_collocation_nd(dirichlet_problem("u_2,0 - u_0,2", ZERO_DATA), bases)
        with pytest.raises(SingularSystemError) as exc:
            solve_system(system)
        assert exc.value.cond_estimate >= 1.0 / np.finfo(float).eps

    def test_no_dense_work_on_the_route(self, monkeypatch):
        def no_jacobian(self, u_flat):
            raise AssertionError("the diagonalised route built a dense Jacobian")

        monkeypatch.setattr(CollocationSystem, "evaluate_jacobian", no_jacobian)
        # 16,641 unknowns: the dense Jacobian alone would be 2.2 GB
        system = poisson2d_system([128, 128])
        result = solve_system(system)
        assert result.route == "diagonalised"
        x1, x2 = np.meshgrid(*(b.nodes.nodes for b in system.bases), indexing="ij")
        exact = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        assert np.max(np.abs(result.interpolant.coeffs - exact.ravel())) < 1e-11

    def test_poisson2d_n56_under_50ms(self):
        system = poisson2d_system([56, 56])
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            result = solve_system(system)
            best = min(best, time.perf_counter() - t0)
        assert result.route == "diagonalised"
        assert best < 0.050


class TestNewtonSolves:
    def riccati(self):
        return bvp_problem(
            residual="du - u^2",
            rhs="0",
            domains=[(0.0, 0.5)],
            conditions=[{"face": "a1", "order": 0, "expr": "1"}],
        )

    def test_riccati_from_zero_guess(self):
        basis = build_basis("identity", n=8, a=0.0, b=0.5)
        result = solve_system(assemble_collocation_nd(self.riccati(), [basis]))
        assert result.linear is False
        assert 1 <= result.iterations <= 20
        xs = np.linspace(0.0, 0.5, 21)
        err = np.max(np.abs(eval_interpolant(result.interpolant, xs) - 1.0 / (1.0 - xs)))
        assert err < 1e-5

    def test_iteration_budget_enforced(self):
        basis = build_basis("identity", n=8, a=0.0, b=0.5)
        system = assemble_collocation_nd(self.riccati(), [basis])
        with pytest.raises(NewtonError) as exc:
            solve_system(system, SolveOptions(max_iterations=2))
        assert exc.value.iterations == 2
        assert exc.value.residual_norm > 0

    def test_step_that_does_not_reduce_the_residual_raises(self):
        # u^2 + 1 = 0 has no real root; from 1e-3 the Newton step lands near
        # -500 and no step length down to 1/128 gets below 1 + 1e-6
        prob = bvp_problem(
            residual="u^2 + 1", rhs="0", conditions=[]
        )
        system = assemble_collocation_nd(prob, [build_basis("identity", n=4, a=0.0, b=1.0)])
        opts = SolveOptions(initial_guess=1e-3 * np.ones(system.size))
        with pytest.raises(NewtonError) as exc:
            solve_system(system, opts)
        assert exc.value.iterations == 1
        assert exc.value.residual_norm == pytest.approx(1.000001)

    @pytest.mark.parametrize(
        "settings",
        [
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"max_iterations": -1},
            {"max_iterations": 2.5},
        ],
    )
    def test_newton_settings_are_validated(self, settings):
        basis = build_basis("identity", n=8, a=0.0, b=0.5)
        system = assemble_collocation_nd(self.riccati(), [basis])
        with pytest.raises(InvalidParameterError):
            solve_system(system, SolveOptions(**settings))

    def test_initial_guess_shape_checked(self):
        basis = build_basis("identity", n=8, a=0.0, b=0.5)
        system = assemble_collocation_nd(self.riccati(), [basis])
        with pytest.raises(InvalidParameterError):
            solve_system(system, SolveOptions(initial_guess=np.zeros(3)))

    def test_good_guess_shortens_the_run(self):
        basis = build_basis("identity", n=8, a=0.0, b=0.5)
        system = assemble_collocation_nd(self.riccati(), [basis])
        cold = solve_system(system)
        warm = solve_system(
            system, SolveOptions(initial_guess=1.0 / (1.0 - basis.nodes.nodes))
        )
        assert warm.iterations <= cold.iterations


class TestConfigs:
    def test_sine_bvp_config_solves(self):
        cfg = load_config("configs/sine_bvp.json")
        result = solve_config(cfg)
        xs = np.linspace(0.0, 1.0, 101)
        err = np.max(
            np.abs(eval_interpolant(result.interpolant, xs) - np.sin(np.pi * xs))
        )
        assert err < 1e-8

    def test_n_override(self):
        cfg = load_config("configs/sine_bvp.json")
        bases = bases_from_config(cfg, n_override=8)
        assert bases[0].size == 9

    def test_flat_domain_list_normalized(self):
        cfg = {
            "dim": 1,
            "domains": [0.0, 1.0],
            "residual": "du",
            "rhs": "1",
            "conditions": [{"face": "a1", "order": 0, "expr": "0"}],
            "N": 4,
        }
        prob = problem_from_config(cfg)
        assert prob.domains == [(0.0, 1.0)]
        assert prob.splits == [(1, 0)]
        result = solve_config(cfg)
        np.testing.assert_allclose(
            result.interpolant.coeffs,
            bases_from_config(cfg)[0].nodes.nodes,
            atol=1e-12,
        )

    def test_custom_node_values_from_config(self):
        cfg = {
            "dim": 1,
            "domains": [0.0, 1.0],
            "residual": "du",
            "rhs": "1",
            "conditions": [{"face": "a1", "order": 0, "expr": "0"}],
            "N": 3,
            "nodes": {"values": [0.0, 0.4, 0.7, 1.0]},
        }
        bases = bases_from_config(cfg)
        np.testing.assert_array_equal(bases[0].nodes.nodes, [0.0, 0.4, 0.7, 1.0])
        result = solve_config(cfg)
        np.testing.assert_allclose(result.interpolant.coeffs, [0.0, 0.4, 0.7, 1.0], atol=1e-12)

    def test_per_dim_count_mismatch(self):
        cfg = load_config("configs/poisson2d.json")
        cfg["N"] = [12, 12, 12]
        with pytest.raises(InvalidParameterError):
            bases_from_config(cfg)

    # one entry of each key, equal to the per-dimension lists of poisson2d
    SINGLE_ENTRIES = {
        "domains": [0.0, 1.0],
        "N": 12,
        "family": {"kind": "identity"},
        "nodes": {"scheme": "cgl"},
    }

    @pytest.mark.parametrize("key", sorted(SINGLE_ENTRIES))
    def test_single_entry_applies_to_every_dimension(self, key):
        per_dim = load_config("configs/poisson2d.json")
        per_dim[key] = [self.SINGLE_ENTRIES[key]] * 2
        single = dict(per_dim, **{key: self.SINGLE_ENTRIES[key]})
        a, b = problem_from_config(per_dim), problem_from_config(single)
        assert (a.domains, a.orders, a.splits) == (b.domains, b.orders, b.splits)
        for ba, bb in zip(bases_from_config(per_dim), bases_from_config(single)):
            np.testing.assert_array_equal(ba.nodes.nodes, bb.nodes.nodes)
            assert ba.psi.kind == bb.psi.kind

    @staticmethod
    def load(cfg):
        """Everything a solve reads from a config: the problem, then the bases."""
        return problem_from_config(cfg), bases_from_config(cfg)

    @pytest.mark.parametrize("key", sorted(SINGLE_ENTRIES))
    @pytest.mark.parametrize("count", [1, 3])
    def test_entry_count_must_match_dimension(self, key, count):
        cfg = load_config("configs/poisson2d.json")
        cfg[key] = [self.SINGLE_ENTRIES[key]] * count
        with pytest.raises(InvalidParameterError, match=repr(key)):
            self.load(cfg)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("domains", [0.0, 1.0, 2.0]),
            ("domains", [[0.0, 1.0], [0.0, "1"]]),
            ("N", 12.5),
            ("N", True),
            ("family", "identity"),
            ("family", {"kind": "exponential", "rates": 0.5}),
            ("family", [{"kind": "identity"}, {"kind": "identity", "L": 1.0}]),
            ("nodes", {"scheme": "cgl", "N": 8}),
            ("nodes", [{"scheme": "cgl"}, "cgl"]),
        ],
    )
    def test_malformed_entries_rejected(self, key, value):
        cfg = load_config("configs/poisson2d.json")
        cfg[key] = value
        with pytest.raises(InvalidParameterError, match=repr(key)):
            self.load(cfg)

    @pytest.mark.parametrize("value", [2.9, True, 0, "2"])
    def test_dim_must_be_a_positive_integer(self, value):
        cfg = load_config("configs/poisson2d.json")
        cfg["dim"] = value
        for read in (problem_from_config, bases_from_config):
            with pytest.raises(InvalidParameterError, match="'dim'"):
                read(cfg)

    def test_node_values_must_match_n(self):
        cfg = load_config("configs/sine_bvp.json")
        cfg.update(N=3, nodes={"values": [0.0, 0.3, 0.7, 1.0]})
        assert bases_from_config(cfg)[0].size == 4
        with pytest.raises(InvalidParameterError, match="node values"):
            bases_from_config(cfg, n_override=8)
        cfg["N"] = 4
        with pytest.raises(InvalidParameterError, match="node values"):
            bases_from_config(cfg)

    def test_node_values_need_no_n(self):
        cfg = load_config("configs/poisson2d.json")
        del cfg["N"]
        cfg["nodes"] = [{"values": [0.0, 0.3, 0.5, 0.8, 1.0]}, {"values": [0.0, 0.4, 0.6, 1.0]}]
        assert [b.size for b in bases_from_config(cfg)] == [5, 4]
        assert [b.size for b in bases_from_config(cfg, n_override=[4, 3])] == [5, 4]
        cfg = load_config("configs/sine_bvp.json")
        del cfg["N"]
        cfg["nodes"] = {"values": [0.0, 0.4, 0.7, 1.0]}
        assert solve_config(cfg).interpolant.coeffs.shape == (4,)

    def test_generated_nodes_without_n_name_the_rule(self):
        cfg = load_config("configs/sine_bvp.json")
        del cfg["N"]
        with pytest.raises(InvalidParameterError, match="'nodes' without 'values' needs N"):
            bases_from_config(cfg)
        assert bases_from_config(cfg, n_override=6)[0].size == 7

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_heterogeneous_second_order_solve_fails_loudly(self, n):
        # the recurrence for D^(2) is wrong when the maps differ by index;
        # solving with it used to return an O(0.1) error at residual 1e-13
        cfg = load_config("configs/sine_bvp.json")
        rates = np.linspace(0.3, 1.1, n + 1).tolist()
        cfg["family"] = {"kind": "exponential", "params": {"rates": rates}}
        with pytest.raises(AssemblyError, match=r"dimension 1: .*order-2 .*'exponential'"):
            solve_config(cfg, n_override=n)

    def test_heterogeneous_first_order_solve_still_runs(self):
        # D^(1) is exact for every family, so first-order problems still solve
        cfg = load_config("configs/riccati_ivp.json")
        rates = np.linspace(0.3, 1.1, 13).tolist()
        cfg["family"] = {"kind": "exponential", "params": {"rates": rates}}
        result = solve_config(cfg)
        assert result.linear is False
        assert result.residual_norm <= 1e-12

    def test_unknown_key_inside_family_is_named(self):
        # "rates" belongs under "params"; it used to be dropped, and the
        # default rates gave sine_bvp a max error of 14 at N=6 with exit 0
        cfg = load_config("configs/sine_bvp.json")
        cfg["family"] = {"kind": "exponential", "rates": 0.5}
        with pytest.raises(InvalidParameterError, match="'family'.*'rates'"):
            bases_from_config(cfg)

    def test_linear_key_is_not_read(self):
        # linearity comes from the residual, so "linear": true on the
        # nonlinear Riccati residual still runs damped Newton
        cfg = dict(load_config("configs/riccati_ivp.json"), linear=True)
        result = solve_config(cfg)
        assert (result.linear, result.iterations) == (False, 7)
        xs = np.linspace(0.0, 0.5, 201)
        err = np.max(np.abs(eval_interpolant(result.interpolant, xs) - 1.0 / (1.0 - xs)))
        assert err < 1e-8

    def test_riccati_config_round_trip(self):
        cfg = load_config("configs/riccati_ivp.json")
        result = solve_config(cfg)
        assert result.linear is False
        xs = np.linspace(0.0, 0.5, 21)
        err = np.max(np.abs(eval_interpolant(result.interpolant, xs) - 1.0 / (1.0 - xs)))
        assert err < 1e-7

    @pytest.mark.parametrize("key", ["famly", "Nodes", "n"])
    def test_unknown_top_level_key_is_named(self, key):
        # a misspelt "family" used to be dropped and the solve ran on identity
        cfg = load_config("configs/sine_bvp.json")
        cfg[key] = cfg.pop("family") if key == "famly" else {}
        for read in (problem_from_config, bases_from_config):
            with pytest.raises(InvalidParameterError, match=f"unknown key {key!r}"):
                read(cfg)

    def test_older_shape_keys_are_accepted_and_ignored(self):
        cfg = load_config("configs/poisson2d.json")
        plain = solve_config(cfg, n_override=8)
        cfg.update(orders=[9, 9], splits=[[0, 0], [0, 0]], linear=False)
        assert np.array_equal(solve_config(cfg, n_override=8).interpolant.coeffs,
                              plain.interpolant.coeffs)


class TestSemiInfiniteDomain:
    """u'' = 2u/(1+x)^2 on [0, inf), whose solution 1/(1+x) is 1 - t in t = x/(1+x)."""

    CFG = """{
        "domains": [0, Infinity],
        "residual": "d2u - 2*u/(1+x)^2",
        "family": {"kind": "rational", "params": {"L": 1.0}},
        "N": 12,
        "conditions": [%s]
    }"""

    def config(self, *conditions):
        return json.loads(self.CFG % ", ".join(conditions))

    def test_a_face_conditions_solve(self):
        cfg = self.config(
            '{"face": "a1", "order": 0, "expr": "1"}', '{"face": "a1", "order": 1, "expr": "-1"}'
        )
        (basis,) = bases_from_config(cfg)
        assert basis.nodes.domain == (0.0, np.inf)
        result = solve_config(cfg)
        nodes = basis.nodes.nodes
        assert np.max(np.abs(result.interpolant.coeffs - 1.0 / (1.0 + nodes))) < 1e-7
        far = np.array([10.0, 100.0, 1e4])
        assert np.max(np.abs(eval_interpolant(result.interpolant, far) - 1.0 / (1.0 + far))) < 1e-4

    def test_condition_on_the_infinite_face_fails_loudly(self):
        # the last node check compared inf with inf and never fired: the solve
        # put u = 0 at the last node x = 1, where 1/(1+x) is 0.5
        cfg = self.config(
            '{"face": "a1", "order": 0, "expr": "1"}', '{"face": "b1", "order": 0, "expr": "0"}'
        )
        with pytest.raises(AssemblyError, match="dimension 1: conditions at inf"):
            solve_config(cfg)
