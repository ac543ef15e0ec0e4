"""End-to-end checks of the ``dlf`` command line.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout/stderr can be asserted cheaply; one test execs the installed
console script to prove the packaging entry point works.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dlf.cli import _basis_from_flags, _build_parser, _samples_csv, main
from dlf.interp import eval_interpolant, load_interpolant
from dlf.solver import bases_from_config, load_config, solve_config

SINE_CFG = "configs/sine_bvp.json"
RICCATI_CFG = "configs/riccati_ivp.json"
POISSON_CFG = "configs/poisson2d.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err: str) -> dict:
    lines = [ln for ln in err.strip().splitlines() if ln]
    assert len(lines) == 1, f"expected one stderr line, got {err!r}"
    return json.loads(lines[0])


def reference_csv(header, rows) -> str:
    """The per-value CSV formatter the ``dlf`` tables must match byte for byte."""
    lines = [header] if header is not None else []
    lines += [",".join(f"{float(v):.16e}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reparsed_csv(text: str) -> str:
    """``text`` with every value read back and reformatted by :func:`reference_csv`."""
    header, *lines = text.splitlines()
    return reference_csv(header, [[float(v) for v in ln.split(",")] for ln in lines])


# values whose text is easy to get wrong: signed zero, subnormal, huge, non-finite
AWKWARD = [-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5e-310, float("nan"), float("inf")]


class TestCsvBytes:
    """Every CSV table matches the per-value ``f"{v:.16e}"`` formatter byte for byte."""

    @pytest.mark.parametrize("shape", [(9,), (7, 10), (3, 4, 5)])
    def test_samples_csv(self, shape, rng):
        axes = [np.sort(rng.normal(size=n)) for n in shape]
        axes[0][:2] = (-0.0, 5e-324)
        grid = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        grid.flat[: len(AWKWARD)] = AWKWARD
        dim = len(shape)
        header = ",".join([f"x{d + 1}" for d in range(dim)] if dim > 1 else ["x"]) + ",u"
        rows = [[axes[d][idx[d]] for d in range(dim)] + [grid[idx]] for idx in np.ndindex(*shape)]
        assert _samples_csv(axes, grid) == reference_csv(header, rows)
        assert _samples_csv(axes, grid.ravel()) == reference_csv(header, rows)

    def test_interp_samples(self, capsys, tmp_path):
        target = tmp_path / "samples.csv"
        run_cli(capsys, "interp", "--expr", "sin(pi*x) - 0.5", "--N", "10", "--samples", "33",
                "--samples-out", str(target), "--out", str(tmp_path / "itp.json"))
        itp = load_interpolant(tmp_path / "itp.json")
        xs = np.linspace(-1.0, 1.0, 33)
        expected = reference_csv("x,u", zip(xs, eval_interpolant(itp, xs)))
        assert target.read_bytes() == expected.encode()

    def test_diffmat(self, capsys):
        from dlf.diffmat import dm_matrix
        from conftest import build_basis

        _, out, _ = run_cli(capsys, "diffmat", "--N", "9", "--order", "2", "--domain", "0,3")
        expected = reference_csv(None, dm_matrix(build_basis(n=9, a=0.0, b=3.0), 2).entries)
        assert out == expected

    def test_basis_out(self, capsys, tmp_path):
        from conftest import build_basis

        target = tmp_path / "basis.csv"
        run_cli(capsys, "basis", "--N", "12", "--family", "exponential",
                "--params", '{"rates": 0.5}', "--domain", "0,1", "--out", str(target))
        b = build_basis("exponential", {"rates": 0.5}, n=12, a=0.0, b=1.0)
        lines = ["j,x_j,mu_j,wprime_j,wsecond_j"] + [
            f"{j}," + ",".join(f"{float(v):.16e}" for v in row)
            for j, row in enumerate(
                zip(b.nodes.nodes, b.mu, b.wprime_at_nodes, b.wsecond_at_nodes)
            )
        ]
        assert target.read_text() == "\n".join(lines) + "\n"

    def test_contour_check(self, capsys):
        _, out, _ = run_cli(capsys, "contour-check", "--N", "6", "--points", "7",
                            "--panels", "64")
        assert len(out.splitlines()) == 8
        assert out == reparsed_csv(out)


class TestDispatch:
    def test_no_subcommand(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--frobnicate")
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--config", "does-not-exist.json")
        assert code == 1
        assert stderr_json(err)["error"] == "missing-file"

    def test_malformed_config_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", "--config", str(bad))
        assert code == 1
        assert stderr_json(err)["error"] == "malformed-config"

    def test_config_missing_required_key(self, capsys, tmp_path):
        cfg = json.load(open(SINE_CFG))
        del cfg["residual"]
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 1
        assert stderr_json(err)["error"] == "malformed-config"

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert _build_parser() is _build_parser()
        _, order_one, _ = run_cli(capsys, "diffmat", "--N", "4")
        code, _, _ = run_cli(capsys, "diffmat", "--N", "4", "--order", "3", "--route", "power")
        assert code == 0
        _, again, _ = run_cli(capsys, "diffmat", "--N", "4")
        _, explicit, _ = run_cli(
            capsys, "diffmat", "--N", "4", "--order", "1", "--route", "closed-form"
        )
        assert again == order_one == explicit
        run_cli(capsys, "interp", "--expr", "x", "--N", "3", "--samples", "5")
        _, out, _ = run_cli(capsys, "interp", "--expr", "x", "--N", "3")
        assert json.loads(out)["kind"] == "interpolant"

    def test_numerical_failures_use_exit_code_2(self, capsys):
        # non-integer exponent over a domain with negative points
        code, _, err = run_cli(
            capsys, "basis", "--family", "fractional", "--params", '{"delta": 0.5}'
        )
        assert code == 2
        assert "error" in stderr_json(err)


class TestBasisCommand:
    def test_stdout_csv(self, capsys):
        code, out, err = run_cli(capsys, "basis", "--N", "4")
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "j,x_j,mu_j,wprime_j,wsecond_j"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(-1.0)

    def test_custom_nodes(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--nodes", "0,0.5,1", "--domain", "0,1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_n_must_match_custom_nodes(self, capsys):
        code, out, err = run_cli(
            capsys, "basis", "--nodes", "0,0.5,1", "--N", "12", "--domain", "0,1"
        )
        assert (code, out) == (1, "")
        assert stderr_json(err)["error"] == "usage"
        code, out, _ = run_cli(
            capsys, "basis", "--nodes", "0,0.5,1", "--N", "2", "--domain", "0,1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_out_file_and_summary(self, capsys, tmp_path):
        target = tmp_path / "basis.csv"
        code, out, _ = run_cli(capsys, "basis", "--N", "3", "--out", str(target))
        assert code == 0
        summary = json.loads(out)
        assert summary["size"] == 4
        assert summary["kind"] == "identity"
        assert target.read_text().startswith("j,x_j")

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "basis", "--N", "5", "--family", "exponential",
                              "--params", '{"rates": 0.5}', "--domain", "0,1")
        _, second, _ = run_cli(capsys, "basis", "--N", "5", "--family", "exponential",
                               "--params", '{"rates": 0.5}', "--domain", "0,1")
        assert first == second

    def test_psi_expr_conflicts_with_family(self, capsys):
        code, _, err = run_cli(
            capsys, "basis", "--psi-expr", "x^3", "--family", "rational"
        )
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_psi_expr_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--psi-expr", "x^3 + x", "--N", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_bad_domain_flag(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--domain", "zero..one")
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_bad_params_json(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--params", "{nope}")
        assert code == 1
        assert stderr_json(err)["error"] == "usage"


    def test_scheme_conflicts_with_nodes(self, capsys):
        # the scheme used to be dropped without a word
        code, out, err = run_cli(
            capsys, "basis", "--nodes", "0,0.5,1", "--domain", "0,1", "--scheme", "banana"
        )
        assert (code, out) == (1, "")
        assert stderr_json(err)["message"] == "--scheme conflicts with --nodes"

    @pytest.mark.parametrize(
        "argv",
        [["basis"], ["solve", "--config", SINE_CFG], ["converge", "--config", SINE_CFG, "--N", "4,8"]],
    )
    def test_params_needs_a_family(self, capsys, argv):
        # solve used to drop the parameters and run on identity with exit 0
        code, out, err = run_cli(capsys, *argv, "--params", '{"rates": 0.5}')
        assert (code, out) == (1, "")
        assert stderr_json(err)["message"] == "--params needs --family or --psi-expr"


class TestOneBasisDescription:
    """Flags, a config entry and a saved interpolant block give the same basis."""

    CASES = [
        (["--family", "rational", "--params", '{"L": 2.0}', "--N", "10", "--domain", "0,inf"],
         {"family": {"kind": "rational", "params": {"L": 2.0}}, "N": 10,
          "domains": [0.0, float("inf")]}),
        (["--family", "exponential", "--params", '{"rates": 0.5}', "--nodes", "0,0.2,0.5,1",
          "--domain", "0,1"],
         {"family": {"kind": "exponential", "params": {"rates": 0.5}}, "N": 3,
          "nodes": {"values": [0.0, 0.2, 0.5, 1.0]}, "domains": [0.0, 1.0]}),
        (["--psi-expr", "x + x^3", "--scheme", "equispaced", "--N", "5", "--domain", "0,1"],
         {"family": {"kind": "generalized", "params": {"expr": "x + x^3"}}, "N": 5,
          "nodes": {"scheme": "equispaced"}, "domains": [0.0, 1.0]}),
    ]

    @pytest.mark.parametrize("flags, cfg", CASES)
    def test_same_basis_three_ways(self, capsys, tmp_path, flags, cfg):
        from_flags = _basis_from_flags(_build_parser().parse_args(["basis", *flags]))
        (from_config,) = bases_from_config(cfg)
        target = tmp_path / "itp.json"
        code, _, err = run_cli(capsys, "interp", *flags, "--expr", "1", "--out", str(target))
        assert code == 0, err
        (from_block,) = load_interpolant(target).bases
        for basis in (from_config, from_block):
            assert basis.nodes.nodes.tobytes() == from_flags.nodes.nodes.tobytes()
            assert basis.nodes.domain == from_flags.nodes.domain
            assert basis.psi.kind == from_flags.psi.kind
            assert basis.psi.params.keys() == from_flags.psi.params.keys()
            for key, value in from_flags.psi.params.items():
                assert np.array_equal(basis.psi.params[key], value)


class TestDiffmatCommand:
    def test_matrix_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "diffmat", "--N", "4", "--order", "2")
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()]
        from dlf.diffmat import dm_matrix
        from conftest import build_basis

        expected = dm_matrix(build_basis("identity", n=4), 2).entries
        np.testing.assert_allclose(np.asarray(rows), expected, rtol=0, atol=0)

    def test_closed_form_route_is_order_one_only(self, capsys):
        code, _, err = run_cli(
            capsys, "diffmat", "--route", "closed-form", "--order", "2"
        )
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_oracle_route_order_cap(self, capsys):
        code, _, err = run_cli(capsys, "diffmat", "--route", "oracle", "--order", "4")
        assert code == 2

    def test_power_route(self, capsys):
        code, out, _ = run_cli(capsys, "diffmat", "--N", "3", "--route", "power",
                               "--order", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "diffmat", "--N", "6", "--order", "3", "--out", str(f1))
        run_cli(capsys, "diffmat", "--N", "6", "--order", "3", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestInterpCommand:
    def test_json_to_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "interp", "--expr", "sin(pi*x)", "--N", "6")
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "interpolant"
        assert len(blob["coeffs"]) == 7
        target = tmp_path / "itp.json"
        run_cli(capsys, "interp", "--expr", "sin(pi*x)", "--N", "6", "--out", str(target))
        assert target.read_text() == out

    def test_samples_csv(self, capsys, tmp_path):
        target = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys, "interp", "--expr", "x^2", "--N", "4",
            "--samples", "5", "--samples-out", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 6
        x_last, u_last = (float(v) for v in lines[-1].split(","))
        assert x_last == pytest.approx(1.0)
        assert u_last == pytest.approx(1.0, abs=1e-12)

    def test_samples_match_pointwise_evaluation(self, capsys, tmp_path):
        # one batched evaluation; gemv may differ from per-point dot in the last bit
        itp_path, csv_path = tmp_path / "itp.json", tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys, "interp", "--expr", "exp(x)", "--N", "12", "--samples", "64",
            "--samples-out", str(csv_path), "--out", str(itp_path),
        )
        assert code == 0
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert rows.shape == (64, 2)
        itp = load_interpolant(itp_path)
        pointwise = [eval_interpolant(itp, float(x)) for x in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 1], pointwise, rtol=1e-14)

    def test_samples_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "interp", "--expr", "x", "--samples", "3")
        assert code == 0
        assert out.splitlines()[0] == "x,u"

    def test_out_file_with_summary(self, capsys, tmp_path):
        target = tmp_path / "itp.json"
        code, out, _ = run_cli(
            capsys, "interp", "--expr", "exp(x)", "--N", "5", "--out", str(target)
        )
        assert code == 0
        assert json.loads(out)["size"] == 6
        assert json.load(open(target))["kind"] == "interpolant"

    def test_unknown_symbol_in_expr(self, capsys):
        code, _, err = run_cli(capsys, "interp", "--expr", "sin(y)")
        assert code == 2


class TestSolveCommand:
    def test_sine_bvp_report(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config", SINE_CFG)
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 17
        assert report["rows"] == {"interior": 15, "initial": 1, "boundary": 1}
        assert report["linear"] is True
        assert report["route"] == "dense"
        assert report["iterations"] == 0
        assert report["residual_norm"] < 1e-9
        assert report["cond_estimate"] > 1.0

    def test_poisson2d_report(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config", POISSON_CFG)
        assert code == 0
        report = json.loads(out)
        assert report["route"] == "diagonalised"
        assert report["residual_norm"] < 1e-10
        assert 1.0 < report["cond_estimate"] < 1e8

    def test_singular_system_fails(self, capsys, tmp_path):
        cfg = json.load(open(POISSON_CFG))
        cfg.update(residual="u_2,0 - u_0,2", rhs="0")
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", "--config", str(path))
        assert (code, out) == (2, "")
        body = stderr_json(err)
        assert body["error"] == "singular-system"
        assert body["cond_estimate"] >= 1.0 / np.finfo(float).eps

    def test_n_override(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config", SINE_CFG, "--N", "8")
        assert code == 0
        assert json.loads(out)["size"] == 9

    def test_n_override_must_match_explicit_node_values(self, capsys, tmp_path):
        cfg = json.load(open(SINE_CFG))
        cfg.update(N=3, nodes={"values": [0.0, 0.3, 0.7, 1.0]})
        path = tmp_path / "four_nodes.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "solve", "--config", str(path))
        assert code == 0
        assert json.loads(out)["size"] == 4
        code, _, err = run_cli(capsys, "solve", "--config", str(path), "--N", "12")
        assert code == 2
        assert stderr_json(err)["error"] == "invalid-parameter"
        code, out, err = run_cli(
            capsys, "converge", "--config", str(path), "--N", "4,8,16"
        )
        assert code == 2
        assert out == ""
        assert "node values" in stderr_json(err)["message"]

    def test_artifact_files(self, capsys, tmp_path):
        outdir = tmp_path / "run1"
        code, _, _ = run_cli(
            capsys, "solve", "--config", SINE_CFG, "--out", str(outdir)
        )
        assert code == 0
        assert (outdir / "solution.json").exists()
        assert (outdir / "samples.csv").exists()
        assert (outdir / "residual_report.json").exists()
        samples = (outdir / "samples.csv").read_text().strip().splitlines()
        assert samples[0] == "x,u"
        assert len(samples) == 18  # header + one row per node
        report = json.load(open(outdir / "residual_report.json"))
        assert report["size"] == 17

    def test_artifacts_are_deterministic(self, capsys, tmp_path):
        for i, cfg in enumerate((SINE_CFG, POISSON_CFG)):
            d1, d2 = tmp_path / f"c{i}" / "r1", tmp_path / f"c{i}" / "r2"
            run_cli(capsys, "solve", "--config", cfg, "--out", str(d1))
            run_cli(capsys, "solve", "--config", cfg, "--out", str(d2))
            for name in ("solution.json", "samples.csv", "residual_report.json"):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("cfg", [SINE_CFG, POISSON_CFG])
    def test_solution_json_round_trips_bit_exactly(self, capsys, tmp_path, cfg):
        code, _, _ = run_cli(capsys, "solve", "--config", cfg, "--out", str(tmp_path))
        assert code == 0
        back = load_interpolant(tmp_path / "solution.json")
        coeffs = solve_config(load_config(cfg)).interpolant.coeffs
        assert back.coeffs.tobytes() == coeffs.tobytes()

    def test_every_artifact_ends_in_one_newline(self, capsys, tmp_path):
        run_cli(capsys, "solve", "--config", POISSON_CFG, "--out", str(tmp_path / "run"))
        run_cli(capsys, "interp", "--expr", "exp(x)", "--N", "6", "--samples", "5",
                "--samples-out", str(tmp_path / "s.csv"), "--out", str(tmp_path / "i.json"))
        paths = sorted((tmp_path / "run").iterdir()) + [tmp_path / "s.csv", tmp_path / "i.json"]
        assert len(paths) == 5
        for path in paths:
            text = path.read_text()
            assert text.endswith("\n") and not text.endswith("\n\n"), path.name
        # interpolant JSON is compact: one line
        for path in (tmp_path / "run" / "solution.json", tmp_path / "i.json"):
            assert path.read_text().count("\n") == 1

    def test_nonlinear_reporting(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config", RICCATI_CFG)
        assert code == 0
        report = json.loads(out)
        assert report["linear"] is False
        assert report["iterations"] >= 1

    def test_linear_key_is_not_read(self, capsys, tmp_path):
        cfg = dict(json.load(open(RICCATI_CFG)), linear=True)
        path = tmp_path / "riccati_linear.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "solve", "--config", str(path), "--out", str(outdir))
        assert code == 0
        report = json.loads(out)
        assert (report["linear"], report["iterations"]) == (False, 7)
        itp = load_interpolant(outdir / "solution.json")
        xs = np.linspace(0.0, 0.5, 201)
        assert np.max(np.abs(eval_interpolant(itp, xs) - 1.0 / (1.0 - xs))) < 1e-8

    def test_heterogeneous_second_order_solve_fails(self, capsys, tmp_path):
        cfg = json.load(open(SINE_CFG))
        rates = np.linspace(0.3, 1.1, 9).tolist()
        cfg.update(N=8, family={"kind": "exponential", "params": {"rates": rates}})
        path = tmp_path / "sine_exponential.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", "--config", str(path))
        assert (code, out) == (2, "")
        body = stderr_json(err)
        assert body["error"] == "assembly"
        assert "order-2" in body["message"] and "'exponential'" in body["message"]

    @pytest.mark.parametrize("flags", [("--max-iter", "-1"), ("--tol", "nan"), ("--tol", "-1")])
    def test_bad_newton_settings_fail(self, capsys, flags):
        code, out, err = run_cli(capsys, "solve", "--config", RICCATI_CFG, *flags)
        assert (code, out) == (2, "")
        assert stderr_json(err)["error"] == "invalid-parameter"

    def test_newton_budget_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--config", RICCATI_CFG, "--max-iter", "1"
        )
        assert code == 2
        body = stderr_json(err)
        assert body["error"] == "newton"
        assert body["iterations"] == 1
        assert body["residual_norm"] > 0


class TestConvergeCommand:
    def test_error_column_decreases(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--config", SINE_CFG, "--N", "4,8,12"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,max_error,assemble_ms,solve_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["4", "8", "12"]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-10

    def test_poisson2d_error_is_measured_off_the_grid(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--config", POISSON_CFG, "--N", "8,12")
        assert code == 0
        errs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        cfg = json.load(open(POISSON_CFG))
        axis = np.linspace(0.0, 1.0, 41)
        x1, x2 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        exact = np.sin(np.pi * x1) * np.sin(np.pi * x2)
        for n, err in zip((8, 12), errs):
            itp = solve_config(cfg, n_override=n).interpolant
            off_grid = np.max(np.abs(eval_interpolant(itp, np.stack([x1, x2], 1)) - exact))
            nodes = np.meshgrid(*[b.nodes.nodes for b in itp.bases], indexing="ij")
            at_nodes = np.max(
                np.abs(itp.grid_values() - np.sin(np.pi * nodes[0]) * np.sin(np.pi * nodes[1]))
            )
            assert err == pytest.approx(off_grid, rel=1e-12)
            assert err != pytest.approx(at_nodes, rel=1e-3)

    def test_non_timing_columns_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "converge", "--config", SINE_CFG, "--N", "4,8")
        _, out2, _ = run_cli(capsys, "converge", "--config", SINE_CFG, "--N", "4,8")
        trim = lambda text: [",".join(ln.split(",")[:2]) for ln in text.splitlines()]
        assert trim(out1) == trim(out2)

    @pytest.mark.parametrize("bad", ["8", "8,8", "12,8", "4,nope"])
    def test_bad_n_lists(self, capsys, bad):
        code, _, err = run_cli(capsys, "converge", "--config", SINE_CFG, "--N", bad)
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_exact_expression_required(self, capsys, tmp_path):
        cfg = json.load(open(SINE_CFG))
        del cfg["exact"]
        path = tmp_path / "noexact.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "converge", "--config", str(path), "--N", "4,8"
        )
        assert code == 1
        assert stderr_json(err)["error"] == "usage"


class TestContourCheckCommand:
    def test_discrepancy_small_for_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour-check", "--N", "4", "--points", "5", "--panels", "128"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,direct_uN,contour_uN,direct_err,contour_err,abs_discrepancy"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[-1]) < 1e-10

    def test_unsupported_family_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "contour-check", "--family", "mixed",
            "--params", '{"split": 2}', "--N", "4", "--domain", "0.1,0.9",
            "--center", "0.5",
        )
        assert code == 2
        assert stderr_json(err)["error"] == "contour"

    def test_u_expr_symbol_check(self, capsys):
        code, _, err = run_cli(
            capsys, "contour-check", "--N", "4", "--u-expr", "exp(t)"
        )
        assert code == 1
        assert stderr_json(err)["error"] == "usage"


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("dlf")
    if exe is None:
        pytest.skip("console script not on PATH")
    target = tmp_path / "mat.csv"
    proc = subprocess.run(
        [exe, "diffmat", "--N", "3", "--out", str(target)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert target.exists()
    rows = target.read_text().strip().splitlines()
    assert len(rows) == 4


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "dlf", "basis", "--N", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("j,x_j")
