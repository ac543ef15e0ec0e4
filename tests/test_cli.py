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

from dlf.cli import main
from dlf.interp import eval_interpolant, load_interpolant

SINE_CFG = "configs/sine_bvp.json"
RICCATI_CFG = "configs/riccati_ivp.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err: str) -> dict:
    lines = [ln for ln in err.strip().splitlines() if ln]
    assert len(lines) == 1, f"expected one stderr line, got {err!r}"
    return json.loads(lines[0])


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
    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "interp", "--expr", "sin(pi*x)", "--N", "6")
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "interpolant"
        assert len(blob["coeffs"]) == 7

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
        assert report["iterations"] == 0
        assert report["residual_norm"] < 1e-9
        assert report["cond_estimate"] > 1.0

    def test_n_override(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config", SINE_CFG, "--N", "8")
        assert code == 0
        assert json.loads(out)["size"] == 9

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
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(capsys, "solve", "--config", SINE_CFG, "--out", str(d1))
        run_cli(capsys, "solve", "--config", SINE_CFG, "--out", str(d2))
        for name in ("solution.json", "samples.csv", "residual_report.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_nonlinear_reporting(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--config", RICCATI_CFG)
        assert code == 0
        report = json.loads(out)
        assert report["linear"] is False
        assert report["iterations"] >= 1

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
