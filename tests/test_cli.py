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
from hypothesis import given, settings, strategies as st

from dlf.cli import (
    _E16_MIN_VALUES,
    _E16_RANGE,
    _basis_from_flags,
    _build_parser,
    _e16_text,
    _table,
    main,
)
from dlf import cli
from dlf.interp import TensorInterpolant, eval_interpolant, load_interpolant
from dlf.solver import SolveResult, bases_from_config, load_config, solve_config

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


def percent_csv(table) -> str:
    """``table`` as CSV with every value through ``"%.16e" %``: the reference of ``_table``."""
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in table.tolist())


def in_band(bits) -> np.ndarray:
    """float64 of the ``bits`` with each binary exponent folded into [-929, 928].

    2**-929 > 1e-280 and 2**929 < 1e280, so every value lies in the range of
    ``_e16_text``; sign and significand bits are kept as drawn.
    """
    bits = np.asarray(bits, dtype=np.uint64)
    exponent = (bits >> 52) & 0x7FF
    return ((bits & ~np.uint64(0x7FF << 52)) | ((exponent % 1858 + 1023 - 929) << 52)).view(np.float64)


def e16_cases() -> list:
    """Values whose 17 significant digits are easy to get wrong, each in ``_e16_text``'s range."""
    powers = [float(f"1e{k}") for k in range(-_E16_RANGE, _E16_RANGE)]  # from 1e-280
    near = [float(np.nextafter(p, 0.0)) for p in powers[1:]]
    near += [float(np.nextafter(p, np.inf)) for p in powers]
    ties = [3 * 2.0**-24, 1.00040435791015625e-3]  # exact halves at the 17th digit: odd, even
    edges = [float(np.nextafter(1e17, 0)), 9.999999999999999e22, float(np.nextafter(1e280, 0)),
             0.0, 0.1, 0.5, 1.0, 2.0**-52]
    values = powers + near + ties + edges
    return values + [-v for v in values]


class TestE16Text:
    """``_table`` and its vectorised formatter against ``"%.16e" %`` on every value."""

    @pytest.mark.parametrize("cols", [1, 2, 5])
    def test_hard_cases_match(self, cols):
        values = np.array(e16_cases())
        table = values[: values.size // cols * cols].reshape(-1, cols)
        assert table.size >= _E16_MIN_VALUES
        assert _e16_text(table) == percent_csv(table)
        assert _table(table) == percent_csv(table)

    @pytest.mark.parametrize("value", AWKWARD)
    def test_awkward_value_in_a_large_table(self, value):
        table = np.linspace(-1.0, 1.0, 2 * _E16_MIN_VALUES).reshape(-1, 2)
        table[7, 1] = value
        in_range = value == 0 or 1e-280 <= abs(value) < 1e280
        assert (_e16_text(table) is not None) == in_range
        assert _table(table) == percent_csv(table)

    @pytest.mark.parametrize("count", [_E16_MIN_VALUES - 1, _E16_MIN_VALUES, 2 * _E16_MIN_VALUES])
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), cols=st.integers(1, 6), band=st.booleans())
    def test_bit_patterns_match(self, count, data, cols, band):
        raw = data.draw(st.binary(min_size=8 * count, max_size=8 * count))
        bits = np.frombuffer(raw, dtype="<u8")
        values = in_band(bits) if band else bits.view(np.float64)
        table = values[: count // cols * cols].reshape(-1, cols)
        assert _table(table) == percent_csv(table)
        if band and table.size:
            assert _e16_text(table) == percent_csv(table)


class TestCsvBytes:
    """Every CSV table matches the per-value ``f"{v:.16e}"`` formatter byte for byte."""

    @pytest.mark.parametrize("shape", [(9,), (7, 10), (3, 4, 5)])
    def test_samples_csv(self, shape, rng, capsys, tmp_path, monkeypatch):
        # nodes with random digits and a -0.0; coefficients over the whole
        # exponent range, led by the finite awkward values (the table takes
        # the % line), then plain ones (160 or more values take _e16_text)
        axes = [np.sort(rng.uniform(-1.0, 1.0, n)) for n in shape]
        axes[0][np.argmin(np.abs(axes[0]))] = -0.0
        wide = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        finite = [v for v in AWKWARD if np.isfinite(v)]
        wide.flat[: len(finite)] = finite
        dim = len(shape)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "dim": dim, "domains": [[-1.0, 1.0]] * dim, "residual": "u", "rhs": "0",
            "conditions": [], "nodes": [{"values": axis.tolist()} for axis in axes],
        }))
        header = ",".join([f"x{d + 1}" for d in range(dim)] if dim > 1 else ["x"]) + ",u"
        for grid in (wide, rng.normal(size=shape)):

            def solved(system, options):
                itp = TensorInterpolant(bases=system.bases, coeffs=grid.ravel())
                return SolveResult(interpolant=itp, iterations=0, residual_norm=0.0, linear=True)

            monkeypatch.setattr(cli, "solve_system", solved)
            code, _, _ = run_cli(capsys, "solve", "--config", str(config), "--out", str(tmp_path / "run"))
            assert code == 0
            rows = [[axes[d][idx[d]] for d in range(dim)] + [grid[idx]] for idx in np.ndindex(*shape)]
            assert (tmp_path / "run" / "samples.csv").read_text() == reference_csv(header, rows)

    def test_interp_samples(self, capsys, tmp_path):
        target = tmp_path / "samples.csv"
        for count in (33, 512):  # 512 rows take the vectorised formatter
            run_cli(capsys, "interp", "--expr", "sin(pi*x) - 0.5", "--N", "10",
                    "--samples", str(count), "--samples-out", str(target),
                    "--out", str(tmp_path / "itp.json"))
            itp = load_interpolant(tmp_path / "itp.json")
            xs = np.linspace(-1.0, 1.0, count)
            expected = reference_csv("x,u", zip(xs, eval_interpolant(itp, xs)))
            assert target.read_bytes() == expected.encode()

    def test_diffmat(self, capsys):
        from dlf.diffmat import dm_matrix
        from conftest import build_basis

        for n in (9, 40):  # 41**2 entries take the vectorised formatter
            _, out, _ = run_cli(capsys, "diffmat", "--N", str(n), "--order", "2", "--domain", "0,3")
            expected = reference_csv(None, dm_matrix(build_basis(n=n, a=0.0, b=3.0), 2).entries)
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

    @pytest.mark.parametrize("flag,value", [("--domain", "-1,1"), ("--nodes", "-1,0,1")])
    def test_value_starting_with_a_minus_needs_the_equals_form(self, capsys, flag, value):
        # argparse reads "-1,1" as a flag; the message says how to pass it
        code, out, err = run_cli(capsys, "basis", flag, value)
        assert (code, out) == (1, "")
        body = stderr_json(err)
        assert body["error"] == "usage"
        assert f"argument {flag}: expected one argument" in body["message"]
        assert f"{flag}=VALUE" in body["message"] and "--domain=-1,1" in body["message"]
        code, out, _ = run_cli(capsys, "basis", f"{flag}={value}", "--N", "2")
        assert code == 0
        assert out.splitlines()[1].startswith("0,-1.0000000000000000e+00,")

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

    def test_map_not_finite_between_nodes_fails(self, capsys):
        # odd N: no node at 0, so only the sample there meets the pole of 1/x
        code, out, err = run_cli(
            capsys, "interp", "--psi-expr", "1/x", "--N", "7", "--domain=-1,1",
            "--expr", "x", "--samples", "3",
        )
        assert (code, out) == (2, "")
        assert stderr_json(err) == {
            "error": "expr-eval", "message": "non-finite result evaluating '1.0 / x'"
        }

    def test_non_ascii_digit_is_a_syntax_error(self, capsys):
        code, out, err = run_cli(capsys, "interp", "--expr", "\u0663*x")
        assert (code, out) == (2, "")
        assert stderr_json(err) == {
            "error": "expr-syntax", "message": "unexpected character '\u0663' (at offset 0)",
            "offset": 0,
        }

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
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    def test_negative_sample_count_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "itp.json"
        code, _, err = run_cli(
            capsys, "interp", "--expr", "x", "--samples", "-3", "--out", str(target)
        )
        assert code == 1
        assert stderr_json(err)["error"] == "usage"
        assert not target.exists()

    @pytest.mark.parametrize("samples", [[], ["--samples", "0"]])
    def test_samples_out_needs_a_sample_count(self, capsys, tmp_path, samples):
        csv, target = tmp_path / "never.csv", tmp_path / "itp.json"
        code, _, err = run_cli(
            capsys, "interp", "--expr", "x", "--N", "3", *samples,
            "--samples-out", str(csv), "--out", str(target),
        )
        assert code == 1
        assert stderr_json(err)["error"] == "usage"
        assert not csv.exists() and not target.exists()

    @pytest.mark.parametrize(
        "expr,shown",
        [("10^400 + 0*x", "10.0^400.0 + 0.0 * x"), ("exp(800)", "exp(800.0)")],
    )
    def test_overflowing_expr_is_named(self, capsys, expr, shown):
        code, out, err = run_cli(capsys, "interp", "--expr", expr, "--N", "4")
        assert (code, out) == (2, "")
        assert stderr_json(err) == {
            "error": "expr-eval", "message": f"non-finite result evaluating {shown!r}"
        }


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

    def test_overflowing_condition_is_named(self, capsys, tmp_path):
        cfg = json.load(open(SINE_CFG))
        cfg["conditions"][1]["expr"] = "1e308*10"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", "--config", str(path))
        assert (code, out) == (2, "")
        assert stderr_json(err) == {
            "error": "expr-eval", "message": "non-finite result evaluating '1e+308 * 10.0'"
        }

    def test_newton_budget_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--config", RICCATI_CFG, "--max-iter", "1"
        )
        assert code == 2
        body = stderr_json(err)
        assert body["error"] == "newton"
        assert body["iterations"] == 1
        assert body["residual_norm"] > 0


# --family, --params and --scheme on top of a config, and the config they stand for
OVERRIDE_FLAGS = ("--family", "rational", "--params", '{"L": 2}', "--scheme", "equispaced")


def overridden_config(tmp_path) -> str:
    cfg = json.load(open(SINE_CFG))
    cfg["family"] = {"kind": "rational", "params": {"L": 2}}
    cfg["nodes"] = {"scheme": "equispaced"}
    path = tmp_path / "overridden.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigOverrides:
    def test_solve_writes_the_overriding_basis(self, capsys, tmp_path):
        flagged, edited = tmp_path / "flags", tmp_path / "edited"
        code, _, _ = run_cli(capsys, "solve", "--config", SINE_CFG, *OVERRIDE_FLAGS,
                             "--out", str(flagged))
        assert code == 0
        (dim,) = json.loads((flagged / "solution.json").read_text())["dims"]
        assert dim["family"]["kind"] == "rational"
        assert dim["nodes"]["scheme"] == "equispaced"
        run_cli(capsys, "solve", "--config", overridden_config(tmp_path), "--out", str(edited))
        for name in ("solution.json", "samples.csv", "residual_report.json"):
            assert (flagged / name).read_bytes() == (edited / name).read_bytes()

    def test_converge_uses_the_overriding_basis(self, capsys, tmp_path):
        trim = lambda text: [",".join(ln.split(",")[:2]) for ln in text.splitlines()]
        code, flagged, _ = run_cli(capsys, "converge", "--config", SINE_CFG, *OVERRIDE_FLAGS,
                                   "--N", "4,8")
        assert code == 0
        _, edited, _ = run_cli(capsys, "converge", "--config", overridden_config(tmp_path),
                               "--N", "4,8")
        _, plain, _ = run_cli(capsys, "converge", "--config", SINE_CFG, "--N", "4,8")
        assert trim(flagged) == trim(edited) != trim(plain)


# each failure's stderr report: its tag, its message and every payload() key
ERROR_REPORTS = [
    (
        ("basis", "--family", "fourier-sin", "--params", '{"freqs":1}',
         "--nodes", "0.5,1,2.141592653589793", "--domain", "0,3"),
        "node-separation",
        {"i": 1, "j": 2, "gap": pytest.approx(1.1102230246251565e-16), "tau": 1e-10},
    ),
    (
        ("basis", "--family", "fourier-sin", "--params", '{"freqs":1}',
         "--nodes", "0.5,1.5707963267948966,2.5", "--domain", "0,3"),
        "degenerate-derivative",
        {"i": 1, "slope": pytest.approx(1.2246467991473532e-16), "tau": 1e-10},
    ),
    (
        ("diffmat", "--N", "6", "--route", "oracle", "--fd-step", "1e-13"),
        "fd-step",
        {"richardson_disagreement": pytest.approx(0.1414, rel=0.01)},
    ),
    (("interp", "--N", "4", "--expr", "1 +"), "expr-syntax", {"offset": 3}),
]


@pytest.mark.parametrize("argv,tag,payload", ERROR_REPORTS, ids=[r[1] for r in ERROR_REPORTS])
def test_error_reports_carry_their_payload(capsys, argv, tag, payload):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    body = stderr_json(err)
    assert body.pop("error") == tag
    assert isinstance(body.pop("message"), str)
    assert body == payload


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

    def test_negative_point_count_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "contour-check", "--N", "4", "--points", "-1")
        assert code == 1
        assert stderr_json(err)["error"] == "usage"

    @pytest.mark.parametrize("center", ["1+", "one", ""])
    def test_malformed_center_is_a_usage_error(self, capsys, center):
        code, out, err = run_cli(capsys, "contour-check", "--N", "4", f"--center={center}")
        assert (code, out) == (1, "")
        body = stderr_json(err)
        assert body["error"] == "usage"
        assert body["message"].startswith("--center expects a complex literal")
        assert repr(center) in body["message"]

    def test_non_finite_center_is_an_invalid_parameter(self, capsys):
        code, out, err = run_cli(capsys, "contour-check", "--N", "4", "--center=nan")
        assert (code, out) == (2, "")
        body = stderr_json(err)
        assert body["error"] == "invalid-parameter"
        assert body["message"] == "contour center must be finite, got (nan+0j)"


# every command that writes artifacts: its argv ("{}" is the output root) and its files
ARTIFACT_COMMANDS = {
    "basis": (["basis", "--N", "6", "--out", "{}/basis.csv"], ["basis.csv"]),
    "diffmat": (["diffmat", "--N", "6", "--order", "2", "--out", "{}/d2.csv"], ["d2.csv"]),
    "interp": (
        ["interp", "--expr", "exp(x)", "--N", "6", "--samples", "9",
         "--samples-out", "{}/samples.csv", "--out", "{}/itp.json"],
        ["samples.csv", "itp.json"],
    ),
    "solve": (
        ["solve", "--config", POISSON_CFG, "--N", "8", "--out", "{}/run"],
        ["run/solution.json", "run/samples.csv", "run/residual_report.json"],
    ),
    "converge": (
        ["converge", "--config", SINE_CFG, "--N", "4,8", "--out", "{}/conv.csv"],
        ["conv.csv"],
    ),
    "contour-check": (
        ["contour-check", "--N", "4", "--points", "5", "--panels", "64", "--out", "{}/c.csv"],
        ["c.csv"],
    ),
}


def write_artifacts(capsys, command, root):
    """Run ``command`` with its outputs under ``root``; the bytes of each file it writes."""
    argv, names = ARTIFACT_COMMANDS[command]
    code, _, err = run_cli(capsys, *(arg.replace("{}", str(root)) for arg in argv))
    assert code == 0, err
    out = {}
    for name in names:
        data = (root / name).read_bytes()
        if command == "converge":  # its assemble_ms and solve_ms columns are timings
            data = b"\n".join(b",".join(ln.split(b",")[:2]) for ln in data.splitlines())
        out[name] = data
    return out


class TestArtifactWrites:
    @pytest.mark.parametrize("command", sorted(ARTIFACT_COMMANDS))
    def test_rewrites_leave_the_bytes_of_a_fresh_run(self, capsys, tmp_path, command):
        (tmp_path / "fresh").mkdir()
        fresh = write_artifacts(capsys, command, tmp_path / "fresh")
        again = tmp_path / "again"
        for name, data in fresh.items():
            (again / name).parent.mkdir(parents=True, exist_ok=True)
            (again / name).write_bytes(data + b"stale tail\n" * 500)
        assert write_artifacts(capsys, command, again) == fresh
        assert write_artifacts(capsys, command, again) == fresh

    @pytest.mark.parametrize(
        "command,target",
        [("basis", "basis.csv"), ("diffmat", "d2.csv"), ("interp", "samples.csv"),
         ("solve", "run/solution.json")],
    )
    def test_directory_at_the_path_is_an_io_error(self, capsys, tmp_path, command, target):
        (tmp_path / target).mkdir(parents=True)
        argv, _ = ARTIFACT_COMMANDS[command]
        code, _, err = run_cli(capsys, *(arg.replace("{}", str(tmp_path)) for arg in argv))
        assert code == 1
        body = stderr_json(err)
        assert body["error"] == "io"
        assert str(tmp_path / target) in body["message"]

    @pytest.mark.parametrize("command", ["basis", "interp", "contour-check"])
    def test_missing_parent_directory_is_a_missing_file(self, capsys, tmp_path, command):
        argv, _ = ARTIFACT_COMMANDS[command]
        root = tmp_path / "absent"
        code, _, err = run_cli(capsys, *(arg.replace("{}", str(root)) for arg in argv))
        assert code == 1
        assert stderr_json(err)["error"] == "missing-file"
        assert not root.exists()

    def test_symlink_at_the_path_is_written_through(self, capsys, tmp_path):
        # only a regular file is replaced; a link (like /dev/stdout) is written through
        (tmp_path / "fresh").mkdir()
        fresh = write_artifacts(capsys, "basis", tmp_path / "fresh")
        target = tmp_path / "target.csv"
        target.write_text("a longer old text\n" * 50)
        (tmp_path / "basis.csv").symlink_to(target)
        assert write_artifacts(capsys, "basis", tmp_path) == fresh
        assert (tmp_path / "basis.csv").is_symlink()
        assert target.read_bytes() == fresh["basis.csv"]


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
