import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from steerbound import selftest
from steerbound.assemblage import Assemblage, chsh_reference
from steerbound.cli import build_parser, main

SQRT2 = math.sqrt(2)


@pytest.fixture
def run_cli(capsys):
    """Run the CLI's ``main`` in this process; the result reads like
    subprocess.run's. argparse's usage errors raise SystemExit(2)."""

    def run(*args):
        capsys.readouterr()
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


class TestBoundCurve:
    def test_stdout_csv(self, run_cli):
        result = run_cli("bound-curve", "--points", "5")
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "beta,analytic_lower,eq8_upper,trivial_fc"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(2.0)
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(2 * SQRT2, abs=1e-6)
        assert float(last[1]) == pytest.approx(1.0, abs=1e-6)
        assert float(last[2]) == pytest.approx(1.0, abs=1e-6)

    def test_file_output(self, tmp_path, run_cli):
        out = tmp_path / "curve.csv"
        result = run_cli(
            "bound-curve", "--points", "3", "--out", str(out)
        )
        assert result.returncode == 0
        text = out.read_text()
        assert text.startswith("beta,")
        assert len(text.strip().split("\n")) == 4

    @pytest.mark.parametrize(
        "args",
        [
            ("--beta-min", "2.0", "--beta-max", "2.8284"),  # the README's command
            ("--beta-min", "2", "--beta-max", repr(2 * SQRT2)),
            ("--beta-min", "1.9999999999995", "--beta-max", repr(2 * SQRT2 + 5e-13)),
        ],
    )
    def test_range_endpoints_accepted(self, args, capsys):
        assert main(["bound-curve", *args, "--points", "3"]) == 0
        for row in capsys.readouterr().out.splitlines()[1:]:
            _, lower, upper, trivial = map(float, row.split(","))
            assert lower <= upper <= 1 + 1e-9
            assert upper >= trivial - 1e-9


class TestVerifyInequality:
    def test_retired_rule_flag_is_usage_error(self, run_cli):
        result = run_cli("verify-inequality", "--t0-t1-rule", "constraints")
        assert result.returncode == 2

    def test_optimal_passes(self, run_cli):
        result = run_cli("verify-inequality", "--theta-points", "2000")
        assert result.returncode == 0
        assert "operator inequality verified" in result.stdout
        lines = result.stdout.splitlines()
        assert lines[0].startswith("worst margin ")
        assert lines[1].startswith("worst theta in [0, pi/4]: ")
        assert lines[2].startswith("worst theta in [pi/4, pi/2]: ")
        assert lines[3].startswith("min t0* + t1* = 0.292893219 at theta = ")
        assert lines[3].endswith("against T_OPTIMAL = 0.292893219")

    def test_too_large_s_fails(self, run_cli):
        result = run_cli("verify-inequality", "--s", "0.9", "--theta-points", "500")
        assert result.returncode == 1
        assert "worst margin" in result.stdout
        assert "FAILED" in result.stderr

    @pytest.mark.parametrize(
        "args, code",
        [
            ((), 0),
            (("--theta-points", "10000"), 0),
            (("--theta-points", "2"), 0),
            # min over theta of t0* + t1* is about 1.1e-4 above T_OPTIMAL at
            # s = 0.6035 and 1.3e-4 below it at 0.6036, just past (1+sqrt 2)/4
            (("--s", "0.6035"), 0),
            (("--s", "0.6036"), 1),
            # min t0* + t1* - T_OPTIMAL is +1.1e-16 at S_OPTIMAL, -2.2e-16 at
            # the next float (rounding, within the 1e-14 slack) and -2.8e-11
            # at S_OPTIMAL + 1e-11, a false claim
            (("--s", repr(selftest.S_OPTIMAL)), 0),
            (("--s", repr(float(np.nextafter(selftest.S_OPTIMAL, 1)))), 0),
            (("--s", repr(selftest.S_OPTIMAL + 1e-11)), 1),
            (("--s", "0.9"), 1),
            (("--s", "5"), 1),
        ],
    )
    def test_claim_is_falsifiable(self, args, code, capsys):
        assert main(["verify-inequality", *args]) == code
        out, err = capsys.readouterr()
        assert ("operator inequality verified" in out) == (code == 0)
        assert ("operator inequality FAILED" in err) == (code == 1)

    @pytest.mark.parametrize("s", ["optimal", "0.5", "0.6036", "0.7", "5"])
    def test_theta_points_changes_nothing(self, s, capsys):
        # the verdict is read at the breakpoints 0, pi/4 and pi/2 alone
        outputs = []
        for points in ("2", "7", "10000"):
            code = main(["verify-inequality", "--s", s, "--theta-points", points])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_nan_margin_fails(self, monkeypatch, capsys):
        # a margin that is not a number is never a pass
        monkeypatch.setattr(selftest, "t_constraints", lambda s, theta: (np.full(3, np.nan), np.zeros(3)))
        assert main(["verify-inequality"]) == 1
        assert capsys.readouterr().err == "operator inequality FAILED\n"

    def test_worst_margin_tie_goes_to_first_theta(self, capsys):
        # at this s the margins at theta = 0 and pi/2 are equal in exact
        # arithmetic, and the printed angle is the first of the tied ones
        # whichever way rounding breaks the tie
        assert main(["verify-inequality", "--s", "-0.5755102040816326", "--theta-points", "2"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "worst margin -9.439e-01 at theta = 0 (s = -0.575510204)"


GOLDEN = {
    ("verify-inequality",): (
        0,
        "worst margin 0.000e+00 at theta = 0 (s = 0.603553391)\n"
        "worst theta in [0, pi/4]: 0 (t0* + t1* = 0.292893219)\n"
        "worst theta in [pi/4, pi/2]: 1.57079633 (t0* + t1* = 0.292893219)\n"
        "min t0* + t1* = 0.292893219 at theta = 0 against T_OPTIMAL = 0.292893219\n"
        "operator inequality verified\n",
        "",
    ),
    ("verify-inequality", "--s", "0.6036"): (
        1,
        "worst margin -1.318e-04 at theta = 0.785398163 (s = 0.6036)\n"
        "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = 0.292761388)\n"
        "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = 0.292761388)\n"
        "min t0* + t1* = 0.292761388 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n",
        "operator inequality FAILED\n",
    ),
    ("verify-inequality", "--s", "0.5"): (
        0,
        "worst margin 0.000e+00 at theta = 0 (s = 0.5)\n"
        "worst theta in [0, pi/4]: 0 (t0* + t1* = 0.5)\n"
        "worst theta in [pi/4, pi/2]: 1.57079633 (t0* + t1* = 0.5)\n"
        "min t0* + t1* = 0.5 at theta = 0 against T_OPTIMAL = 0.292893219\n"
        "operator inequality verified\n",
        "",
    ),
    ("verify-inequality", "--s", "0.7", "--theta-points", "7"): (
        1,
        "worst margin -2.728e-01 at theta = 0.785398163 (s = 0.7)\n"
        "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = 0.0201010127)\n"
        "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = 0.0201010127)\n"
        "min t0* + t1* = 0.0201010127 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n",
        "operator inequality FAILED\n",
    ),
    ("verify-inequality", "--s", "-0.5755102040816326", "--theta-points", "2"): (
        1,
        "worst margin -9.439e-01 at theta = 0 (s = -0.575510204)\n"
        "worst theta in [0, pi/4]: 0 (t0* + t1* = -0.651020408)\n"
        "worst theta in [pi/4, pi/2]: 1.57079633 (t0* + t1* = -0.651020408)\n"
        "min t0* + t1* = -0.651020408 at theta = 0 against T_OPTIMAL = 0.292893219\n",
        "operator inequality FAILED\n",
    ),
    ("verify-inequality", "--s", "5"): (
        1,
        "worst margin -1.244e+01 at theta = 0.785398163 (s = 5)\n"
        "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = -12.1421356)\n"
        "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = -12.1421356)\n"
        "min t0* + t1* = -12.1421356 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n",
        "operator inequality FAILED\n",
    ),
    ("classical-fidelity",): (
        0,
        "classical fidelity: 0.853553391\n"
        "  lambda=0 weight=0.25 responses=[0, 0] state_diag=(0.853553391, 0.146446609)\n"
        "  lambda=1 weight=0.25 responses=[0, 1] state_diag=(0.853553391, 0.146446609)\n"
        "  lambda=2 weight=0.25 responses=[1, 0] state_diag=(0.146446609, 0.853553391)\n"
        "  lambda=3 weight=0.25 responses=[1, 1] state_diag=(0.146446609, 0.853553391)\n",
        "",
    ),
    ("coefficient-search",): (
        0,
        "s = 0.60355339\n"
        "t = 0.292893219 (t0 = -0.207106781, t1 = 0.5)\n"
        "bound at maximal violation = 1\n",
        "",
    ),
}


@pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
def test_certificate_output_is_pinned(argv, capsys):
    # the certificate commands' exact text: a faster formula must not change a byte
    code, out, err = GOLDEN[argv]
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)


def test_verify_builds_no_operator_matrices(monkeypatch, capsys):
    # the verdict comes from t0* + t1* alone, in one t_constraints call: no
    # 2x2 operator is built, no margin or eigenvalue routine runs
    def refuse(*args):
        raise AssertionError("operator matrices built")

    calls, original = [], selftest.t_constraints

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name in ("dephasing_channel", "inequality_margin"):
        monkeypatch.setattr(selftest, name, refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(selftest, "t_constraints", counted)
    code, out, err = GOLDEN[("verify-inequality",)]
    assert main(["verify-inequality"]) == code
    assert capsys.readouterr() == (out, err)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-inequality", "--s", "nan"],
        ["verify-inequality", "--s", "inf"],
        ["verify-inequality", "--s=-inf"],
        # 4 s would overflow to inf, and inf * sin(0) is NaN
        ["verify-inequality", "--s", "1e308"],
        ["verify-inequality", "--s=-1e308"],
        ["verify-inequality", "--s", "1.7e308"],
        ["verify-inequality", "--theta-points", "1"],
        ["verify-inequality", "--theta-points", "0"],
        ["coefficient-search", "--theta-points", "0"],
        ["coefficient-search", "--theta-points", "1"],
        ["coefficient-search", "--s-points", "0"],
        ["bound-curve", "--points", "0"],
        ["bound-curve", "--points", "-3"],
        ["bound-curve", "--beta-min", "nan"],
        ["bound-curve", "--beta-max", "inf"],
        # the bounds are affine interpolations valid only on [2, 2 sqrt 2]
        ["bound-curve", "--beta-min", "1", "--beta-max", "3"],
        ["bound-curve", "--beta-min", "1.999"],
        ["bound-curve", "--beta-max", "3"],
        ["bound-curve", "--beta-max", "2.8285"],
        ["bound-curve", "--beta-min", "-2.5"],
        ["validate", "--assemblage", "chsh", "--tol", "nan"],
    ],
)
def test_degenerate_numeric_argument_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


GRID_MAX = np.iinfo(np.intp).max // 8  # the most float64 points an array can address


@pytest.mark.parametrize(
    "command, option, minimum",
    [
        ("bound-curve", "--points", 1),
        ("verify-inequality", "--theta-points", 2),
        ("coefficient-search", "--s-points", 1),
        ("coefficient-search", "--theta-points", 2),
    ],
)
@pytest.mark.parametrize("count", [GRID_MAX + 1, 2**63 - 1])
def test_unaddressable_grid_is_usage_error(command, option, minimum, count, capsys):
    # 2**63 - 1 points used to end in an IndexError traceback from linspace
    with pytest.raises(SystemExit) as exc:
        main([command, option, str(count)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {option}: '{count}' is not a finite number in [{minimum}, {GRID_MAX}]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-curve", "--points", "1000000000000"],
        ["coefficient-search", "--s-points", "1000000000000"],
    ],
)
@pytest.mark.parametrize(
    "exc, message",
    [
        # numpy's _ArrayMemoryError for a grid it cannot allocate
        (
            MemoryError("Unable to allocate an array with shape (1000000000000,) and data type float64"),
            "Unable to allocate an array with shape (1000000000000,) and data type float64",
        ),
        # CPython's own, e.g. from growing a list, carries no message
        (MemoryError(), "MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_unallocatable_grid_is_one_error_line(argv, exc, message, monkeypatch, capsys):
    # stand in for the failed allocation rather than allocate terabytes
    def refuse(start, stop, num):
        raise exc

    monkeypatch.setattr(np, "linspace", refuse)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


SUBCOMMANDS = (
    "bound-curve",
    "verify-inequality",
    "classical-fidelity",
    "coefficient-search",
    "sandwich",
    "realize",
    "validate",
)


def _sandwich_outputs(tmp_path, capsys):
    cfg_path, out_json, out_csv = (tmp_path / name for name in ("cfg.json", "report.json", "report.csv"))
    cfg_path.write_text('{"beta_targets": [2.4, 2.7]}')
    code = main(["sandwich", "--config", str(cfg_path), "--out-json", str(out_json), "--out-csv", str(out_csv)])
    return code, capsys.readouterr(), out_json.read_bytes(), out_csv.read_bytes()


def test_main_builds_no_parser(monkeypatch, tmp_path, capsys):
    # the parser is built once, when steerbound.cli is imported; main() only
    # parses with it
    expected = _sandwich_outputs(tmp_path, capsys)
    assert expected[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("main() built an argparse parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv, (code, out, err) in GOLDEN.items():
        assert main(list(argv)) == code
        assert capsys.readouterr() == (out, err)
    assert _sandwich_outputs(tmp_path, capsys) == expected


def _exit_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


def test_shared_parser_is_reentrant(capsys):
    # a failed check, a usage error and --help leave nothing behind in the
    # shared parser for the next call
    assert main(["verify-inequality", "--s", "0.6036"]) == 1
    assert capsys.readouterr().err == "operator inequality FAILED\n"
    code, out, err = GOLDEN[("verify-inequality",)]
    assert main(["verify-inequality"]) == code
    assert capsys.readouterr() == (out, err)

    code, (_, err) = _exit_output(main, ["verify-inequality", "--s", "nan"], capsys)
    assert code == 2 and "error: argument --s" in err
    code, out, err = GOLDEN[("coefficient-search",)]
    assert main(["coefficient-search"]) == code
    assert capsys.readouterr() == (out, err)

    fresh = build_parser()
    for argv in [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]:
        code, (out, err) = _exit_output(main, argv, capsys)
        assert code == 0 and out.startswith("usage: steerbound") and err == ""
        assert (code, (out, err)) == _exit_output(fresh.parse_args, argv, capsys)
    code, out, err = GOLDEN[("verify-inequality",)]
    assert main(["verify-inequality"]) == code
    assert capsys.readouterr() == (out, err)


class TestClassicalFidelity:
    def test_chsh_preset(self, run_cli):
        result = run_cli("classical-fidelity")
        assert result.returncode == 0
        value = float(result.stdout.split("classical fidelity: ")[1].split("\n")[0])
        assert value == pytest.approx((2 + SQRT2) / 4, abs=1e-9)
        assert result.stdout.count("lambda=") == 4

    def test_three_settings_is_one_error_line(self, tmp_path, run_cli):
        # a 2x3 reference used to print an 8-response strategy
        ket_y = np.array([1, 1j]) / SQRT2
        kets = (np.array([1, 0]), np.array([1, 1]) / SQRT2, ket_y)
        elements = [[np.outer(k, k.conj()) / 2 for k in kets], [(np.eye(2) - np.outer(k, k.conj())) / 2 for k in kets]]
        path = tmp_path / "asm.json"
        path.write_text(Assemblage(elements).to_json())
        result = run_cli("classical-fidelity", "--assemblage", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: classical fidelity needs a two-setting, two-outcome reference\n"


class TestCoefficientSearch:
    def test_recovers_optimum(self, run_cli):
        result = run_cli(
            "coefficient-search", "--s-points", "128", "--theta-points", "2000"
        )
        assert result.returncode == 0
        s_line = [l for l in result.stdout.split("\n") if l.startswith("s = ")][0]
        assert float(s_line[4:]) == pytest.approx((1 + SQRT2) / 4, abs=1e-4)
        bound_line = [l for l in result.stdout.split("\n") if "bound at" in l][0]
        assert float(bound_line.split("= ")[1]) == pytest.approx(1.0, abs=1e-6)


class TestSandwich:
    def test_run_and_artifacts(self, tmp_path, run_cli):
        cfg = {
            "beta_targets": [2.4],
            "rng_seed": 11,
            "tolerance": 1e-4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        result = run_cli(
            "sandwich",
            "--config",
            str(cfg_path),
            "--out-json",
            str(out_json),
            "--out-csv",
            str(out_csv),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out_json.read_text())
        assert report["passed"] is True
        assert report["config"]["rng_seed"] == 11
        assert set(report["config"]) == {"beta_targets", "rng_seed", "tolerance"}
        record = report["records"][0]
        assert record["gap"] <= 1e-9
        assert record["winner"] == "witness"
        assert np.array(record["witness"]["channel"]["re"]).shape == (4, 4)
        assert "evaluations" not in record
        header = out_csv.read_text().split("\n")[0]
        assert header == "beta,numeric_min,analytic_lower,eq8_upper,residual,gap,winner"

    @pytest.mark.parametrize("text", ["{}", '{"rng_seed": 5}'])
    def test_seed_accepted_and_ignored(self, tmp_path, text, capsys):
        cfg_path, out_json = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg_path.write_text(text)
        assert main(["sandwich", "--config", str(cfg_path), "--out-json", str(out_json)]) == 0
        assert json.loads(out_json.read_text())["passed"] is True
        assert capsys.readouterr().out.count("[pass]") == 5

    @pytest.mark.parametrize(
        "text",
        [
            '{"samples": 20}',
            "[]",
            '{"channel_famly": "dephasing-only"}',
            '{"tolerance": NaN}',
            '{"channel_family": "dephasing-only"}',
            '{"seesaw_rounds": 2}',
            '{"beta_targets": [Infinity]}',
        ],
    )
    def test_bad_config_is_one_error_line(self, tmp_path, text, run_cli):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out_json = tmp_path / "report.json"
        result = run_cli("sandwich", "--config", str(cfg_path), "--out-json", str(out_json))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert not out_json.exists()

    def test_missing_config_is_error(self, tmp_path, run_cli):
        result = run_cli("sandwich", "--config", str(tmp_path / "nope.json"))
        assert result.returncode == 1
        assert "error:" in result.stderr


class TestRealizeValidate:
    def test_realize_defaults_produce_reference(self, tmp_path, run_cli):
        out = tmp_path / "asm.json"
        result = run_cli("realize", "--out", str(out))
        assert result.returncode == 0
        asm = Assemblage.from_json(out.read_text())
        np.testing.assert_allclose(asm.elements, chsh_reference().elements, atol=1e-12)

    def test_validate_round_trip(self, tmp_path, run_cli):
        out = tmp_path / "asm.json"
        run_cli("realize", "--out", str(out))
        result = run_cli("validate", "--assemblage", str(out))
        assert result.returncode == 0
        assert "valid assemblage" in result.stdout

    def test_validate_rejects_corrupted(self, tmp_path, run_cli):
        path = tmp_path / "bad.json"
        path.write_text(Assemblage(1.4 * chsh_reference().elements).to_json())
        result = run_cli("validate", "--assemblage", str(path))
        assert result.returncode == 1
        assert "normalization" in result.stderr



@pytest.mark.parametrize("command", ["validate", "classical-fidelity"])
@pytest.mark.parametrize("text", ["{}", "[]", '{"outcomes": 2, "settings": 2, "elements": [{}]}'])
def test_malformed_assemblage_is_one_error_line(tmp_path, command, text, run_cli):
    path = tmp_path / "asm.json"
    path.write_text(text)
    result = run_cli(command, "--assemblage", str(path))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


ZERO2 = [[0, 0], [0, 0]]
PHI_PLUS = {
    "re": [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]],
    "im": [[0] * 4] * 4,
}
ZX = {
    "0": [{"re": [[1, 0], [0, 0]], "im": ZERO2}, {"re": [[0, 0], [0, 1]], "im": ZERO2}],
    "1": [
        {"re": [[0.5, 0.5], [0.5, 0.5]], "im": ZERO2},
        {"re": [[0.5, -0.5], [-0.5, 0.5]], "im": ZERO2},
    ],
}


def test_realize_from_files(tmp_path):
    state, povms, out = tmp_path / "state.json", tmp_path / "povms.json", tmp_path / "asm.json"
    state.write_text(json.dumps(PHI_PLUS))
    povms.write_text(json.dumps(ZX))
    argv = ["realize", "--state", str(state), "--measurements", str(povms), "--out", str(out)]
    assert main(argv) == 0
    asm = Assemblage.from_json(out.read_text())
    np.testing.assert_allclose(asm.elements, chsh_reference().elements, atol=1e-12)


@pytest.mark.parametrize(
    "option, document",
    [
        ("--state", {}),
        ("--state", []),
        ("--state", {"re": PHI_PLUS["re"]}),
        ("--state", {"im": PHI_PLUS["im"]}),
        ("--state", {"re": [[1, 0], [0, 0]], "im": ZERO2}),
        ("--state", {"re": PHI_PLUS["re"][:3], "im": PHI_PLUS["im"]}),
        ("--state", {"re": [[math.nan] * 4] + PHI_PLUS["re"][1:], "im": PHI_PLUS["im"]}),
        ("--state", {"re": PHI_PLUS["re"], "im": [["0"] * 4] * 4}),
        ("--measurements", []),
        ("--measurements", {}),
        ("--measurements", "ZX"),
        ("--measurements", {"0": ZX["0"], "one": ZX["1"]}),
        ("--measurements", {"0": ZX["0"], "2": ZX["1"]}),
        ("--measurements", {"0": ZX["0"], "1": ZX["1"][:1]}),
        ("--measurements", {"0": [], "1": []}),
        ("--measurements", {"0": ZX["0"][0], "1": ZX["1"]}),
        ("--measurements", {"0": [{"re": [[1, 0], [0, 0]]}, ZX["0"][1]], "1": ZX["1"]}),
        ("--measurements", {"0": [{"im": ZERO2}, ZX["0"][1]], "1": ZX["1"]}),
        ("--measurements", {"0": [{"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}]}),
        ("--measurements", {"0": [{"re": [[math.nan, 0], [0, 0]], "im": ZERO2}, ZX["0"][1]]}),
    ],
)
def test_malformed_realization_is_one_error_line(tmp_path, capsys, option, document):
    path, out = tmp_path / "input.json", tmp_path / "asm.json"
    path.write_text(json.dumps(document))
    assert main(["realize", option, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


class TestExitCodes:
    def test_module_entry_point(self):
        # the one test that starts an interpreter: `python -m steerbound.cli`
        # itself, which must pass main()'s nonzero return on as the exit code
        argv = [sys.executable, "-m", "steerbound.cli", "verify-inequality", "--s", "0.9", "--theta-points", "3"]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout.startswith("worst margin ")
        assert result.stderr == "operator inequality FAILED\n"

    def test_usage_error_is_2(self, run_cli):
        assert run_cli("no-such-command").returncode == 2
        assert run_cli().returncode == 2

    def test_computation_error_is_1(self, tmp_path, run_cli):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = run_cli("validate", "--assemblage", str(path))
        assert result.returncode == 1
