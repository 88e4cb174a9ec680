import argparse
import errno
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from steerbound import certificate, selftest
from steerbound.assemblage import Assemblage, chsh_reference
from steerbound.cli import build_parser, main
from steerbound.numsearch import SearchConfig, sandwich_sweep

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
        # both ends are allowed ENDPOINT_SLACK = 1e-12 of rounding
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
            # min t0* + t1* - T_OPTIMAL is exactly +1.1e-16 at S_OPTIMAL,
            # -1.8e-16 at the next float, 0.6035533905932738 (a false claim,
            # however small: no slack) and -2.8e-11 at S_OPTIMAL + 1e-11
            (("--s", repr(selftest.S_OPTIMAL)), 0),
            (("--s", repr(float(np.nextafter(selftest.S_OPTIMAL, 1)))), 1),
            (("--s", "0.6035533905932738"), 1),
            (("--s", repr(selftest.S_OPTIMAL + 1e-11)), 1),
            (("--s", "0.9"), 1),
            (("--s", "5"), 1),
            # margin -1.4e-13
            (("--s", repr(selftest.S_OPTIMAL + 5e-14)), 1),
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
        monkeypatch.setattr(certificate, "_shifts", lambda s, first, cos, sin: (math.nan, 0.0))
        assert main(["verify-inequality"]) == 1
        assert capsys.readouterr().err == "operator inequality FAILED\n"

    def test_worst_margin_tie_goes_to_first_theta(self, capsys):
        # at this s the margins at theta = 0 and pi/2 are equal in exact
        # arithmetic, and the printed angle is the first of the tied ones
        # whichever way rounding breaks the tie
        assert main(["verify-inequality", "--s", "-0.5755102040816326", "--theta-points", "2"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "worst margin -9.439e-01 at theta = 0 (s = -0.575510204)"

    @pytest.mark.parametrize("s", [float(np.nextafter(selftest.S_OPTIMAL, 1)), selftest.S_OPTIMAL + 0.5e-12 / (2 * SQRT2 - 2),
                                   selftest.S_OPTIMAL + 2e-12 / (2 * SQRT2 - 2)])
    def test_worst_margin_tie_rule_edge(self, s, capsys):
        # above S_OPTIMAL the margin at theta = 0 is (2 sqrt 2 - 2)(s -
        # S_EXACT) above pi/4's, exactly: pi/4 is named from the first float
        # on, 1.8e-16 below the others there, and for margins 0.5e-12 and
        # 2e-12 below them, which a 1e-12 tie rule used to tell apart
        assert main(["verify-inequality", "--s", repr(s)]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("worst margin -") and first.endswith(" at theta = 0.785398163 (s = 0.603553391)")

    def test_float_after_the_optimum_fails(self, capsys):
        # the first of the 32 floats past S_OPTIMAL that a 1e-14 slack let
        # through: its exact margins are -1.1e-16 at 0 and pi/2 and -1.8e-16
        # at pi/4, all four lines name pi/4
        assert main(["verify-inequality", "--s", "0.6035533905932738"]) == 1
        assert capsys.readouterr() == (
            "worst margin -1.770e-16 at theta = 0.785398163 (s = 0.603553391)\n"
            "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = 0.292893219)\n"
            "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = 0.292893219)\n"
            "min t0* + t1* = 0.292893219 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n",
            "operator inequality FAILED\n",
        )

    @pytest.mark.parametrize("s", [float(np.finfo(float).max / 4), -float(np.finfo(float).max / 4), 5e-324, -5e-324, 0.0, -0.0])
    def test_every_accepted_s_runs_exactly(self, s, capsys):
        # the extremes the parser lets through: the exact path raises no
        # OverflowError, and prints finite nearest floats
        code = main(["verify-inequality", f"--s={s!r}"])
        out, err = capsys.readouterr()
        assert code == (abs(s) > 1) and len(out.splitlines()) == 4 + (code == 0)
        assert "nan" not in out and "inf" not in out and err in ("", "operator inequality FAILED\n")

    @pytest.mark.parametrize("seed", range(3))
    def test_every_line_names_theta_by_one_rule(self, seed, capsys):
        # each of the four lines names the first breakpoint whose exact
        # value is the least: of the margins, of t0* + t1* on each closed
        # cell, and of t0* + t1* overall. At the default s, 0 and pi/2 tie
        # exactly below pi/4
        rng = np.random.default_rng(seed)
        s_values = [selftest.S_OPTIMAL, 0.0, 0.5, 0.25, -0.3, *rng.uniform(-1, 2, 30).tolist()]
        names = [f"{theta:.9g}" for theta in certificate.BREAKPOINT_ANGLES]
        for s in s_values:
            main(["verify-inequality", "--s", repr(s)])
            lines = capsys.readouterr().out.splitlines()
            g = [t0 + t1 for t0, t1 in zip(*selftest.breakpoint_shifts(s))]
            margins = [min(x - selftest.T_OPTIMAL, 0) for x in g]
            first = [min(cell, key=lambda i: values[i]) for values, cell in
                     ((margins, [0, 1, 2]), (g, [0, 1]), (g, [1, 2]), (g, [0, 1, 2]))]
            printed = [re.search(r"(?:theta = |\]: )(\S+)", line).group(1) for line in lines[:4]]
            assert printed == [names[i] for i in first], s
        g = [t0 + t1 for t0, t1 in zip(*selftest.breakpoint_shifts(selftest.S_OPTIMAL))]
        assert g[0] == g[2] < g[1]


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
    # the float after S_OPTIMAL
    ("verify-inequality", "--s", "0.6035533905932738"): (
        1,
        "worst margin -1.770e-16 at theta = 0.785398163 (s = 0.603553391)\n"
        "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = 0.292893219)\n"
        "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = 0.292893219)\n"
        "min t0* + t1* = 0.292893219 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n",
        "operator inequality FAILED\n",
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
    # the extreme alignments: the least subnormal is read at scale k = 1074,
    # and 1e300 at scale 0 with a 997-bit numerator
    ("verify-inequality", "--s", "5e-324"): (
        0,
        "worst margin 0.000e+00 at theta = 0 (s = 4.94065646e-324)\n"
        "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = 0.5)\n"
        "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = 0.5)\n"
        "min t0* + t1* = 0.5 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n"
        "operator inequality verified\n",
        "",
    ),
    ("verify-inequality", "--s", "1e300"): (
        1,
        "worst margin -2.828e+300 at theta = 0.785398163 (s = 1e+300)\n"
        "worst theta in [0, pi/4]: 0.785398163 (t0* + t1* = -2.82842712e+300)\n"
        "worst theta in [pi/4, pi/2]: 0.785398163 (t0* + t1* = -2.82842712e+300)\n"
        "min t0* + t1* = -2.82842712e+300 at theta = 0.785398163 against T_OPTIMAL = 0.292893219\n",
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
        "s = 0.603553391\n"
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
    # the verdict comes from t0* + t1* alone, in one read of the breakpoint
    # table, _shifts once on each of its rows with one exact s: no 2x2
    # operator is built, no margin or eigenvalue routine runs
    def refuse(*args):
        raise AssertionError("operator matrices built")

    calls, original = [], certificate._shifts

    def counted(s, *row):
        calls.append((s, row))
        return original(s, *row)

    monkeypatch.setattr(selftest, "dephasing_channel", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(certificate, "_shifts", counted)
    code, out, err = GOLDEN[("verify-inequality",)]
    assert main(["verify-inequality"]) == code
    assert capsys.readouterr() == (out, err)
    assert len(calls) == len(selftest.BREAKPOINT_TABLE) == 3
    for (s, got), want in zip(calls, selftest.BREAKPOINT_TABLE, strict=True):
        assert s is calls[0][0] and type(s) is selftest.QSqrt2 and s == selftest.S_OPTIMAL
        assert all(x is y for x, y in zip(got, want, strict=True))


def test_certificates_need_no_numpy_broadcast(monkeypatch, capsys):
    # the exact decision runs on Python scalars in certificate, which holds
    # no numpy: with numpy's where, minimum, maximum and abs refused, both
    # certificate commands still print their pinned lines
    def refuse(*args, **kwargs):
        raise AssertionError("numpy broadcast in the exact decision")

    assert "np" not in vars(certificate)
    for name in ("where", "minimum", "maximum", "abs"):
        monkeypatch.setattr(np, name, refuse)
    for argv in (("verify-inequality",), ("verify-inequality", "--s", "0.6035533905932738"), ("coefficient-search",)):
        code, out, err = GOLDEN[argv]
        assert main(list(argv)) == code
        assert capsys.readouterr() == (out, err), argv


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
        # text that is no number
        ["verify-inequality", "--s", "abc"],
        ["bound-curve", "--points", "1.5"],
        ["validate", "--assemblage", "chsh", "--tol", "x"],
        # 2e-12 past either end of [2, 2 sqrt 2], beyond the 1e-12 slack
        ["bound-curve", "--beta-min", "1.999999999998"],
        ["bound-curve", "--beta-max", repr(2 * SQRT2 + 2e-12)],
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
@pytest.mark.parametrize("count", [GRID_MAX + 1, 2**63 - 1, pytest.param(10**400, id="10**400")])
def test_unaddressable_grid_is_usage_error(command, option, minimum, count, capsys):
    # 2**63 - 1 points used to end in an IndexError traceback from linspace,
    # and 10**400, past the float range, in an OverflowError from math.isfinite
    with pytest.raises(SystemExit) as exc:
        main([command, option, str(count)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {option}: '{count}' is not a finite number in [{minimum}, {GRID_MAX}]\n")


@pytest.mark.parametrize(
    "argv",
    [["bound-curve", "--points", "1000000000000"]],
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

    def test_invalid_reference_is_one_error_line(self, tmp_path, run_cli):
        # sigma_{0|0} = diag(0.75, -0.25), sigma_{1|0} = diag(-0.25, 0.75):
        # it used to print a classical fidelity of 1.05901699 and exit 0
        elements = chsh_reference().elements.copy()
        elements[0, 0], elements[1, 0] = np.diag([0.75, -0.25]), np.diag([-0.25, 0.75])
        path = tmp_path / "bad.json"
        path.write_text(Assemblage(elements).to_json())
        result = run_cli("classical-fidelity", "--assemblage", str(path))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: positivity violated: min eigenvalue -2.500e-01\n"

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
    @pytest.mark.parametrize("points", ["1", "2", "512", "4096", str(10**12), str(GRID_MAX)])
    def test_s_points_changes_nothing(self, points, capsys):
        # the search reads no grid of s: the kink is exact, whatever the size
        code, out, err = GOLDEN[("coefficient-search",)]
        assert main(["coefficient-search", "--s-points", points]) == code
        assert capsys.readouterr() == (out, err)

    def test_recovers_optimum(self, run_cli):
        # 9 significant digits: the printed s and t are S_OPTIMAL's and
        # T_OPTIMAL's to the last digit
        result = run_cli(
            "coefficient-search", "--s-points", "128", "--theta-points", "2000"
        )
        assert result.returncode == 0
        s_line, t_line = result.stdout.split("\n")[:2]
        assert float(s_line.removeprefix("s = ")) == float(f"{(1 + SQRT2) / 4:.9g}")
        assert float(t_line.removeprefix("t = ").split()[0]) == float(f"{(2 - SQRT2) / 2:.9g}")
        bound_line = [l for l in result.stdout.split("\n") if "bound at" in l][0]
        assert float(bound_line.split("= ")[1]) == 1.0

    def test_s_is_the_one_verify_inequality_prints(self, run_cli):
        verify = run_cli("verify-inequality").stdout.split("\n")[0]
        search = run_cli("coefficient-search").stdout.split("\n")[0]
        assert search == "s = " + verify.split("(s = ")[1].removesuffix(")")

    def test_extra_kink_is_one_error_line(self, monkeypatch, run_cli):
        # a bound bent just below the kink fails closed
        original = certificate._shifts

        def bent(s, *row):
            t0, t1 = original(s, *row)
            return t0, min(t1, 1.5 - 2 * 0.6034 - 2.4 * (s - 0.6034) - t0)

        monkeypatch.setattr(certificate, "_shifts", bent)
        result = run_cli("coefficient-search")
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bound ") and "not the kink" in lines[0]
        assert "Traceback" not in result.stderr


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
            # an int past the float range used to overflow in SandwichRecord.passes
            pytest.param('{"tolerance": 1%s}' % ("0" * 400), id="tolerance 10**400"),
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

    @pytest.mark.parametrize("csv_name", ["report.json", "./report.json", "link.json", "absolute"])
    def test_one_file_for_both_reports_is_usage_error(self, tmp_path, csv_name, monkeypatch, run_cli):
        # the CSV used to replace the JSON report, with exit 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        (tmp_path / "link.json").symlink_to(tmp_path / "report.json")
        monkeypatch.chdir(tmp_path)
        if csv_name == "absolute":
            csv_name = str(tmp_path / "report.json")
        result = run_cli("sandwich", "--config", str(cfg_path), "--out-json", "report.json", "--out-csv", csv_name)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error: argument --out-csv: names the same file as --out-json" in result.stderr
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "link.json"]

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

    def test_realize_without_out_prints_json(self, tmp_path, run_cli):
        out = tmp_path / "asm.json"
        run_cli("realize", "--out", str(out))
        result = run_cli("realize")
        assert result.returncode == 0
        assert result.stdout == out.read_text() + "\n"

    def test_validate_round_trip(self, tmp_path, run_cli):
        out = tmp_path / "asm.json"
        run_cli("realize", "--out", str(out))
        result = run_cli("validate", "--assemblage", str(out))
        assert result.returncode == 0
        assert "valid assemblage" in result.stdout

    @pytest.mark.parametrize("excess, code", [(0.5e-10, 0), (2e-10, 1)])
    def test_validate_default_tolerance_edge(self, tmp_path, excess, code, run_cli):
        # validate --tol defaults to VALIDITY_TOL = 1e-10, the rule realize
        # and both certificates hold to
        path = tmp_path / "asm.json"
        path.write_text(Assemblage((1 + excess) * chsh_reference().elements).to_json())
        result = run_cli("validate", "--assemblage", str(path))
        assert result.returncode == code
        assert ("normalization violated" in result.stderr) == bool(code)

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


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch, run_cli):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    result = run_cli("bound-curve", "--out", str(tmp_path / "curve.csv"))
    assert result.returncode == 1
    assert result.stderr == "error: replace refused\n"
    assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_module_entry_point(self):
        # `python -m steerbound.cli` itself, which must pass main()'s
        # nonzero return on as the exit code
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


class BrokenPipe(io.StringIO):
    """A stdout whose reader has gone. ``method`` is where it shows: "write"
    fails as an unbuffered stdout does, "flush" as a buffered one does at
    main's last flush. It has no descriptor, as a test's stdout has none."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def _refuse(self, method):
        if method == self.method:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def write(self, text):
        self._refuse("write")
        return super().write(text)

    def flush(self):
        self._refuse("flush")


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [["coefficient-search"], ["verify-inequality"], ["classical-fidelity"], ["realize"], ["bound-curve", "--points", "3"]],
)
def test_closed_stdout_is_quiet_141(capsys, monkeypatch, argv, method):
    # `steerbound ... | head -1` is no failure: main returns 128 + SIGPIPE
    # and writes nothing to stderr
    monkeypatch.setattr(sys, "stdout", BrokenPipe(method))
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("argv", [["--help"], ["verify-inequality", "-h"], ["sandwich", "--help"]], ids=" ".join)
def test_help_into_closed_stdout_is_quiet_141(capsys, monkeypatch, argv, method):
    # the help text's write (unbuffered) or, the help still buffered when
    # argparse exits, the flush at the end of main meets the closed pipe,
    # as it does for a command's output
    monkeypatch.setattr(sys, "stdout", BrokenPipe(method))
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
def test_help_into_true_is_quiet_141(tmp_path, buffering):
    # the reader gone before the interpreter has started: the help text's
    # write (unbuffered; argparse's own write would drop the error) or the
    # last flush (buffered) meets a closed pipe. No "Exception ignored" and
    # exit 141, not 0 or 120; a usage error still exits 2 with argparse's message
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    err = tmp_path / "err"
    script = '"$0" -m steerbound.cli "$2" 2>"$1" | true; exit "${PIPESTATUS[0]}"'
    assert subprocess.run(["bash", "-c", script, sys.executable, str(err), "--help"], env=env).returncode == 141
    assert err.read_text() == ""
    assert subprocess.run(["bash", "-c", script, sys.executable, str(err), "--no-such"], env=env).returncode == 2
    assert err.read_text().splitlines()[-1] == "steerbound: error: the following arguments are required: command"


@pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["coefficient-search", "realize"])
def test_pipe_into_true_is_quiet_141(tmp_path, command, buffering):
    # `python -m steerbound.cli ... | true`: the reader exits before the
    # interpreter has started, so stdout's first write (unbuffered) or the
    # last flush (buffered) meets a closed pipe. Exit 141, an empty stderr
    # and no "Exception ignored" at interpreter exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    err = tmp_path / "err"
    script = f'"$0" -m steerbound.cli {command} 2>"$1" | true; exit "${{PIPESTATUS[0]}}"'
    assert subprocess.run(["bash", "-c", script, sys.executable, str(err)], env=env).returncode == 141
    assert err.read_text() == ""


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--assemblage", ["validate"]),
        ("--assemblage", ["classical-fidelity"]),
        ("--state", ["realize"]),
        ("--measurements", ["realize"]),
        ("--config", ["sandwich", "--out-json", "report.json"]),
    ],
)
@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_deeply_nested_input_is_one_error_line(tmp_path, monkeypatch, option, argv, opener, run_cli):
    # json's parser raises RecursionError on such input; main must still
    # print one error line and write nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(opener * 200000)
    result = run_cli(*argv, option, "deep.json")
    assert result.returncode == 1
    assert result.stderr == "error: JSON document is nested too deeply to parse\n"
    assert os.listdir(tmp_path) == ["deep.json"]


@pytest.mark.parametrize("count", [1, 7, 500])
def test_a_compiled_report_makes_no_dumps(tmp_path, capsys, monkeypatch, count):
    # once sandwich has written a report of this many targets, it writes the
    # next with no json.dumps call at all, head and records alike
    cfg_path, out_json = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"beta_targets": np.linspace(2.01, 2.8, count).tolist()}))
    argv = ["sandwich", "--config", str(cfg_path), "--out-json", str(out_json)]
    assert main(argv) == 0  # compiles the pieces
    expected = out_json.read_bytes(), capsys.readouterr()
    dumps, calls = json.dumps, []

    def spy(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    assert main(argv) == 0
    assert (out_json.read_bytes(), capsys.readouterr()) == expected
    assert calls == []


@pytest.mark.parametrize(
    "out_json, out_csv",
    [(os.path.join("missing", "report.json"), "report.csv"), ("report.json", os.path.join("missing", "report.csv")),
     ("report.json", "folder")],
    ids=["json directory missing", "csv directory missing", "csv names a directory"],
)
def test_a_sandwich_writes_both_files_or_neither(tmp_path, monkeypatch, out_json, out_csv, run_cli):
    # both temporary files are filled before either is renamed, and a path
    # that names a directory is refused before any rename: the command
    # fails, the existing report and CSV keep their bytes, and no temporary
    # file is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("{}")
    (tmp_path / "report.json").write_text("old report")
    (tmp_path / "report.csv").write_text("old csv")
    (tmp_path / "folder").mkdir()
    result = run_cli("sandwich", "--config", "cfg.json", "--out-json", out_json, "--out-csv", out_csv)
    assert result.returncode == 1 and result.stderr.startswith("error: ") and result.stdout == ""
    assert (tmp_path / "report.json").read_text() == "old report"
    assert (tmp_path / "report.csv").read_text() == "old csv"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "folder", "report.csv", "report.json"]
    assert os.listdir(tmp_path / "folder") == []


@pytest.fixture
def restore_umask():
    saved = os.umask(0o022)
    os.umask(saved)
    yield
    os.umask(saved)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)], ids=["022", "027", "077"])
def test_written_files_follow_the_umask(tmp_path, monkeypatch, restore_umask, umask, mode, run_cli):
    # each file takes the mode a shell redirect would give it, not
    # mkstemp's 0600, also when it replaces a file of another mode
    monkeypatch.chdir(tmp_path)
    os.umask(umask)
    (tmp_path / "cfg.json").write_text('{"beta_targets": [2.4]}')
    (tmp_path / "asm.json").write_text("{}")
    os.chmod(tmp_path / "asm.json", 0o604)
    runs = [
        ("realize", "--out", "asm.json"),
        ("bound-curve", "--points", "3", "--out", "curve.csv"),
        ("sandwich", "--config", "cfg.json", "--out-json", "report.json", "--out-csv", "report.csv"),
    ]
    for argv in runs:
        assert run_cli(*argv).returncode == 0
    for name in ("asm.json", "curve.csv", "report.json", "report.csv"):
        assert oct(os.stat(tmp_path / name).st_mode & 0o777) == oct(mode), name
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".steerbound-")]


def test_sandwich_leaves_the_umask_alone(tmp_path, monkeypatch, run_cli):
    # the kernel applies the umask when the temporary file is created, so no
    # write changes the process's umask, even for a moment, or any mode
    def refuse(*args):
        raise AssertionError("os.umask or os.chmod called")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"beta_targets": [2.4]}')
    monkeypatch.setattr(os, "umask", refuse)
    monkeypatch.setattr(os, "chmod", refuse)
    result = run_cli("sandwich", "--config", "cfg.json", "--out-json", "report.json", "--out-csv", "report.csv")
    assert result.returncode == 0, result.stderr
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "report.csv", "report.json"]


def test_partial_writes_give_the_same_bytes(tmp_path, monkeypatch):
    # os.write may take fewer bytes than it is given; the writer goes on from
    # where it stopped, and every file holds the same bytes
    (tmp_path / "cfg.json").write_text("{}")
    argv = ["sandwich", "--config", str(tmp_path / "cfg.json"), "--out-json", "report.json", "--out-csv", "report.csv"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    expected = [(tmp_path / name).read_bytes() for name in ("report.json", "report.csv")]
    assert expected[0] == sandwich_sweep(SearchConfig()).to_json().encode()
    sizes = []
    write = os.write

    def short_write(fd, data):
        sizes.append(write(fd, data[:1000]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    assert main(argv) == 0
    assert [(tmp_path / name).read_bytes() for name in ("report.json", "report.csv")] == expected
    assert len(sizes) == -(-len(expected[0]) // 1000) + 1 and max(sizes) == 1000
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "report.csv", "report.json"]
