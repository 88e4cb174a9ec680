"""Command-line front end.

Subcommands produce the certification artifacts: bound curves as CSV for
external plotting, operator-inequality sweeps, the classical-fidelity
optimum, coefficient recovery, the numerical sandwich sweep, and
assemblage realization/validation round-trips.

Exit codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import selftest
from .assemblage import (
    Assemblage,
    QuantumRealization,
    ValidationError,
    chsh_reference,
    json_matrix,
    realize,
    validate,
)
from .fidelity import classical_fidelity
from .matkernel import I2, PAULI_X, PAULI_Z, PHI_PLUS
from .numsearch import SearchConfig, sandwich_sweep
from .steering import BETA_CLASSICAL, BETA_QUANTUM


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".steerbound-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_assemblage(spec: str) -> Assemblage:
    if spec == "chsh":
        return chsh_reference()
    with open(spec) as handle:
        return Assemblage.from_json(handle.read())


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def cmd_bound_curve(args) -> int:
    betas = np.linspace(args.beta_min, args.beta_max, args.points)
    lines = ["beta,analytic_lower,eq8_upper,trivial_fc"]
    for beta in betas:
        lines.append(
            ",".join(
                [
                    _fmt(beta),
                    _fmt(selftest.analytic_bound(beta)),
                    _fmt(selftest.upper_bound(beta)),
                    _fmt(selftest.TRIVIAL_CLASSICAL_FIDELITY),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_inequality(args) -> int:
    s, t_opt, thetas = args.s, selftest.T_OPTIMAL, selftest.BREAKPOINTS
    g = sum(selftest.t_constraints(s, thetas))
    # the least eigenvalue of the four operators at t0 = t0*, t1 = t - t0*
    margins = np.minimum(g - t_opt, 0)
    # the first theta within 1e-12 of the least margin, so that an exact tie
    # is not decided by the last bit of the margin formula
    worst = margins.min()
    print(f"worst margin {worst:.3e} at theta = {thetas[np.argmax(margins <= worst + 1e-12)]:.9g} (s = {_fmt(s)})")
    # g is continuous at pi/4, so each closed cell's least value is at an end
    for label, cell in (("[0, pi/4]", [0, 1]), ("[pi/4, pi/2]", [1, 2])):
        i = cell[np.argmin(g[cell])]
        print(f"worst theta in {label}: {thetas[i]:.9g} (t0* + t1* = {_fmt(g[i])})")
    i = int(np.argmin(g))
    print(f"min t0* + t1* = {_fmt(g[i])} at theta = {thetas[i]:.9g} against T_OPTIMAL = {_fmt(t_opt)}")
    # slack for rounding alone: min t0* + t1* - T_OPTIMAL is +1.1e-16 at
    # S_OPTIMAL, -2.2e-16 at the next float and -2.8e-11 at S_OPTIMAL + 1e-11;
    # written so that a NaN margin fails
    if not worst >= -1e-14:
        print("operator inequality FAILED", file=sys.stderr)
        return 1
    print("operator inequality verified")
    return 0


def cmd_classical_fidelity(args) -> int:
    ref = _load_assemblage(args.assemblage)
    value, strategy = classical_fidelity(ref)
    print(f"classical fidelity: {_fmt(value)}")
    for lam, (weight, resp, rho) in enumerate(zip(strategy.weights, strategy.responses, strategy.hidden_states)):
        print(
            f"  lambda={lam} weight={_fmt(weight)} "
            f"responses={resp.tolist()} state_diag=({_fmt(rho[0,0].real)}, {_fmt(rho[1,1].real)})"
        )
    return 0


def cmd_coefficient_search(args) -> int:
    s_grid = np.linspace(0.0, 0.8, args.s_points)
    coeffs = selftest.coefficient_search(s_grid)
    print(f"s = {_fmt(coeffs.s)}")
    print(f"t = {_fmt(coeffs.t)} (t0 = {_fmt(coeffs.t0)}, t1 = {_fmt(coeffs.t1)})")
    print(f"bound at maximal violation = {_fmt(selftest.bound_value(coeffs, BETA_QUANTUM))}")
    return 0


def cmd_sandwich(args) -> int:
    with open(args.config) as handle:
        cfg = SearchConfig.from_json(handle.read())
    report = sandwich_sweep(cfg)
    _atomic_write(args.out_json, report.to_json())
    if args.out_csv:
        _atomic_write(args.out_csv, report.to_csv())
    for record in report.records:
        status = "pass" if record.passes(cfg.tolerance) else "FAIL"
        print(
            f"beta={_fmt(record.beta)} numeric={_fmt(record.numeric_min)} "
            f"lower={_fmt(record.analytic_lower)} upper={_fmt(record.eq8_upper)} [{status}]"
        )
    return 0 if report.passed else 1


def _load_state(spec: str) -> np.ndarray:
    if spec == "phi+":
        return np.outer(PHI_PLUS, PHI_PLUS.conj())
    with open(spec) as handle:
        return json_matrix(json.load(handle), 4)


def _load_measurements(spec: str) -> list:
    """POVM elements as nested lists M[x][a]; ``QuantumRealization.check``
    decides their shape."""
    if spec == "ZX":
        return [[(I2 + p) / 2, (I2 - p) / 2] for p in (PAULI_Z, PAULI_X)]
    with open(spec) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict) or set(raw) != {str(x) for x in range(len(raw))}:
        raise ValidationError('measurements must be a JSON object keyed by settings "0", "1", ...')
    if any(type(elements) is not list for elements in raw.values()):
        raise ValidationError("each setting needs a list of POVM elements")
    return [[json_matrix(e) for e in raw[str(x)]] for x in range(len(raw))]


def cmd_realize(args) -> int:
    state = _load_state(args.state)
    povms = _load_measurements(args.measurements)
    asm = realize(QuantumRealization(state, povms))
    text = asm.to_json()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_validate(args) -> int:
    asm = _load_assemblage(args.assemblage)
    report = validate(asm, args.tol)
    if report.passed:
        print("valid assemblage")
        return 0
    for failure in report.failures():
        print(failure, file=sys.stderr)
    return 1


def _checked(convert, minimum=-math.inf, maximum=math.inf):
    """argparse type: ``convert`` the text; a value that is not finite or is
    outside [minimum, maximum] is a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and minimum <= value <= maximum):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number in [{minimum}, {maximum}]")
        return value

    return parse


def _s_value(text: str) -> float:
    return selftest.S_OPTIMAL if text == "optimal" else float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerbound",
        description="Device-independent certification of the CHSH-type steering assemblage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # both bounds are affine interpolations that hold only on [2, 2 sqrt 2]
    beta = _checked(float, BETA_CLASSICAL - 1e-12, BETA_QUANTUM + 1e-12)
    # no float64 grid with more points than this is addressable
    grid_max = np.iinfo(np.intp).max // 8
    p = sub.add_parser("bound-curve", help="emit lower/upper bound curves as CSV")
    p.add_argument("--beta-min", type=beta, default=BETA_CLASSICAL)
    p.add_argument("--beta-max", type=beta, default=BETA_QUANTUM)
    p.add_argument("--points", type=_checked(int, 1, grid_max), default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound_curve)

    # both certificate commands read theta at selftest.BREAKPOINTS alone
    theta_points = dict(type=_checked(int, 2, grid_max), help="accepted for compatibility; changes nothing")
    # 4 s stays finite, and so does every term of t_constraints
    s_max = np.finfo(float).max / 4
    p = sub.add_parser("verify-inequality", help="check the operator inequalities at t = T_OPTIMAL")
    p.add_argument("--theta-points", **theta_points)
    p.add_argument("--s", type=_checked(_s_value, -s_max, s_max), default="optimal", help='s, or "optimal"')
    p.set_defaults(func=cmd_verify_inequality)

    p = sub.add_parser("classical-fidelity", help="best classical fidelity with a reference")
    p.add_argument("--assemblage", default="chsh", help='assemblage JSON path or "chsh"')
    p.set_defaults(func=cmd_classical_fidelity)

    p = sub.add_parser("coefficient-search", help="recover the optimal bound coefficients")
    p.add_argument("--s-points", type=_checked(int, 1, grid_max), default=512)
    p.add_argument("--theta-points", **theta_points)
    p.set_defaults(func=cmd_coefficient_search)

    p = sub.add_parser("sandwich", help="run the numerical sandwich sweep")
    p.add_argument("--config", required=True, help="SearchConfig JSON path")
    p.add_argument("--out-json", default="sandwich_report.json")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("realize", help="build an assemblage from a quantum realization")
    p.add_argument("--state", default="phi+", help='state JSON path or "phi+"')
    p.add_argument("--measurements", default="ZX", help='POVM JSON path or "ZX"')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("validate", help="check assemblage validity")
    p.add_argument("--assemblage", required=True)
    p.add_argument("--tol", type=_checked(float, 0), default=1e-9)
    p.set_defaults(func=cmd_validate)

    return parser


# Built once per process: parse_args reads the parser and writes only the
# fresh namespace it returns, so main() may be called repeatedly.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, ValueError, json.JSONDecodeError, MemoryError) as exc:
        # a bare MemoryError() has an empty message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
