"""Command-line front end.

Subcommands produce the certification artifacts: bound curves as CSV for
external plotting, operator-inequality sweeps, the classical-fidelity
optimum, coefficient recovery, the numerical sandwich sweep, and
assemblage realization/validation round-trips.

``verify-inequality``, ``coefficient-search`` and ``sandwich`` run on the
standard library: this module imports ``numsearch``, numpy and the modules
built on numpy (``assemblage``, ``fidelity``, ``matkernel``) only inside the
commands that need them, so ``import steerbound.cli`` and those three
commands never load numpy.

Exit codes: 0 success, 1 computation failure, 2 usage error, 141 (128 +
SIGPIPE, as a shell reports a process that signal ended) when the reader
of stdout has gone, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import certificate
from .certificate import (
    BETA_CLASSICAL, BETA_QUANTUM, ENDPOINT_SLACK, TRIVIAL_CLASSICAL_FIDELITY, VALIDITY_TOL, ValidationError, parse_json,
)


def _atomic_write(*files) -> None:
    """Write each (path, text) pair: fill a temporary file beside each path,
    then rename each over its path, so that a missing directory or a full
    disk leaves every path as it was. Mode 0o666 less the umask, which is
    never changed: the kernel applies it when a temporary file is created."""
    made = []
    try:
        for path, text in files:
            if os.path.isdir(path):  # else os.replace would refuse it only after renaming the others
                raise IsADirectoryError(f"{path} is a directory")
            for _ in range(100):  # 48 random bits per name: a clash is all but impossible
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".steerbound-{os.urandom(6).hex()}")
                try:
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    continue
            else:
                raise FileExistsError(f"no free temporary name beside {path}")
            made.append(tmp)
            try:
                data = memoryview(text.encode())  # every document steerbound writes is ASCII
                while data:  # os.write may take only part of the bytes
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        for tmp, (path, _) in zip(made, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in made:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _load_assemblage(spec: str):
    from .assemblage import Assemblage, chsh_reference
    if spec == "chsh":
        return chsh_reference()
    with open(spec) as handle:
        return Assemblage.from_json(handle.read())


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def cmd_bound_curve(args) -> int:
    import numpy as np  # its up-front allocation makes an unallocatable --points exit 1, not exhaust memory
    betas = np.linspace(args.beta_min, args.beta_max, args.points)
    lines = ["beta,analytic_lower,eq8_upper,trivial_fc"]
    for beta in betas:
        bounds = beta, certificate.analytic_bound(beta), certificate.upper_bound(beta), TRIVIAL_CLASSICAL_FIDELITY
        lines.append(",".join(map(_fmt, bounds)))
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write((args.out, text))
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_inequality(args) -> int:
    s, t_opt, thetas = args.s, certificate.T_OPTIMAL, certificate.BREAKPOINT_ANGLES
    g = [t0 + t1 for t0, t1 in zip(*certificate.breakpoint_shifts(s))]  # exact t0* + t1* at thetas
    least = certificate._first_tied(g)  # each line names the first theta exactly at its least value
    # the least eigenvalue of the four operators at t0 = t0*, t1 = t - t0* is
    # min(g - t, 0): all 0 when g >= t, so first at theta = 0, else least where g is
    worst = min(g[least] - t_opt, 0)
    i = 0 if worst >= 0 else least
    print(f"worst margin {worst:.3e} at theta = {thetas[i]:.9g} (s = {_fmt(s)})")
    # g is continuous at pi/4, so each closed cell's least value is at an end
    for label, start in (("[0, pi/4]", 0), ("[pi/4, pi/2]", 1)):
        i = start + certificate._first_tied(g[start : start + 2])
        print(f"worst theta in {label}: {thetas[i]:.9g} (t0* + t1* = {_fmt(g[i])})")
    print(f"min t0* + t1* = {_fmt(g[least])} at theta = {thetas[least]:.9g} against T_OPTIMAL = {_fmt(t_opt)}")
    # exact, with no slack; written so that a NaN margin fails
    if not worst >= 0:
        print("operator inequality FAILED", file=sys.stderr)
        return 1
    print("operator inequality verified")
    return 0


def cmd_classical_fidelity(args) -> int:
    from .fidelity import classical_fidelity
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
    coeffs = certificate.coefficient_search()
    print(f"s = {_fmt(coeffs.s)}")
    print(f"t = {_fmt(coeffs.t)} (t0 = {_fmt(coeffs.t0)}, t1 = {_fmt(coeffs.t1)})")
    print(f"bound at maximal violation = {_fmt(certificate.bound_value(coeffs, BETA_QUANTUM))}")
    return 0


def cmd_sandwich(args) -> int:
    from .numsearch import SearchConfig, sandwich_sweep
    if args.out_csv and os.path.realpath(args.out_csv) == os.path.realpath(args.out_json):
        _PARSER.error("argument --out-csv: names the same file as --out-json")
    with open(args.config) as handle:
        cfg = SearchConfig.from_json(handle.read())
    report = sandwich_sweep(cfg)
    files = [(args.out_json, report.to_json())]
    if args.out_csv:
        files.append((args.out_csv, report.to_csv()))
    _atomic_write(*files)
    for record in report.records:
        status = "pass" if record.passes(cfg.tolerance) else "FAIL"
        print(
            f"beta={_fmt(record.beta)} numeric={_fmt(record.numeric_min)} "
            f"lower={_fmt(record.analytic_lower)} upper={_fmt(record.eq8_upper)} [{status}]"
        )
    return 0 if report.passed else 1


def _load_state(spec: str):
    import numpy as np
    from .assemblage import json_matrix
    from .matkernel import PHI_PLUS
    if spec == "phi+":
        return np.outer(PHI_PLUS, PHI_PLUS.conj())
    with open(spec) as handle:
        return json_matrix(parse_json(handle.read()), 4)


def _load_measurements(spec: str) -> list:
    """POVM elements as nested lists M[x][a]; ``QuantumRealization.check``
    decides their shape."""
    from .assemblage import json_matrix
    from .matkernel import I2, PAULI_X, PAULI_Z
    if spec == "ZX":
        return [[(I2 + p) / 2, (I2 - p) / 2] for p in (PAULI_Z, PAULI_X)]
    with open(spec) as handle:
        raw = parse_json(handle.read())
    if not isinstance(raw, dict) or set(raw) != {str(x) for x in range(len(raw))}:
        raise ValidationError('measurements must be a JSON object keyed by settings "0", "1", ...')
    if any(type(elements) is not list for elements in raw.values()):
        raise ValidationError("each setting needs a list of POVM elements")
    return [[json_matrix(e) for e in raw[str(x)]] for x in range(len(raw))]


def cmd_realize(args) -> int:
    from .assemblage import QuantumRealization, realize
    state = _load_state(args.state)
    povms = _load_measurements(args.measurements)
    asm = realize(QuantumRealization(state, povms))
    text = asm.to_json()
    if args.out:
        _atomic_write((args.out, text))
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_validate(args) -> int:
    from .assemblage import validate
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
    outside [minimum, maximum] is a usage error. So is an int past the float
    range, on which math.isfinite raises OverflowError."""

    def parse(text: str):
        try:
            value = convert(text)
            valid = math.isfinite(value) and minimum <= value <= maximum
        except (ValueError, OverflowError):
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number in [{minimum}, {maximum}]")
        return value

    return parse


def _s_value(text: str) -> float:
    return certificate.S_OPTIMAL if text == "optimal" else float(text)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own write drops a BrokenPipeError: main must see it
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steerbound",
        description="Device-independent certification of the CHSH-type steering assemblage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # both bounds are affine interpolations that hold only on [2, 2 sqrt 2]
    beta = _checked(float, BETA_CLASSICAL - ENDPOINT_SLACK, BETA_QUANTUM + ENDPOINT_SLACK)
    # no float64 grid with more points than this is addressable: numpy's
    # largest intp is sys.maxsize
    grid_max = sys.maxsize // 8
    p = sub.add_parser("bound-curve", help="emit lower/upper bound curves as CSV")
    p.add_argument("--beta-min", type=beta, default=BETA_CLASSICAL)
    p.add_argument("--beta-max", type=beta, default=BETA_QUANTUM)
    p.add_argument("--points", type=_checked(int, 1, grid_max), default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound_curve)

    # both certificate commands read theta at certificate.BREAKPOINT_ANGLES alone, and
    # coefficient-search searches s over one fixed bracket
    retired = "accepted for compatibility; changes nothing"
    theta_points = dict(type=_checked(int, 2, grid_max), help=retired)
    # 4 s stays finite, and so does every term of _shifts
    s_max = sys.float_info.max / 4
    p = sub.add_parser("verify-inequality", help="check the operator inequalities at t = T_OPTIMAL")
    p.add_argument("--theta-points", **theta_points)
    p.add_argument("--s", type=_checked(_s_value, -s_max, s_max), default="optimal", help='s, or "optimal"')
    p.set_defaults(func=cmd_verify_inequality)

    p = sub.add_parser("classical-fidelity", help="best classical fidelity with a reference")
    p.add_argument("--assemblage", default="chsh", help='assemblage JSON path or "chsh"')
    p.set_defaults(func=cmd_classical_fidelity)

    p = sub.add_parser("coefficient-search", help="recover the optimal bound coefficients")
    p.add_argument("--s-points", type=_checked(int, 1, grid_max), help=retired)
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
    p.add_argument("--tol", type=_checked(float, 0), default=VALIDITY_TOL)
    p.set_defaults(func=cmd_validate)

    return parser


# Built once per process: parse_args reads the parser and writes only the
# fresh namespace it returns, so main() may be called repeatedly.
_PARSER = build_parser()


def _discard_stdout() -> None:
    """Point stdout's descriptor at os.devnull, so that the interpreter's
    flush at exit of what stdout still buffers succeeds instead of
    reporting the broken pipe again. A stdout with no descriptor is left
    alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)  # --help exits here, its text still buffered
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:  # an OSError: `steerbound ... | head -1` is no failure
        _discard_stdout()
        return 141
    # ValidationError and json.JSONDecodeError are ValueErrors
    except (OSError, ValueError, MemoryError) as exc:
        # a bare MemoryError() has an empty message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
