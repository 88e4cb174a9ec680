"""The certificates workload: the operator-inequality check and the
coefficient search, run through the CLI's ``main`` in one process.

One operation is a pair: ``verify-inequality --theta-points 10000``, then
``coefficient-search --s-points 512 --theta-points 10000``. Both are
deterministic, so the seed is recorded but unused. The commands run in
process so that a timed operation holds only the commands' own work; the
interpreter start-up every command also pays is the benchmark's
``setup_s``. worker.py runs the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

VERIFY_ARGV = ("verify-inequality", "--theta-points", "10000")
COEFFICIENT_ARGV = ("coefficient-search", "--s-points", "512", "--theta-points", "10000")

S_OPTIMAL = (1 + math.sqrt(2)) / 4
T_OPTIMAL = (2 - math.sqrt(2)) / 2
TOL = 1e-6


def check_verify(returncode: int, stdout: str):
    if returncode != 0:
        return f"verify-inequality exited {returncode}"
    if "verified" not in stdout:
        return "verify-inequality did not print 'verified'"
    return None


def check_coefficients(returncode: int, stdout: str):
    if returncode != 0:
        return f"coefficient-search exited {returncode}"
    found = {}
    for key, pattern in (("s", r"^s = (\S+)$"), ("t", r"^t = (\S+) "), ("bound", r"^bound at maximal violation = (\S+)$")):
        match = re.search(pattern, stdout, re.MULTILINE)
        if match is None:
            return f"coefficient-search printed no {key}"
        found[key] = float(match.group(1))
    if abs(found["s"] - S_OPTIMAL) > TOL or abs(found["t"] - T_OPTIMAL) > TOL:
        return f"(s, t) = ({found['s']}, {found['t']}) not within {TOL} of the optimum"
    if abs(found["bound"] - 1.0) > 1e-8:
        return f"bound at maximal violation {found['bound']} != 1"
    return None


def in_process_cli(sb, argv):
    """(returncode, stdout) of the CLI's main() run in this process; an
    unexpected exception reads as return code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sb.cli.main(list(argv))
        except Exception as exc:  # any crash of the program is a failed command
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
    return code, out.getvalue()


def verify(sb):
    """None when verify-inequality's output is correct, else the reason."""
    return check_verify(*in_process_cli(sb, VERIFY_ARGV))


def coefficients(sb):
    """None when coefficient-search's output is correct, else the reason."""
    return check_coefficients(*in_process_cli(sb, COEFFICIENT_ARGV))
