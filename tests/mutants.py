"""Mutation gate: show that every named tolerance's edge, and every
validity check, can fail.

The table rows come from the tolerance table in
``src/steerbound/certificate.py``: the lines after its "# Tolerances" comment,
up to the first blank line, each ``NAME = value  # reason``. Every row gives
two mutants, the value times 1e3 and times 1e-3. The structural rows
(``STRUCTURAL``) each drop one ``_require_valid`` call, replacing it with its
argument, and ``GUARDS`` each break one other guard: the exact decision of
the certificate (``QSqrt2``'s sign and its two shortcuts, the tie rule,
the kink check and ``verify-inequality``'s zero slack), the dephasing
coefficient check, the elements' immutable buffer, the JSON parse's type
and magnitude check, the sandwich record's float guard, ``validate``'s
comparison of the kept
measures with its tolerance or an overflow guard (a CLI integer or a config
tolerance past the float range); one perturbs ``xi_star``, the closed form
the sandwich reads its ``numeric_min`` from, one the report's writer of
a config leaf, two the shared 2x2 closed form, once for each reader, one
swaps two components in the one reader of a 2x2 matrix's entries, and one
imports numpy into the standard-library certificate core.
For each mutant, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory, its text (which must occur exactly once in its file)
is replaced there, and its test files run with ``pytest -x``. A failing test kills the mutant; a mutant
whose tests all pass survives.

The script prints one line per mutant and exits 1 when a mutant survives
that ``EQUIVALENT`` does not list with its reason, when a table name has no
test files, or when pytest itself errs. Standard library only (pytest runs
in a child process):

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "steerbound")
TABLE = ROOT / PACKAGE / "certificate.py"
ROW = re.compile(r"(_?[A-Z][A-Z_]*) = (\S+)  # \S")
FACTORS = (1e3, 1e-3)
WORKERS = 2

# The test files holding each name's edge tests, one just inside the guard
# and one just outside.
TESTS = {
    "HERMITICITY_TOL": ("tests/test_fidelity.py",),
    "VALIDITY_TOL": ("tests/test_assemblage.py", "tests/test_fidelity.py", "tests/test_selftest.py", "tests/test_cli.py"),
    "ENDPOINT_SLACK": ("tests/test_steering.py", "tests/test_numsearch.py", "tests/test_cli.py", "tests/test_selftest.py"),
    "PROB_FLOOR": ("tests/test_fidelity.py", "tests/test_assemblage.py"),
    "WEIGHT_SUM_TOL": ("tests/test_assemblage.py",),
    "CHSH_RESIDUE_TOL": ("tests/test_steering.py",),
    "MARGINAL_WINDOW": ("tests/test_selftest.py",),
    "PURITY_TOL": ("tests/test_fidelity.py",),
    "_ROUNDING": ("tests/test_numsearch.py",),
    "NEWTON_FLOOR": ("tests/test_numsearch.py",),
    "SEARCH_TOLERANCE": ("tests/test_numsearch.py",),
}

# One row per _require_valid call site: (label, module, old text, new text,
# the site's test files); the mutant certifies or issues what validate refuses.
STRUCTURAL = (
    ("realize", "assemblage.py", "return _require_valid(Assemblage(elements))", "return Assemblage(elements)",
     ("tests/test_assemblage.py",)),
    ("from_classical", "assemblage.py", "return _require_valid(Assemblage(np.einsum(", "return (Assemblage(np.einsum(",
     ("tests/test_assemblage.py",)),
    ("classical_fidelity", "fidelity.py", "_require_valid(ref)", "ref", ("tests/test_fidelity.py",)),
    ("extractability", "fidelity.py", "_require_valid(asm)", "asm", ("tests/test_fidelity.py",)),
    ("certified_lower_bound", "selftest.py", "_require_valid(asm)", "asm", ("tests/test_selftest.py",)),
)

# Every other structural guard, broken: (label, module, old text, new text,
# the test files that must kill it). QSqrt2's sign of a + b sqrt 2 is read
# from a alone, ignoring the sqrt 2 term, its same-sign shortcut is taken
# for a and b of opposite signs, its subtraction takes every pair of
# operands for a pair at one scale k, the tie rule takes the last
# least value, the kink check's rising piece has its intercept moved by
# 2^-50 and verify-inequality's verdict takes back a 2^-46 (1.4e-14) slack,
# the dephasing coefficient check falls back to no check, the elements'
# immutable buffer to a copy that is read-only by its flag only, the JSON
# parse's one-pass type and magnitude check on every value to none, the
# sandwich record's guard on its seven floats to no check (no type or
# finiteness), validate's Hermiticity verdict to True whatever the
# tolerance, and each overflow guard to the check that let an int past the
# float range through. One row moves xi_star's 3/4 by 1e-10, which the
# sandwich tests must tell from the witness's own W, and one writes a
# report's tolerance leaf as a float whatever its type, so an int tolerance
# of 1 reads 1.0, unlike json.dumps. The next two make one break in the
# shared 2x2 closed form, matkernel._measures_2x2: |b - c*| read as |b - c|,
# the Pauli row of M - M^dagger taking -2 y (b - c = 2 y_i - 2i y) for
# 2 x_i. One is killed by test_assemblage.py alone and the other by
# test_matkernel.py alone, so both readers of the one copy, validate's kept
# measures and hermitian_min_eigvals, are shown to read it. One swaps x and
# z in matkernel._pauli_rows, the one reader of a 2x2 matrix's entries,
# which test_matkernel.py alone must catch. The last row imports numpy at
# the top of certificate.py, which test_numpy_free.py alone must catch: the
# certificate commands would load numpy again.
GUARDS = (
    ("QSqrt2 sign", "certificate.py", "else a if a * a > 2 * b * b else b", "else a",
     ("tests/test_selftest.py", "tests/test_cli.py")),
    ("QSqrt2 same-sign shortcut", "certificate.py", "(a < 0) == (b < 0)", "(a < 0) == (b > 0)", ("tests/test_selftest.py",)),
    ("QSqrt2 same-scale alignment", "certificate.py", "if k == j:  # the same scale", "if True:  # the same scale",
     ("tests/test_selftest.py",)),
    ("tie rule", "certificate.py", "return values.index(min(values))",
     "return len(values) - 1 - values[::-1].index(min(values))", ("tests/test_selftest.py", "tests/test_cli.py")),
    ("kink check", "certificate.py", "if not t + 2 * s == 1.5:", "if not t + 2 * s == 1.5 + 2.0**-50:",
     ("tests/test_selftest.py", "tests/test_cli.py")),
    ("verify slack", "cli.py", "if not worst >= 0:", "if not worst >= -2.0**-46:", ("tests/test_cli.py",)),
    ("dephasing coefficient check", "selftest.py", "if not -1 <= c <= 1:", "if False:", ("tests/test_selftest.py",)),
    ("immutable elements", "assemblage.py", "np.frombuffer(given.tobytes(), complex).reshape(given.shape)",
     "given.copy(); elements.flags.writeable = False", ("tests/test_assemblage.py",)),
    ("parse value check", "assemblage.py",
     "all(type(v) in (int, float) and abs(float(v)) < 1e308 for v in values)", "True", ("tests/test_assemblage.py",)),
    ("record float guard", "numsearch.py",
     "all(map(isinstance, values, repeat(float))) and all(map(math.isfinite, values))", "True",
     ("tests/test_numsearch.py",)),
    ("validate tolerance", "assemblage.py", "hermitian = deviation <= tol", "hermitian = True", ("tests/test_assemblage.py",)),
    ("CLI int overflow", "cli.py", "except (ValueError, OverflowError):", "except ValueError:", ("tests/test_cli.py",)),
    ("config tolerance overflow", "numsearch.py", "self.tolerance <= sys.float_info.max", "self.tolerance < math.inf",
     ("tests/test_numsearch.py",)),
    ("xi_star closed form", "certificate.py", "return 0.75 + min(", "return 0.7500000001 + min(", ("tests/test_numsearch.py",)),
    ("config leaf writer", "numsearch.py", "_leaf(cfg.tolerance)", "float.__repr__(float(cfg.tolerance))",
     ("tests/test_numsearch.py",)),
    ("2x2 adjoint gap, validate", "matkernel.py", "2 * x_i, 2 * y_i", "-2 * y, 2 * y_i", ("tests/test_assemblage.py",)),
    ("2x2 adjoint gap, eigvals", "matkernel.py", "2 * x_i, 2 * y_i", "-2 * y, 2 * y_i", ("tests/test_matkernel.py",)),
    ("Pauli row x and z swapped", "matkernel.py", "_row((ar + dr, br + cr, ci - bi, ar - dr,",
     "_row((ar + dr, ar - dr, ci - bi, br + cr,", ("tests/test_matkernel.py",)),
    ("numpy-free core", "certificate.py", "from __future__ import annotations\n",
     "from __future__ import annotations\n\nimport numpy\n", ("tests/test_numpy_free.py",)),
)

# mutant label -> why no test can tell that mutant from the program
EQUIVALENT: dict = {}


def table(path: Path = TABLE) -> list:
    """(line index, name, value text) of each row of the tolerance table."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# Tolerances"))
    rows = []
    for i in range(start, len(lines)):
        line = lines[i]
        if not line:
            break
        if line.startswith("#"):
            continue
        match = ROW.match(line)
        if match is None:
            raise ValueError(f"{path}:{i + 1}: not a tolerance row: {line!r}")
        rows.append((i, match.group(1), match.group(2)))
    return rows


def mutants() -> list:
    """(label, path, old text, new text, test files) of every mutant: two per
    table row, then the structural rows and the guards."""
    found = [
        (f"{name} {value} x {factor:g}", TABLE, f"\n{name} = {value}  ", f"\n{name} = {float(value) * factor!r}  ",
         TESTS[name])
        for _, name, value in table()
        for factor in FACTORS
    ]
    found += [
        (label, ROOT / PACKAGE / module, old, new, files) for label, module, old, new, files in STRUCTURAL + GUARDS
    ]
    return found


def run_mutant(path: Path, old: str, new: str, files) -> int:
    """pytest's exit code on ``files`` with the one ``old`` in ``path``
    replaced by ``new``, in a temporary copy of the project."""
    with tempfile.TemporaryDirectory(prefix="steerbound-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / path.relative_to(ROOT)
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{path.name}: {old!r} does not occur exactly once")
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=600).returncode


def main() -> int:
    missing = sorted({name for _, name, _ in table()} - set(TESTS))
    if missing:
        print(f"no test files for: {', '.join(missing)}")
        return 1
    start = time.perf_counter()
    rows = mutants()
    # each set of test files first passes unmutated (the table's first line
    # replaced by itself), so that a failure below is the mutant's and not
    # the copy's
    suites = sorted({files for *_, files in rows})
    with ThreadPoolExecutor(WORKERS) as pool:
        codes = list(pool.map(lambda files: run_mutant(TABLE, "# Tolerances", "# Tolerances", files), suites))
    broken = [" ".join(files) for files, code in zip(suites, codes) if code != 0]
    if broken:
        print(f"tests fail without a mutant: {'; '.join(broken)}")
        return 1
    with ThreadPoolExecutor(WORKERS) as pool:
        codes = list(pool.map(lambda row: run_mutant(*row[1:]), rows))
    bad = []
    for (label, *_), code in zip(rows, codes):
        reason = EQUIVALENT.get(label)
        if code == 1:
            verdict = "killed"
        elif code == 0 and reason:
            verdict = f"equivalent: {reason}"
        else:
            verdict = "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
            bad.append(label)
        print(f"{label:<32} {verdict}")
    print(f"{len(rows)} mutants, {len(STRUCTURAL) + len(GUARDS)} of them structural, and {len(suites)} unmutated"
          f" runs, in {time.perf_counter() - start:.0f} s")
    if bad:
        print(f"not killed: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
