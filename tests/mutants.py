"""Mutation gate: show that every named tolerance's edge can fail.

The rows come from the tolerance table in ``src/steerbound/matkernel.py``:
the lines after its "# Tolerances" comment, up to the first blank line, each
``NAME = value  # reason``. Every row gives two mutants, the value times 1e3
and times 1e-3. For each mutant, ``src/``, ``tests/`` and ``pyproject.toml``
are copied to a temporary directory, the row is changed there, and the
name's test files (``TESTS``) run with ``pytest -x``. A failing test kills
the mutant; a mutant whose tests all pass survives.

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
TABLE = ROOT / "src" / "steerbound" / "matkernel.py"
ROW = re.compile(r"(_?[A-Z][A-Z_]*) = (\S+)  # \S")
FACTORS = (1e3, 1e-3)
WORKERS = 2

# The test files holding each name's edge tests, one just inside the guard
# and one just outside.
TESTS = {
    "HERMITICITY_TOL": ("tests/test_fidelity.py",),
    "PHYSICAL_TOL": ("tests/test_assemblage.py",),
    "VALIDITY_TOL": ("tests/test_assemblage.py", "tests/test_fidelity.py", "tests/test_selftest.py"),
    "REALIZED_TOL": ("tests/test_assemblage.py", "tests/test_cli.py"),
    "ENDPOINT_SLACK": ("tests/test_steering.py", "tests/test_numsearch.py", "tests/test_cli.py", "tests/test_selftest.py"),
    "BREAKPOINT_TIE": ("tests/test_selftest.py",),
    "PROB_FLOOR": ("tests/test_fidelity.py", "tests/test_assemblage.py"),
    "WEIGHT_SUM_TOL": ("tests/test_assemblage.py",),
    "CHSH_RESIDUE_TOL": ("tests/test_steering.py",),
    "MARGINAL_WINDOW": ("tests/test_selftest.py",),
    "PURITY_TOL": ("tests/test_fidelity.py",),
    "INEQUALITY_SLACK": ("tests/test_cli.py",),
    "_KINK_TOL": ("tests/test_selftest.py",),
    "_ROUNDING": ("tests/test_numsearch.py",),
    "NEWTON_FLOOR": ("tests/test_numsearch.py",),
    "SEARCH_TOLERANCE": ("tests/test_numsearch.py",),
}

# (name, factor) -> why no test can tell that mutant from the program
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


def run_mutant(index: int, name: str, value: str, factor: float, files) -> int:
    """pytest's exit code on ``files`` with row ``index`` of the table set to
    ``value`` times ``factor``, in a temporary copy of the project."""
    with tempfile.TemporaryDirectory(prefix="steerbound-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / TABLE.relative_to(ROOT)
        lines = target.read_text().splitlines(keepends=True)
        old = f"{name} = {value}  "
        if not lines[index].startswith(old):
            raise ValueError(f"row {index + 1} is not {old!r}")
        lines[index] = f"{name} = {float(value) * factor!r}  " + lines[index][len(old):]
        target.write_text("".join(lines))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=600).returncode


def main() -> int:
    rows = table()
    names = [name for _, name, _ in rows]
    missing = sorted(set(names) - set(TESTS))
    if missing:
        print(f"no test files for: {', '.join(missing)}")
        return 1
    start = time.perf_counter()
    # each set of test files first passes unmutated (the value times 1), so
    # that a failure below is the mutant's and not the copy's
    first = rows[0]
    suites = sorted(set(TESTS.values()))
    with ThreadPoolExecutor(WORKERS) as pool:
        codes = list(pool.map(lambda files: run_mutant(*first, 1.0, files), suites))
    broken = [" ".join(files) for files, code in zip(suites, codes) if code != 0]
    if broken:
        print(f"tests fail without a mutant: {'; '.join(broken)}")
        return 1
    mutants = [(i, name, value, factor) for i, name, value in rows for factor in FACTORS]
    with ThreadPoolExecutor(WORKERS) as pool:
        codes = list(pool.map(lambda m: run_mutant(*m, TESTS[m[1]]), mutants))
    bad = []
    for (_, name, value, factor), code in zip(mutants, codes):
        label = f"{name} {value} x {factor:g}"
        reason = EQUIVALENT.get((name, factor))
        if code == 1:
            verdict = "killed"
        elif code == 0 and reason:
            verdict = f"equivalent: {reason}"
        else:
            verdict = "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
            bad.append(label)
        print(f"{label:<32} {verdict}")
    print(f"{len(mutants)} mutants of {len(rows)} names, and {len(suites)} unmutated runs, in {time.perf_counter() - start:.0f} s")
    if bad:
        print(f"not killed: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
