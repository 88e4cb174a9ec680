"""The sandwich workload: ``steerbound sandwich`` with the default
``SearchConfig``, ``rng_seed`` set from the benchmark's seed, run through the
CLI's ``main`` in one process.

The report is checked against closed forms written here, not values taken
from the library.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import certificates

BETA_QUANTUM = 2 * math.sqrt(2)
BETAS = (2.1, 2.34, 2.5, 2.7, BETA_QUANTUM)  # SearchConfig's default targets
TOL = 1e-4  # SearchConfig's default tolerance
SAMPLES = 20  # SearchConfig's default restarts per target


def analytic_bound(beta: float) -> float:
    return (1 + math.sqrt(2)) / 8 * beta + (2 - math.sqrt(2)) / 4


def eq8_upper(beta: float) -> float:
    f_c = (2 + math.sqrt(2)) / 4
    return f_c + (1 - f_c) * (beta - 2) / (BETA_QUANTUM - 2)


def check_report(path: Path):
    """None when the report holds the five default targets, each inside
    [analytic_lower - tol, eq8_upper + tol]; else the reason."""
    try:
        records = json.loads(path.read_text())["records"]
        if len(records) != len(BETAS):
            return f"{len(records)} records, expected {len(BETAS)}"
        for record, beta in zip(records, BETAS):
            lower, upper = analytic_bound(beta), eq8_upper(beta)
            if abs(record["beta"] - beta) > 1e-12:
                return f"record beta {record['beta']!r} != {beta!r}"
            if abs(record["analytic_lower"] - lower) > 1e-12 or abs(record["eq8_upper"] - upper) > 1e-12:
                return f"bounds at beta={beta} differ from the closed forms"
            if not lower - TOL <= record["numeric_min"] <= upper + TOL:
                return f"numeric_min {record['numeric_min']!r} outside [{lower}, {upper}] at beta={beta}"
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable sandwich report: {exc!r}"
    return None


def command(work: Path, seed: int):
    """The sandwich operation for ``seed``: a function of the imported
    package that runs the command once and returns None when its report is
    correct, else the reason. Its files live in ``work``."""
    config = work / "sandwich_config.json"
    config.write_text(json.dumps({"rng_seed": seed}))
    report = work / "sandwich_report.json"
    argv = ("sandwich", "--config", str(config), "--out-json", str(report))

    def run(sb):
        report.unlink(missing_ok=True)
        code, _ = certificates.in_process_cli(sb, argv)
        return f"sandwich returned {code}" if code else check_report(report)

    return run
