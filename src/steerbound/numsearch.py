"""Numerical cross-check of the analytic bound.

For each target CHSH value beta, the sharp/unsharp witness
sigma_{a|x} = (I + (-1)^a n_x . sigma)/4 with n0 = z and n1 = m x,
m = sqrt(beta^2/4 - 1), is scored with the exact extractability SDP of
``fidelity.extractability``. Read at theta* = atan m, its CHSH value
2 (cos theta* + m sin theta*) = 2 sqrt(1 + m^2) is beta, and its
extractability is 3/4 + m/4 = 3/4 + sqrt(beta^2 - 4)/8, the closed form
xi*(beta).

That value is ``numeric_min``: the exact extractability (within the solver
gap) of a valid assemblage at CHSH value beta, hence a proven upper
estimate of the minimum. That it is the minimum is checked numerically
only. It is at least the analytic witness channel's fidelity, hence above
the analytic lower bound (up to the constraint residual), and xi* lies on
or below the interpolation upper bound (eq8), its tangent at 2 sqrt 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .assemblage import Assemblage, ValidationError, random_realization, realize
from .fidelity import extractability
from .matkernel import I2, PAULI_X, PAULI_Z
from .selftest import analytic_bound, upper_bound
from .steering import BETA_CLASSICAL, BETA_QUANTUM, BobObservables, chsh_functional


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SearchConfig:
    """Sandwich sweep settings. ``tolerance`` is the pass slack of
    ``SandwichRecord.passes``. ``rng_seed`` is checked but ignored: the
    sweep is deterministic."""

    beta_targets: tuple = (2.1, 2.34, 2.5, 2.7, BETA_QUANTUM)
    rng_seed: int = 20240817
    tolerance: float = 1e-4

    def check(self) -> None:
        if not isinstance(self.beta_targets, (list, tuple)) or not self.beta_targets:
            raise ValidationError("beta_targets must be a nonempty list of numbers")
        for b in self.beta_targets:
            if not _is_real(b) or not BETA_CLASSICAL < b <= BETA_QUANTUM + 1e-12:
                raise ValidationError(f"beta target {b!r} outside (2, 2*sqrt(2)]")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if not _is_real(self.tolerance) or not 0 < self.tolerance < math.inf:
            raise ValidationError(f"tolerance must be finite and > 0, got {self.tolerance!r}")

    def to_json(self) -> str:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps({**raw, "beta_targets": list(self.beta_targets)}, indent=2)

    @staticmethod
    def from_json(text: str) -> "SearchConfig":
        """Parse and check a config document; every key is optional, and
        any other key (including the retired samples, channel_family and
        seesaw_rounds) is rejected."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValidationError("search config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(SearchConfig)})
        if unknown:
            raise ValidationError(f"unknown search config keys: {', '.join(unknown)}")
        if isinstance(raw.get("beta_targets"), list):
            raw["beta_targets"] = tuple(raw["beta_targets"])
        cfg = SearchConfig(**raw)
        cfg.check()
        return cfg


# ---------------------------------------------------------------------------
# Assemblage sampling

def enforce_uniform_marginals(asm: Assemblage) -> Assemblage:
    """Mix with the outcome-flipped assemblage to pin every p(a|x) to 1/2.

    The equal-weight mixture solves w*p + (1-w)*(1-p) = 1/2 for every
    element simultaneously.
    """
    if asm.max_marginal_deviation() <= 1e-12:
        return asm
    return asm.mix(asm.flip_outcomes(), 0.5)


def sample_assemblage(
    rng: np.random.Generator, uniform_marginals: bool = False
) -> Assemblage:
    """Random valid quantum assemblage; optionally with uniform marginals."""
    asm = realize(random_realization(rng, uniform_marginals=uniform_marginals))
    if uniform_marginals:
        asm = enforce_uniform_marginals(asm)
    return asm


# ---------------------------------------------------------------------------
# The witness

def _witness_candidate(beta: float):
    """The sharp/unsharp witness at theta* = atan m: sigma_{a|0} =
    (I + (-1)^a Z)/4 and sigma_{a|1} = (I + (-1)^a m X)/4. m is clamped to
    1, because at 2 sqrt 2 the radicand beta^2/4 - 1 rounds to 1 + 2e-16."""
    m = min(1.0, math.sqrt(beta * beta / 4 - 1))
    asm = Assemblage([[(I2 + sign * PAULI_Z) / 4, (I2 + sign * m * PAULI_X) / 4] for sign in (1, -1)])
    return asm, math.atan(m)


@dataclass(frozen=True)
class SandwichRecord:
    """One target's outcome. numeric_min is the exact extractability (the
    solver's primal value, within gap of the true value) of the witness;
    winner is always "witness". residual is its |CHSH - beta| at its angle
    witness["theta"]."""

    beta: float
    numeric_min: float
    analytic_lower: float
    eq8_upper: float
    residual: float
    gap: float
    winner: str
    witness: dict = field(repr=False)

    def passes(self, tolerance: float) -> bool:
        return (
            self.analytic_lower - tolerance
            <= self.numeric_min
            <= self.eq8_upper + tolerance
        )


_COLUMNS = ("beta", "numeric_min", "analytic_lower", "eq8_upper", "residual", "gap", "winner")


@dataclass(frozen=True)
class SandwichReport:
    config: SearchConfig
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passes(self.config.tolerance) for r in self.records)

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": json.loads(self.config.to_json()),
                "passed": self.passed,
                "records": [
                    {
                        **{c: getattr(r, c) for c in _COLUMNS},
                        "witness": r.witness,
                    }
                    for r in self.records
                ],
            },
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for r in self.records:
            writer.writerow(
                [f"{v:.9g}" if isinstance(v, float) else v for v in (getattr(r, c) for c in _COLUMNS)]
            )
        return buf.getvalue()


def min_extractability_at_beta(beta: float) -> SandwichRecord:
    """The exact extractability of the sharp/unsharp witness at CHSH value
    beta: an upper estimate of the true minimum (up to the solver gap); the
    certified, falsifiable direction is numeric >= analytic bound.
    """
    if not BETA_CLASSICAL < beta <= BETA_QUANTUM + 1e-12:
        raise ValidationError(f"beta = {beta} outside (2, 2*sqrt(2)]")
    asm, theta = _witness_candidate(beta)
    value, channel, gap = extractability(asm)
    witness = {
        "assemblage": json.loads(asm.to_json()),
        "theta": theta,
        "channel": {"re": channel.choi.real.tolist(), "im": channel.choi.imag.tolist()},
    }
    return SandwichRecord(
        beta=beta,
        numeric_min=value,
        analytic_lower=analytic_bound(beta),
        eq8_upper=upper_bound(beta),
        residual=abs(chsh_functional(asm, BobObservables(theta)) - beta),
        gap=gap,
        winner="witness",
        witness=witness,
    )


def sandwich_sweep(cfg: SearchConfig) -> SandwichReport:
    """Run min_extractability_at_beta over every target and assemble the
    report; passing means every record satisfies the sandwich invariant."""
    cfg.check()
    return SandwichReport(cfg, tuple(min_extractability_at_beta(beta) for beta in cfg.beta_targets))
