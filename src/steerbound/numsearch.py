"""Numerical cross-check of the analytic bound.

For each target CHSH value beta, the sharp/unsharp witness
sigma_{a|x} = (I + (-1)^a n_x . sigma)/4 with n0 = z and n1 = m x,
m = sqrt(beta^2/4 - 1), has CHSH value 2 (cos theta* + m sin theta*) =
beta at theta* = atan m. Its fidelity operator W = (2 I(x)I + Z(x)Z +
m X(x)X)/8 has eigenvalues (3 +- m)/8 and (1 +- m)/8, the top one at Phi+.
So the identity channel (primal) and the dual point H = 0 (bound
2 lambda_max(W)) meet at 3/4 + m/4 = 3/4 + sqrt(beta^2 - 4)/8, the closed
form xi*(beta). One stacked eigenvalue call scores every target.

That value is ``numeric_min``: the exact extractability (within the pair's
gap) of a valid assemblage at CHSH value beta. It is the minimum for one
qubit block with uniform marginals, sigma_{a|x} = (I + (r + (-1)^a n_x) .
sigma)/4, read at one angle theta <= pi/4 (theta > pi/4 mirrors it with X):
the identity and conjugation by Z give Xi >= (2 + n0_z + |n1_x|)/4, and the
least value of that at 2 cos(theta) n0_z + 2 sin(theta) n1_x = beta, over
|n_x| <= 1 and then over theta, is xi*. It is not the device-independent
(DI) minimum. A DI device may be a direct sum of such blocks, over which
CHSH value and extractability are both additive, and mixing the block
(beta, Xi) = (2, 3/4) with the reference (2 sqrt 2, 1) traces the analytic
lower bound itself: that line is the DI minimum. xi* lies above it and on
or below the interpolation upper bound (eq8), its tangent at 2 sqrt 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .assemblage import Assemblage, ValidationError
from .fidelity import _ROUNDING, fidelity_operator
from .matkernel import HERMITICITY_TOL, I2, PAULI_X, PAULI_Z, hermitian_min_eigvals
from .selftest import analytic_bound, dephasing_channel, upper_bound
from .steering import BETA_CLASSICAL, BETA_QUANTUM, chsh_functional


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_beta(beta) -> None:
    """ValidationError unless beta is a number in (2, 2 sqrt 2], with 1e-12
    slack at the top: the targets the witness covers."""
    if not _is_real(beta) or not BETA_CLASSICAL < beta <= BETA_QUANTUM + 1e-12:
        raise ValidationError(f"beta target {beta!r} outside (2, 2*sqrt(2)]")


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
            _check_beta(b)
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if not _is_real(self.tolerance) or not _ROUNDING <= self.tolerance < math.inf:
            # every gap carries the rounding allowance, so a smaller tolerance fails every record
            raise ValidationError(f"tolerance must be finite and >= {_ROUNDING:g}, got {self.tolerance!r}")

    def to_dict(self) -> dict:
        """The JSON object of ``to_json``, as Python lists and numbers."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**raw, "beta_targets": list(self.beta_targets)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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
# The witness

def _witness_candidate(beta: float):
    """The sharp/unsharp witness at theta* = atan m: sigma_{a|0} =
    (I + (-1)^a Z)/4 and sigma_{a|1} = (I + (-1)^a m X)/4. m is clamped to
    1, because at 2 sqrt 2 the radicand beta^2/4 - 1 rounds to 1 + 2e-16."""
    _check_beta(beta)
    m = min(1.0, math.sqrt(beta * beta / 4 - 1))
    asm = Assemblage([[(I2 + sign * PAULI_Z) / 4, (I2 + sign * m * PAULI_X) / 4] for sign in (1, -1)])
    return asm, math.atan(m)


@dataclass(frozen=True)
class SandwichRecord:
    """One target's outcome. numeric_min is the identity channel's fidelity
    on the witness; its extractability lies in [numeric_min, numeric_min +
    gap]. winner is always "witness". residual is its |CHSH - beta| at its
    angle witness["theta"]."""

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
            and self.gap <= tolerance
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
                "config": self.config.to_dict(),
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


def _records(betas) -> tuple:
    """Each target's record: the identity channel's tr(J_id W) and the H = 0
    dual bound 2 lambda_max(W), every witness in one eigenvalue call."""
    witnesses = [_witness_candidate(beta) for beta in betas]
    w = np.array([fidelity_operator(asm) for asm, _ in witnesses])
    identity = dephasing_channel(0.0, 1.0).choi
    values = np.einsum("ij,nij->n", identity.conj(), w).real
    gaps = np.maximum(-2 * hermitian_min_eigvals(-w, HERMITICITY_TOL) - values, 0) + _ROUNDING
    return tuple(
        SandwichRecord(
            beta=beta,
            numeric_min=value,
            analytic_lower=analytic_bound(beta),
            eq8_upper=upper_bound(beta),
            residual=abs(chsh_functional(asm, theta) - beta),
            gap=gap,
            winner="witness",
            witness={
                "assemblage": asm.to_dict(), "theta": theta,
                "channel": {"re": identity.real.tolist(), "im": identity.imag.tolist()},
            },
        )
        for beta, (asm, theta), value, gap in zip(betas, witnesses, values.tolist(), gaps.tolist())
    )


def min_extractability_at_beta(beta: float) -> SandwichRecord:
    """The exact extractability of the sharp/unsharp witness at CHSH value
    beta: the one-block minimum xi*(beta) (up to the gap); the certified,
    falsifiable direction is numeric >= analytic bound.
    """
    return _records([beta])[0]


def sandwich_sweep(cfg: SearchConfig) -> SandwichReport:
    """Score every target's witness with one stacked eigenvalue call and
    assemble the report; passing means every record passes."""
    cfg.check()
    return SandwichReport(cfg, _records(cfg.beta_targets))
