"""Numerical cross-check of the analytic bound.

For each target CHSH value beta, the sharp/unsharp witness
sigma_{a|x} = (I + (-1)^a n_x . sigma)/4 with n0 = z and n1 = m x,
m = sqrt(beta^2/4 - 1), has CHSH value 2 (cos theta* + m sin theta*) =
beta at theta* = atan m. Its fidelity operator W = (2 I(x)I + Z(x)Z +
m X(x)X)/8 has eigenvalues (3 +- m)/8 and (1 +- m)/8, the top one at Phi+.
So the identity channel (primal) and the dual point H = 0 (bound
2 lambda_max(W)) meet at 3/4 + m/4 = 3/4 + sqrt(beta^2 - 4)/8, the closed
form xi*(beta). The sweep scores every target from one witness stack,
one W einsum and one eigenvalue call.

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

A record holds six float columns, ``winner`` and its witness as
``leaves``: a flat tuple of 65 floats (a 2x2 assemblage, theta and a 4x4
channel), which the sweep reads from the witness stack in one ``tolist``.
A record refuses any column or leaf that is no finite float, so every
record fills one record template: ``SandwichReport.to_json`` writes it as
one ``%`` of the text ``json.dumps(indent=2)`` writes for that layout, with
a slot at each leaf, compiled once per process on first use. Its bytes are
``json.dumps``'s, and there is no other path.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .assemblage import ValidationError, parse_json
from .fidelity import _fidelity_operators
from .matkernel import ENDPOINT_SLACK, HERMITICITY_TOL, SEARCH_TOLERANCE, _ROUNDING
from .matkernel import I2, PAULI_X, PAULI_Z, _rows, hermitian_min_eigvals
from .selftest import analytic_bound, dephasing_channel, upper_bound
from .steering import BETA_CLASSICAL, BETA_QUANTUM, _coefficients, check_theta


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_beta(beta) -> None:
    """ValidationError unless beta is a number in (2, 2 sqrt 2], with
    ENDPOINT_SLACK at the top: the targets the witness covers."""
    if not _is_real(beta) or not BETA_CLASSICAL < beta <= BETA_QUANTUM + ENDPOINT_SLACK:
        raise ValidationError(f"beta target {beta!r} outside (2, 2*sqrt(2)]")


@dataclass(frozen=True)
class SearchConfig:
    """Sandwich sweep settings. ``tolerance`` is the pass slack of
    ``SandwichRecord.passes``. ``rng_seed`` is checked but ignored: the
    sweep is deterministic."""

    beta_targets: tuple = (2.1, 2.34, 2.5, 2.7, BETA_QUANTUM)
    rng_seed: int = 20240817
    tolerance: float = SEARCH_TOLERANCE

    def check(self) -> None:
        if not isinstance(self.beta_targets, (list, tuple)) or not self.beta_targets:
            raise ValidationError("beta_targets must be a nonempty list of numbers")
        for b in self.beta_targets:
            _check_beta(b)
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if not _is_real(self.tolerance) or not _ROUNDING <= self.tolerance <= sys.float_info.max:
            # every gap carries the rounding allowance, so a smaller tolerance fails every record;
            # an int past the float range would overflow in SandwichRecord.passes
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
        raw = parse_json(text)
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

def _witnesses(betas):
    """Every target's sharp/unsharp witness at theta* = atan m, as one
    (targets, 2, 2, 2, 2) elements array and the list of the angles:
    sigma_{a|0} = (I + (-1)^a Z)/4 and sigma_{a|1} = (I + (-1)^a m X)/4. m
    is clamped to 1, because at 2 sqrt 2 the radicand beta^2/4 - 1 rounds
    to 1 + 2e-16. The targets are ``SearchConfig.check``'s to check."""
    ms = [min(1.0, math.sqrt(beta * beta / 4 - 1)) for beta in betas]
    m = np.array(ms)[:, None, None]
    elements = np.empty((len(ms), 2, 2, 2, 2), dtype=complex)
    for a, sign in enumerate((1, -1)):
        elements[:, a, 0] = (I2 + sign * PAULI_Z) / 4
        elements[:, a, 1] = (I2 + (sign * m) * PAULI_X) / 4
    # math.atan, not np.arctan: numpy's SIMD arctan need not match it in the last bit
    return elements, [math.atan(v) for v in ms]


@dataclass(frozen=True)
class SandwichRecord:
    """One target's outcome. numeric_min is the identity channel's fidelity
    on the witness; its extractability lies in [numeric_min, numeric_min +
    gap]. winner is always "witness". residual is its |CHSH - beta| at its
    angle witness["theta"]. ``leaves`` is the witness, a tuple of 65 floats
    in ``_witness_layout``'s order. ValidationError unless every column and
    leaf is a finite float and winner is a string."""

    beta: float
    numeric_min: float
    analytic_lower: float
    eq8_upper: float
    residual: float
    gap: float
    winner: str
    leaves: tuple = field(repr=False)

    def __post_init__(self):
        columns = (self.beta, self.numeric_min, self.analytic_lower, self.eq8_upper, self.residual, self.gap)
        values = (*columns, *self.leaves) if isinstance(self.leaves, tuple) else ()
        if not (
            isinstance(self.winner, str)
            and len(values) == 71
            and all(map(isinstance, values, repeat(float)))
            and all(map(math.isfinite, values))
        ):
            raise ValidationError("a sandwich record needs six finite float columns, a string winner"
                                  " and a tuple of 65 finite float leaves")

    @property
    def witness(self) -> dict:
        """The witness as the report writes it: its assemblage, theta and
        the channel's Choi matrix, in ``_witness_layout``."""
        return _witness_layout(list(self.leaves))

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
        """The report as JSON, byte-identical to ``json.dumps(report,
        indent=2)`` of the same object, where a record is its columns and
        then its witness. One ``json.dumps`` writes the head (config and
        passed) and the joins between records; each record is one fill of
        the record template (see ``_record_text``)."""
        records = self.records
        head = _compile({"config": self.config.to_dict(), "passed": self.passed, "records": [_SLOT] * len(records)})
        return head % tuple(map(_record_text, records))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows([*(f"{getattr(r, c):.9g}" for c in _COLUMNS[:6]), r.winner] for r in self.records)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# The report's JSON

_SLOT = "\0"  # a leaf no report holds
_SLOT_TEXT = json.dumps(_SLOT)  # "\u0000", with its quotes
_RECORD_PAD = "\n    "  # a newline and the indent of an item of a report's "records"


def _compile(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` as a %-template indented by ``pad``:
    each ``_SLOT`` leaf is a %s slot, and every other byte is json's.
    json.dumps escapes every newline inside a string, so each raw newline
    is one of its line breaks, and replacing it with ``pad`` indents all."""
    return json.dumps(value, indent=2).replace("\n", pad).replace("%", "%%").replace(_SLOT_TEXT, "%s")


def _witness_layout(v: list) -> dict:
    """A record's witness as the report writes it, holding the 65 floats
    of ``v`` in order: each (a, x) element's re rows then im rows, theta,
    then the channel's re rows and im rows."""
    elements = [
        {"a": i // 16, "x": i // 8 % 2, "re": [v[i : i + 2], v[i + 2 : i + 4]],
         "im": [v[i + 4 : i + 6], v[i + 6 : i + 8]]}
        for i in range(0, 32, 8)
    ]
    return {
        "assemblage": {"outcomes": 2, "settings": 2, "elements": elements},
        "theta": v[32],
        "channel": {"re": [v[i : i + 4] for i in range(33, 49, 4)], "im": [v[i : i + 4] for i in range(49, 65, 4)]},
    }


@functools.cache
def _record_template() -> str:
    """``json.dumps`` of a record at its indent in the report, with a %s
    slot for each of its 72 varying leaves: the six float columns, winner,
    then the witness's 65 floats in ``_witness_layout``'s order. Compiled
    once, on first use; the number of targets does not change it."""
    return _compile({**dict.fromkeys(_COLUMNS, _SLOT), "witness": _witness_layout([_SLOT] * 65)}, _RECORD_PAD)


def _record_text(r: SandwichRecord) -> str:
    """``json.dumps`` of the record at ``_RECORD_PAD``: the record template
    filled with its leaves' texts. Every leaf is a finite float (the record
    refuses any other), so ``float.__repr__`` writes it as ``json.dumps``
    does, and ``_json_string`` is json's own string writer."""
    columns = map(float.__repr__, (r.beta, r.numeric_min, r.analytic_lower, r.eq8_upper, r.residual, r.gap))
    return _record_template() % (*columns, _json_string(r.winner), *map(float.__repr__, r.leaves))


def _records(betas) -> tuple:
    """Each target's record: the identity channel's tr(J_id W) and the H = 0
    dual bound 2 lambda_max(W), from one witness stack, one W einsum and
    one eigenvalue call. The witness leaves come from one read of the
    stack, and each residual from its four ``matkernel._rows`` rows through
    the CHSH reader."""
    elements, thetas = _witnesses(betas)
    w = _fidelity_operators(elements)
    identity = dephasing_channel(0.0, 1.0).choi
    values = np.einsum("ij,nij->n", identity.conj(), w).real
    gaps = np.maximum(-2 * hermitian_min_eigvals(-w, HERMITICITY_TOL) - values, 0) + _ROUNDING
    leaves = np.stack((elements.real, elements.imag), axis=3).reshape(-1, 32).tolist()
    channel = tuple(np.stack((identity.real, identity.imag)).ravel().tolist())
    flat = _rows(elements)
    rows = [flat[i : i + 4] for i in range(0, len(flat), 4)]  # each target's four rows
    return tuple(
        SandwichRecord(
            beta, value, analytic_bound(beta), upper_bound(beta), _residual(r, theta, beta), gap, "witness",
            (*v, theta, *channel),
        )
        for beta, v, r, theta, value, gap in zip(betas, leaves, rows, thetas, values.tolist(), gaps.tolist())
    )


def _residual(rows, theta: float, beta: float) -> float:
    """|CHSH - beta| of one witness, ``abs(chsh_functional(asm, theta) -
    beta)`` computed from its four rows by the same reader."""
    check_theta(theta)
    u, w = _coefficients(rows)
    return abs(u * math.cos(theta) + w * math.sin(theta) - beta)


def sandwich_sweep(cfg: SearchConfig) -> SandwichReport:
    """Score every target's witness, from one witness stack, one W einsum
    and one eigenvalue call, and assemble the report; passing means every
    record passes."""
    cfg.check()
    return SandwichReport(cfg, _records(cfg.beta_targets))
