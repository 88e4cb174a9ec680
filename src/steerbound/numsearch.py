"""Numerical cross-check of the analytic bound.

For each target CHSH value beta, the sharp/unsharp witness
sigma_{a|x} = (I + (-1)^a n_x . sigma)/4 with n0 = z and n1 = m x,
m = sqrt(beta^2/4 - 1), has CHSH value 2 (cos theta* + m sin theta*) =
beta at theta* = atan m. Its fidelity operator W = (2 I(x)I + Z(x)Z +
m X(x)X)/8 has eigenvalues (3 +- m)/8 and (1 +- m)/8, the top one at Phi+.
So the identity channel (primal) and the dual point H = 0 (bound
2 lambda_max(W)) meet at 3/4 + m/4 = 3/4 + sqrt(beta^2 - 4)/8, the closed
form ``certificate.xi_star``. The sweep reads every column off closed
forms, with no matrix work, and imports ``certificate`` alone: no numpy.

That value is ``numeric_min``: the exact extractability of a valid
assemblage at CHSH value beta. It is the minimum for one qubit block with
uniform marginals, sigma_{a|x} = (I + (r + (-1)^a n_x) . sigma)/4, read
at one angle theta <= pi/4 (theta > pi/4 mirrors it with X):
the identity and conjugation by Z give Xi >= (2 + n0_z + |n1_x|)/4, and the
least value of that at 2 cos(theta) n0_z + 2 sin(theta) n1_x = beta, over
|n_x| <= 1 and then over theta, is xi*. It is not the device-independent
(DI) minimum. A DI device may be a direct sum of such blocks, over which
CHSH value and extractability are both additive, and mixing the block
(beta, Xi) = (2, 3/4) with the reference (2 sqrt 2, 1) traces the analytic
lower bound itself: that line is the DI minimum. xi* lies above it and on
or below the interpolation upper bound (eq8), its tangent at 2 sqrt 2.

A record holds six float columns and the witness's m; ``winner`` is the
class constant "witness". ``_witness`` defines the witness family once:
``record.witness`` is it at the record's m, the record's compiled pieces
are it with a slot at each entry that varies, and ``_residual`` reads its
CHSH pair (2, 2m) in closed form. ``SandwichReport.to_json`` joins the pieces
``json.dumps(indent=2)`` writes around a report's slots, compiled once per
shape, with each leaf's ``repr``: a record refuses any of its seven floats
that is not finite, and ``SearchConfig.check`` any config leaf that is not
a finite number, so its bytes are ``json.dumps``'s, with no other path.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import repeat

from .certificate import (
    _ROUNDING, BETA_CLASSICAL, BETA_QUANTUM, ENDPOINT_SLACK, SEARCH_TOLERANCE, ValidationError, _sharpness,
    analytic_bound, parse_json, upper_bound, xi_star,
)


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
    """Sandwich sweep settings, checked once, when built: ValidationError unless ``check`` passes, on
    beta_targets made a tuple first, so that no later change to a list can get round it. ``tolerance`` is the
    pass slack of ``SandwichRecord.passes``. ``rng_seed`` is checked but ignored: the sweep is deterministic."""

    beta_targets: tuple = (2.1, 2.34, 2.5, 2.7, BETA_QUANTUM)
    rng_seed: int = 20240817
    tolerance: float = SEARCH_TOLERANCE

    def __post_init__(self):
        if isinstance(self.beta_targets, list):
            object.__setattr__(self, "beta_targets", tuple(self.beta_targets))
        self.check()

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
        return SearchConfig(**raw)


# ---------------------------------------------------------------------------
# The witness

# the identity channel's Choi matrix, sum_ij |ii><jj|: real, 1 at (0, 0), (0, 3), (3, 0) and (3, 3)
_IDENTITY = ((1.0, 0.0, 0.0, 1.0), (0.0,) * 4, (0.0,) * 4, (1.0, 0.0, 0.0, 1.0))


def _witness(plus, minus, theta) -> dict:
    """The witness family as the report writes it, built fresh down to each
    row: sigma_{a|0} = (I + (-1)^a Z)/4 and sigma_{a|1} = (I + (-1)^a m X)/4,
    whose only entries that vary are sigma_{a|1}'s off-diagonals plus = m/4
    and minus = -m/4, read at theta, and the identity channel. Every
    imaginary part is 0."""
    re = ([[0.5, 0.0], [0.0, 0.0]], [[0.25, plus], [plus, 0.25]], [[0.0, 0.0], [0.0, 0.5]],
          [[0.25, minus], [minus, 0.25]])
    elements = [{"a": i // 2, "x": i % 2, "re": rows, "im": [[0.0, 0.0], [0.0, 0.0]]} for i, rows in enumerate(re)]
    channel = {"re": list(map(list, _IDENTITY)), "im": [[0.0] * 4 for _ in _IDENTITY]}
    return {"assemblage": {"outcomes": 2, "settings": 2, "elements": elements}, "theta": theta, "channel": channel}


@dataclass(frozen=True)
class SandwichRecord:
    """One target's outcome. numeric_min is the identity channel's fidelity
    on the witness of parameter m; its extractability lies in [numeric_min,
    numeric_min + gap]. residual is its |CHSH - beta| at its angle
    witness["theta"] = atan m. ValidationError unless each of the seven
    fields is a finite float."""

    beta: float
    numeric_min: float
    analytic_lower: float
    eq8_upper: float
    residual: float
    gap: float
    m: float

    winner = "witness"  # a class constant, not a field: the one kind of record

    def __post_init__(self):
        values = (self.beta, self.numeric_min, self.analytic_lower, self.eq8_upper, self.residual, self.gap, self.m)
        if not (all(map(isinstance, values, repeat(float))) and all(map(math.isfinite, values))):
            raise ValidationError("a sandwich record needs six finite float columns and a finite float m")

    @property
    def witness(self) -> dict:
        """The witness as the report writes it: ``_witness`` at m, fresh on
        each read."""
        return _witness(self.m / 4, -self.m / 4, math.atan(self.m))

    def passes(self, tolerance: float) -> bool:
        lower, upper = self.analytic_lower - tolerance, self.eq8_upper + tolerance
        return lower <= self.numeric_min <= upper and self.gap <= tolerance


_COLUMNS = ("beta", "numeric_min", "analytic_lower", "eq8_upper", "residual", "gap", "winner")


@dataclass(frozen=True)
class SandwichReport:
    config: SearchConfig
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passes(self.config.tolerance) for r in self.records)

    def to_json(self) -> str:
        """``json.dumps(report, indent=2)``'s bytes, a record being its columns
        and then its witness, as the compiled pieces of ``_head`` and
        ``_record_pieces`` joined with the leaves' texts; the config was
        checked when built."""
        cfg, pieces = self.config, _record_pieces()
        records = [_join(pieces, _record_leaves(r)) for r in self.records]
        targets = list(map(_leaf, cfg.beta_targets))
        leaves = [*targets, _leaf(cfg.rng_seed), _leaf(cfg.tolerance), "true" if self.passed else "false", *records]
        return _join(_head(len(targets), len(records)), leaves)

    def to_csv(self) -> str:
        buf = io.StringIO()
        rows = ([*(f"{getattr(r, c):.9g}" for c in _COLUMNS[:6]), r.winner] for r in self.records)
        csv.writer(buf, lineterminator="\n").writerows([_COLUMNS, *rows])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# The report's JSON

_SLOT = "\0"  # a leaf no report holds
_SLOT_TEXT = json.dumps(_SLOT)  # "\u0000", with its quotes
_RECORD_PAD = "\n    "  # a newline and the indent of an item of a report's "records"


def _join(pieces, leaves) -> str:
    """pieces[0] + leaves[0] + pieces[1] + ... + leaves[-1] + pieces[-1]."""
    text = [None] * (2 * len(leaves) + 1)
    text[::2], text[1::2] = pieces, leaves
    return "".join(text)


@functools.lru_cache(maxsize=8)
def _head(targets: int, records: int) -> tuple:
    """A report's pieces, with a slot at each target, rng_seed, tolerance,
    passed and each record; compiled on its shape's first report."""
    head = {"config": {"beta_targets": [_SLOT] * targets, "rng_seed": _SLOT, "tolerance": _SLOT}, "passed": _SLOT}
    return tuple(json.dumps({**head, "records": [_SLOT] * records}, indent=2).split(_SLOT_TEXT))


@functools.cache
def _record_pieces() -> tuple:
    """A record's 12 pieces at its indent in the report (json.dumps escapes a
    string's newlines), a slot at each of ``_record_leaves``; compiled once."""
    record = {**dict.fromkeys(_COLUMNS, _SLOT), "winner": SandwichRecord.winner}
    record["witness"] = _witness(_SLOT, _SLOT, _SLOT)  # winner and every constant entry are piece text
    return tuple(json.dumps(record, indent=2).replace("\n", _RECORD_PAD).split(_SLOT_TEXT))


def _record_leaves(r: SandwichRecord) -> tuple:
    """A record's 11 leaves, the six columns and then the witness's m/4 twice,
    -m/4 twice and theta, each written as ``json.dumps`` writes a finite float."""
    columns = map(float.__repr__, (r.beta, r.numeric_min, r.analytic_lower, r.eq8_upper, r.residual, r.gap))
    plus, minus = float.__repr__(r.m / 4), float.__repr__(-r.m / 4)
    return (*columns, plus, plus, minus, minus, float.__repr__(math.atan(r.m)))


def _leaf(v) -> str:
    """A checked config number as ``json.dumps`` writes it."""
    return float.__repr__(v) if isinstance(v, float) else int.__repr__(v)


def _records(betas) -> tuple:
    """Each target's record, read off closed forms with no matrix work:
    m = ``certificate._sharpness(beta)``, numeric_min = ``xi_star(beta)`` = 3/4 +
    m/4 = tr(J_id W) and gap = ``_ROUNDING``, since W = (2 I(x)I + Z(x)Z +
    m X(x)X)/8 has top eigenvalue (3 + m)/8: the identity channel and the
    H = 0 dual point meet, with exact gap 0. The targets are
    ``SearchConfig.check``'s to check."""
    return tuple(
        SandwichRecord(beta, xi_star(beta), analytic_bound(beta), upper_bound(beta), _residual(m, beta), _ROUNDING, m)
        for beta, m in zip(betas, map(_sharpness, betas))
    )


def _residual(m: float, beta: float) -> float:
    """|CHSH - beta| of the witness at m, read at theta = atan m: ``_witness``'s elements give the CHSH pair u =
    4 (1/4 + 1/4) = 2 and w = 4 (m/4 + m/4) = 2 m exactly (each step scales by a power of two), so this is
    ``abs(chsh_functional(asm, atan m) - beta)`` bit for bit."""
    theta = math.atan(m)
    return abs(2.0 * math.cos(theta) + 2 * m * math.sin(theta) - beta)


def sandwich_sweep(cfg: SearchConfig) -> SandwichReport:
    """Read every target's record off closed forms (see ``_records``), with
    no matrix work, and assemble the report; passing means every record
    passes."""
    return SandwichReport(cfg, _records(cfg.beta_targets))
