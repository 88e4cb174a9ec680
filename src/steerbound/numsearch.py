"""Numerical cross-check of the analytic bound.

Heuristic outer search, exact inner solve: minimize the extractability over
assemblages pinned to a target CHSH value, scoring every candidate with the
exact extractability SDP of ``fidelity.extractabilities`` (one stacked
solve per target). The outer search is a penalty descent over isotropic
assemblages (visibility v, one Bloch direction per setting) and theta, so
the outcome is one-sided: a passing sweep means no counterexample to the
analytic lower bound was found, never that the true minimum was reached.

The descent scores a point by a closed-form surrogate: the better of the
identity channel and the full Gamma flip, 1/2 + (v/4)(z0 + |x1|) for
Gamma = Z and 1/2 + (v/4)(|z0| + x1) for Gamma = X, where z0 and x1 are the
Z and X components of the two measurement directions. Fidelity is linear
in the channel, so these two ends bound every dephasing channel between
them, the analytic witness included. An assemblage is built only for each
restart's final point.

Two structural facts make the sandwich checks robust by construction: the
reference/classical mixture hits any target violation exactly and sits
below the interpolation upper bound, and the exact extractability of every
candidate is at least the analytic witness channel's fidelity, hence above
the analytic lower bound (up to the constraint residual).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .assemblage import (
    Assemblage,
    ValidationError,
    chsh_reference,
    from_classical,
    random_realization,
    realize,
)
from .fidelity import appendix_b_strategy, extractabilities
from .matkernel import I2, PAULI_X, PAULI_Y, PAULI_Z
from .selftest import analytic_bound, first_interval, upper_bound
from .steering import BETA_CLASSICAL, BETA_QUANTUM


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SearchConfig:
    samples: int = 20
    beta_targets: tuple = (2.1, 2.34, 2.5, 2.7, BETA_QUANTUM)
    rng_seed: int = 20240817
    tolerance: float = 1e-4

    def check(self) -> None:
        if not _is_int(self.samples) or self.samples < 1:
            raise ValidationError(f"samples must be an integer >= 1, got {self.samples!r}")
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
        any other key (including the retired channel_family and
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
# Outer minimization

def _isotropic_elements(v: float, dirs) -> np.ndarray:
    """Assemblage elements from visibility-v isotropic state with projective
    Alice measurements along the given Bloch directions (one per setting).

    sigma_{0|x} = I/4 + v (n_x . sigma)^T / 4; p(a|x) = 1/2 exactly.
    """
    blocks = np.array([v * (n[0] * PAULI_X - n[1] * PAULI_Y + n[2] * PAULI_Z) / 4 for n in dirs])
    return np.array([I2 / 4 + blocks, I2 / 4 - blocks])


def _bloch_from_angles(polar: float, azimuth: float):
    return (
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    )


def _family_params(p):
    """p = (v, polar0, az0, polar1, az1, theta) -> (v, theta, z0, x1) with v
    clamped to [0, 1], theta to [0, pi/2], z0 = cos(polar0) the Z component
    of setting 0's direction and x1 = sin(polar1) cos(az1) the X component
    of setting 1's."""
    v = min(1.0, max(0.0, p[0]))
    theta = min(math.pi / 2, max(0.0, p[5]))
    return v, theta, math.cos(p[1]), math.sin(p[3]) * math.cos(p[4])


def _surrogate(p):
    """(surrogate extractability, CHSH value) at p, in closed form.

    The family's fidelity operator is W = I/4 + (v/8) sum_x (n_x . sigma) (x) P_x
    with P_0 = Z, P_1 = X, so the identity channel scores 1/2 + (v/4)(z0 + x1).
    The full Gamma flip negates the reference axis that Gamma anticommutes
    with: x1 for Gamma = Z (theta <= pi/4), z0 for Gamma = X. Their better
    end is 1/2 + (v/4)(z0 + |x1|) or 1/2 + (v/4)(|z0| + x1), and every
    dephasing channel in between, the analytic witness included, scores no
    higher, since fidelity is linear in the channel."""
    v, theta, z0, x1 = _family_params(p)
    if first_interval(theta):
        score = 0.5 + v / 4 * (z0 + abs(x1))
    else:
        score = 0.5 + v / 4 * (abs(z0) + x1)
    return score, 2 * v * (math.cos(theta) * z0 + math.sin(theta) * x1)


def _family_point(p):
    """p -> (Assemblage, theta, beta) of the isotropic family."""
    v, theta, _, _ = _family_params(p)
    n0 = _bloch_from_angles(p[1], p[2])
    n1 = _bloch_from_angles(p[3], p[4])
    return Assemblage(_isotropic_elements(v, (n0, n1))), theta, _surrogate(p)[1]


def _project_to_beta(p, beta: float):
    """Rescale visibility so the CHSH value matches beta exactly, when the
    current geometry can reach it."""
    _, theta, z0, x1 = _family_params(p)
    g = math.cos(theta) * z0 + math.sin(theta) * x1
    if g > 1e-9 and beta / (2 * g) <= 1.0:
        q = list(p)
        q[0] = beta / (2 * g)
        return q
    return None


def _outer_descent(beta: float, rng: np.random.Generator, tolerance: float):
    """Penalty-based coordinate descent over assemblage parameters and
    theta jointly. The objective is ``_surrogate`` plus penalty *
    (CHSH - beta)^2, where the surrogate is the identity/Gamma-flip
    maximum 1/2 + (v/4)(z0 + |x1|) (Gamma = Z) or 1/2 + (v/4)(|z0| + x1)
    (Gamma = X): by linearity in the channel, no dephasing channel scores
    higher than both ends. Pure ``math``; no assemblage is built. Returns
    the best parameter vector found and the number of objective
    evaluations."""
    p = [
        rng.uniform(0.5, 1.0),
        rng.uniform(0, math.pi),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0, math.pi),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0, math.pi / 2),
    ]
    spans = [0.25, 0.6, 0.6, 0.6, 0.6, 0.4]
    penalty = 100.0
    evaluations = 0

    def objective(q) -> float:
        nonlocal evaluations
        evaluations += 1
        score, b = _surrogate(q)
        return score + penalty * (b - beta) ** 2

    for _escalation in range(4):
        step = 1.0
        current = objective(p)
        while step > 0.02:
            improved = False
            for i in range(6):
                for sign in (1, -1):
                    trial = list(p)
                    trial[i] += sign * step * spans[i]
                    trial_val = objective(trial)
                    if trial_val < current - 1e-12:
                        p, current = trial, trial_val
                        improved = True
            if not improved:
                step *= 0.5
        if abs(_surrogate(p)[1] - beta) < tolerance:
            break
        penalty *= 10.0

    projected = _project_to_beta(p, beta)
    if projected is not None:
        score_u, b_u = _surrogate(p)
        if _surrogate(projected)[0] <= score_u or abs(b_u - beta) >= tolerance:
            return projected, evaluations
    return p, evaluations


def _mixture_candidate(beta: float):
    """Reference mixed with the saturating classical assemblage; hits the
    target violation exactly at theta = pi/4 and certifies the upper side
    of the sandwich."""
    q = (beta - BETA_CLASSICAL) / (BETA_QUANTUM - BETA_CLASSICAL)
    classical = from_classical(appendix_b_strategy())
    asm = chsh_reference().mix(classical, q)
    return asm, math.pi / 4


@dataclass(frozen=True)
class SandwichRecord:
    """One target's outcome. numeric_min is the exact extractability (the
    solver's primal value, within gap of the true value) of the winning
    candidate: "mixture" or "restart k", k indexing the target's
    SeedSequence children. residual is that candidate's |CHSH - beta|.
    evaluations counts the work behind it: "surrogate", the outer-search
    objective evaluations over all restarts, and "exact", the candidates
    admitted (CHSH value in [beta - 1e-12, beta + tolerance)) and solved
    exactly."""

    beta: float
    numeric_min: float
    analytic_lower: float
    eq8_upper: float
    residual: float
    gap: float
    winner: str
    witness: dict = field(repr=False)
    evaluations: dict

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
                        "evaluations": r.evaluations,
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


def min_extractability_at_beta(
    beta: float, cfg: SearchConfig, seed_sequence: np.random.SeedSequence = None
) -> SandwichRecord:
    """Heuristic estimate of the minimum extractability at a fixed CHSH
    value: penalty-descent restarts plus the reference/classical mixture,
    each scored with the exact extractability solve.

    The returned value is an upper estimate of the true minimum (up to the
    solver gap); the certified, falsifiable direction is numeric >=
    analytic bound.
    """
    cfg.check()
    if not BETA_CLASSICAL < beta <= BETA_QUANTUM + 1e-12:
        raise ValidationError(f"beta = {beta} outside (2, 2*sqrt(2)]")
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(cfg.rng_seed)

    candidates = [("mixture",) + _mixture_candidate(beta) + (0.0,)]
    surrogate = 0
    for k, child in enumerate(seed_sequence.spawn(cfg.samples)):
        p, evaluations = _outer_descent(beta, np.random.default_rng(child), cfg.tolerance)
        surrogate += evaluations
        asm, theta, b = _family_point(p)
        candidates.append((f"restart {k}", asm, theta, b - beta))

    # a candidate below the target would report a minimum at a smaller beta
    admitted = [c for c in candidates if -1e-12 <= c[3] < cfg.tolerance]
    best = None
    for (name, asm, theta, residual), (value, channel, gap) in zip(
        admitted, extractabilities([c[1] for c in admitted])
    ):
        if best is None or value < best[0]:
            best = (value, gap, name, residual, asm, theta, channel)

    value, gap, name, residual, asm, theta, channel = best
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
        residual=abs(residual),
        gap=gap,
        winner=name,
        witness=witness,
        evaluations={"surrogate": surrogate, "exact": len(admitted)},
    )


def sandwich_sweep(cfg: SearchConfig) -> SandwichReport:
    """Run min_extractability_at_beta over every target and assemble the
    report; passing means every record satisfies the sandwich invariant."""
    cfg.check()
    root = np.random.SeedSequence(cfg.rng_seed)
    streams = root.spawn(len(cfg.beta_targets))
    records = tuple(
        min_extractability_at_beta(beta, cfg, stream)
        for beta, stream in zip(cfg.beta_targets, streams)
    )
    return SandwichReport(cfg, records)
