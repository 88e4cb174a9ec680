"""Assemblage data model.

An assemblage is the indexed family {sigma_{a|x}} of subnormalized states of
Bob's qubit conditioned on Alice's setting x and outcome a. This module
builds assemblages from quantum realizations (shared state + Alice POVMs)
and from classical hidden-state strategies, provides the canonical CHSH-type
reference, and validates the defining constraints (positivity, no-signaling,
normalization).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .matkernel import (
    I2,
    I4,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHYSICAL_TOL,
    ValidationError,
    density_matrix,
    hermitian_min_eigvals,
    projector,
)

PROB_FLOOR = 1e-12  # below this, p(a|x) is treated as exactly 0


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Family of subnormalized 2x2 states sigma_{a|x}.

    ``elements[a, x]`` is sigma_{a|x}: a read-only complex array of shape
    (outcomes, settings, 2, 2) with finite entries; p(a|x) is the trace of
    ``elements[a, x]``.
    """

    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        elements = np.array(self.elements, dtype=complex)
        if elements.ndim != 4 or elements.shape[2:] != (2, 2) or 0 in elements.shape:
            raise ValidationError(
                f"assemblage elements must be an (outcomes, settings, 2, 2) array, got shape {elements.shape}"
            )
        finite = np.isfinite(elements)
        if not finite.all():
            nonfinite = [(int(a), int(x)) for a, x in np.argwhere(~finite.all(axis=(2, 3)))]
            raise ValidationError(f"non-finite entries in sigma_(a|x) for (a, x) in {nonfinite}")
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def settings(self) -> int:
        return self.elements.shape[1]

    def max_marginal_deviation(self) -> float:
        """max_{a,x} |p(a|x) - 1/|A||; zero for uniform-marginal assemblages."""
        probs = np.trace(self.elements, axis1=2, axis2=3).real
        return float(np.abs(probs - 1.0 / self.outcomes).max())

    def mix(self, other: "Assemblage", weight: float) -> "Assemblage":
        """Convex mixture weight*self + (1-weight)*other."""
        if self.elements.shape != other.elements.shape:
            raise ValidationError("cannot mix assemblages of different shape")
        return Assemblage(weight * self.elements + (1 - weight) * other.elements)

    def to_dict(self) -> dict:
        """The JSON object of ``to_json``, as Python lists and numbers."""
        return {
            "outcomes": self.outcomes,
            "settings": self.settings,
            "elements": [
                {
                    "a": a,
                    "x": x,
                    "re": self.elements[a, x].real.tolist(),
                    "im": self.elements[a, x].imag.tolist(),
                }
                for a in range(self.outcomes)
                for x in range(self.settings)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "Assemblage":
        """Parse the ``to_json`` format; ValidationError unless every key is
        present, typed, in range, 2x2 and finite, one element per (a, x)."""
        payload = json.loads(text)
        outcomes = _json_field(payload, "outcomes", int)
        settings = _json_field(payload, "settings", int)
        entries = _json_field(payload, "elements", list)
        if min(outcomes, settings) < 1 or len(entries) != outcomes * settings:
            raise ValidationError(f"need one element per (a, x), {outcomes} x {settings}")
        elements = np.zeros((outcomes, settings, 2, 2), dtype=complex)
        seen = set()
        for entry in entries:
            a, x = _json_field(entry, "a", int), _json_field(entry, "x", int)
            if (a, x) in seen or not (0 <= a < outcomes and 0 <= x < settings):
                raise ValidationError(f"element (a, x) = ({a}, {x}) is out of range or repeated")
            seen.add((a, x))
            elements[a, x] = json_matrix(entry)
        return Assemblage(elements)


def _json_field(obj, key: str, kind: type):
    """obj[key], which must exist and be exactly a ``kind`` (so no bool for int)."""
    if not isinstance(obj, dict) or type(obj.get(key)) is not kind:
        raise ValidationError(f"expected a JSON object with a {kind.__name__} {key!r}")
    return obj[key]


def _json_real(entry: dict, key: str, size: int) -> np.ndarray:
    rows = _json_field(entry, key, list)
    values = [v for row in rows if type(row) is list and len(row) == size for v in row]
    finite = all(type(v) in (int, float) and abs(v) < 1e308 for v in values)  # no NaN, inf, huge int
    if len(rows) != size or len(values) != size * size or not finite:
        raise ValidationError(f"{key!r} must be a {size}x{size} list of finite numbers")
    return np.array(rows, dtype=float)


def json_matrix(entry, size: int = 2) -> np.ndarray:
    """The complex size x size matrix held in a JSON object's "re" and "im"
    row lists; ValidationError unless both are size x size and finite."""
    return _json_real(entry, "re", size) + 1j * _json_real(entry, "im", size)


@dataclass(frozen=True)
class QuantumRealization:
    """Shared two-qubit state plus Alice's POVMs {M_{a|x}}."""

    state: np.ndarray
    alice_povms: dict  # x -> list over a of 2x2 POVM elements

    def check(self) -> tuple:
        """ValidationError unless the state is a 4x4 density matrix and the
        POVMs are valid; returns the state as a complex array and the POVMs
        stacked as M[x, a]."""
        state = density_matrix(_numeric_array(self.state, "shared state"), 4, "shared state")
        counts = {len(self.alice_povms.get(x, ())) for x in range(len(self.alice_povms))}
        if len(counts) != 1 or 0 in counts:
            raise ValidationError("POVMs must be keyed by settings 0, 1, ... with one common outcome count")
        povms = _numeric_array([self.alice_povms[x] for x in range(len(self.alice_povms))], "POVMs")
        if povms.shape[2:] != (2, 2):
            raise ValidationError(f"POVM elements must be 2x2, got shape {povms.shape[2:]}")
        for x in np.flatnonzero(np.abs(povms.sum(axis=1) - I2).max(axis=(1, 2)) > PHYSICAL_TOL):
            raise ValidationError(f"POVM for setting {x} does not sum to identity")
        for x, a in np.argwhere(hermitian_min_eigvals(povms, PHYSICAL_TOL) < -PHYSICAL_TOL):
            raise ValidationError(f"POVM element ({a}|{x}) is not PSD")
        return state, povms


def _numeric_array(value, name: str, dtype=complex) -> np.ndarray:
    """value as an ndarray of ``dtype``; ValidationError if it is ragged or not numeric."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{name} must be a numeric array") from err


@dataclass(frozen=True, eq=False)
class ClassicalStrategy:
    """Hidden-variable strategy over L values of lambda for two outcomes and
    two settings: weights p(lambda), deterministic responses
    a = responses[lambda, x], and hidden states rho_lambda."""

    weights: np.ndarray  # (L,) probabilities
    responses: np.ndarray  # (L, 2) outcomes, each 0 or 1
    hidden_states: np.ndarray  # (L, 2, 2) density matrices

    def check(self) -> tuple:
        """ValidationError unless the weights are a probability vector, the
        responses an (L, 2) array of 0s and 1s and the hidden states L
        density matrices; returns the three as arrays (responses as ints)."""
        weights = _numeric_array(self.weights, "strategy weights", float)
        if weights.ndim != 1 or not (weights >= -PROB_FLOOR).all():  # NaN fails too
            raise ValidationError("strategy weights must be a vector of nonnegative numbers")
        if not abs(weights.sum() - 1) <= 1e-12:
            raise ValidationError("strategy weights must sum to 1")
        responses = _numeric_array(self.responses, "strategy responses", float)
        if responses.shape != (len(weights), 2) or not np.isin(responses, (0, 1)).all():
            raise ValidationError(f"strategy responses must be an (L, 2) array of 0s and 1s, L = {len(weights)}")
        hidden = density_matrix(_numeric_array(self.hidden_states, "hidden states"), 2, "hidden state")
        if hidden.shape != (len(weights), 2, 2):
            raise ValidationError("strategy needs one hidden state for every weight")
        return weights, responses.astype(int), hidden


@dataclass(frozen=True)
class ValidationReport:
    psd_margin: float  # most negative eigenvalue across elements (>= 0 is clean)
    no_signaling_deviation: float
    normalization_deviation: float
    tol: float
    hermitian: bool = True  # every element within tol of its adjoint

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list:
        """One line per violated constraint; a NaN deviation (overflow) fails."""
        out = []
        if not self.hermitian:
            out.append(f"Hermiticity violated: a sigma_(a|x) differs from its adjoint by more than {self.tol:.3g}")
        elif not self.psd_margin >= -self.tol:
            out.append(f"positivity violated: min eigenvalue {self.psd_margin:.3e}")
        if not self.no_signaling_deviation <= self.tol:
            out.append(
                f"no-signaling violated: deviation {self.no_signaling_deviation:.3e}"
            )
        if not self.normalization_deviation <= self.tol:
            out.append(
                f"normalization violated: deviation {self.normalization_deviation:.3e}"
            )
        return out


def realize(r: QuantumRealization) -> Assemblage:
    """sigma_{a|x} = tr_A[(M_{a|x} x I) rho_AB] for every (a, x), in one
    contraction: sigma_{a|x}[b, c] = sum_ij M_{a|x}[i, j] rho[(j, b), (i, c)]."""
    state, povms = r.check()
    elements = np.einsum("xaij,jbic->axbc", povms, state.reshape(2, 2, 2, 2))
    return _require_valid(Assemblage(elements), 1e-9)


def _require_valid(asm: Assemblage, tol: float) -> Assemblage:
    report = validate(asm, tol)
    if not report.passed:
        raise ValidationError("; ".join(report.failures()))
    return asm


def chsh_reference() -> Assemblage:
    """The CHSH-type reference: Z/X measurements on the maximally
    entangled pair, all outcome probabilities 1/2."""
    kets = ((KET0, KET_PLUS), (KET1, KET_MINUS))  # [a][x]
    return Assemblage([[projector(k) / 2 for k in row] for row in kets])


def from_classical(s: ClassicalStrategy) -> Assemblage:
    """sigma_{a|x} = sum_lambda p(lambda) [responses[lambda, x] = a] rho_lambda,
    two outcomes and two settings, in one contraction over lambda."""
    weights, responses, hidden = s.check()
    chosen = np.eye(2)[responses]  # [lambda, x, a]: 1 where a is the response
    return _require_valid(Assemblage(np.einsum("l,lxa,lij->axij", weights, chosen, hidden)), 1e-10)


def validate(asm: Assemblage, tol: float = 1e-10) -> ValidationReport:
    """Report PSD margins and no-signaling and normalization deviations
    (every entry is finite: ``Assemblage`` refuses the rest). An assemblage
    with an element that is not Hermitian within tol fails, with no PSD
    margin (NaN)."""
    try:
        psd_margin, hermitian = float(hermitian_min_eigvals(asm.elements, tol).min()), True
    except ValidationError:
        psd_margin, hermitian = math.nan, False
    marginals = asm.elements.sum(axis=0)  # Bob's marginal for each setting
    return ValidationReport(
        psd_margin=psd_margin,
        no_signaling_deviation=float(np.abs(marginals - marginals[0]).max()),
        normalization_deviation=float(np.abs(np.trace(marginals, axis1=1, axis2=2).real - 1).max()),
        tol=tol,
        hermitian=hermitian,
    )


# ---------------------------------------------------------------------------
# Random sampling

def _haar_unitary_2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_bloch(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _bloch_projectors(n: np.ndarray):
    m0 = (I2 + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z) / 2
    return [m0, I2 - m0]


def random_realization(
    rng: np.random.Generator,
    projective: bool = True,
    uniform_marginals: bool = False,
) -> QuantumRealization:
    """Sample a valid two-qubit realization.

    Default: Haar-random pure state mixed with white noise at random
    visibility, Alice measuring random rank-1 projective pairs (or random
    two-outcome POVMs when ``projective`` is off). With ``uniform_marginals``
    the pure state is a rotated maximally entangled pair, which pins every
    p(a|x) to 1/2 for projective measurements.
    """
    if uniform_marginals:
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        u = np.kron(_haar_unitary_2(rng), _haar_unitary_2(rng))
        psi = u @ phi
    else:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
    v = rng.uniform(0.0, 1.0)
    state = v * np.outer(psi, psi.conj()) + (1 - v) * I4 / 4

    povms = {}
    for x in range(2):
        if projective or uniform_marginals:
            povms[x] = _bloch_projectors(_random_bloch(rng))
        else:
            u = _haar_unitary_2(rng)
            m0 = u @ np.diag(rng.uniform(0, 1, size=2)) @ u.conj().T
            povms[x] = [m0, I2 - m0]
    return QuantumRealization(state, povms)
