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
from functools import cached_property
from operator import add, sub

import numpy as np

from .certificate import CHSH_RESIDUE_TOL, PROB_FLOOR, VALIDITY_TOL, WEIGHT_SUM_TOL, ValidationError, parse_json
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
    PHI_PLUS,
    _largest,
    _measures_2x2,
    _moduli,
    _pauli_rows,
    _row,
    _smallest,
    density_matrix,
    hermitian_min_eigvals,
    projector,
)


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Family of subnormalized 2x2 states sigma_{a|x}.

    ``elements[a, x]`` is sigma_{a|x}: a read-only complex array of shape
    (outcomes, settings, 2, 2) with finite entries; p(a|x), the trace of
    ``elements[a, x]``, is ``probabilities()[a, x]``. The constructor
    copies what it is given into an immutable ``bytes`` buffer and keeps a
    view of it, so neither a caller nor a holder of the assemblage can
    write the elements: numpy refuses to turn writes on for that view and
    for its base. So what is read from them cannot go stale and is kept:
    ``_pauli``, their Pauli rows (``matkernel._pauli_rows``; row a * settings
    + x is sigma_{a|x}), ``validate``'s measures and the CHSH pair.
    """

    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        given = np.asarray(self.elements, dtype=complex)
        if given.ndim != 4 or given.shape[2:] != (2, 2) or 0 in given.shape:
            raise ValidationError(
                f"assemblage elements must be an (outcomes, settings, 2, 2) array, got shape {given.shape}"
            )
        elements = np.frombuffer(given.tobytes(), complex).reshape(given.shape)
        rows = _pauli_rows(elements)
        nonfinite = [divmod(k, given.shape[1]) for k, row in enumerate(rows) if not all(map(math.isfinite, row))]
        if nonfinite:
            raise ValidationError(f"non-finite entries in sigma_(a|x) for (a, x) in {nonfinite}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_pauli", rows)

    @property
    def outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def settings(self) -> int:
        return self.elements.shape[1]

    def probabilities(self) -> np.ndarray:
        """p(a|x) = tr sigma_{a|x}, as an (outcomes, settings) array."""
        return np.trace(self.elements, axis1=2, axis2=3).real

    @cached_property
    def _measures(self) -> tuple:
        """``validate``'s measures, none of which depends on a tolerance, read from ``_pauli``: the largest
        |M - M^dagger| entry and the least alpha - |(x, y, z)| (``matkernel._measures_2x2``), no-signaling
        (each Bob's marginal less the first, entry by entry) and normalization (2 alpha against 1)."""
        rows, settings = self._pauli, self.settings
        (deviations, lower), marginals = _measures_2x2(rows), list(rows[:settings])
        for k in range(settings, len(rows)):  # Bob's marginal for each setting, summed over a in order
            marginals[k % settings] = _row(map(add, marginals[k % settings], rows[k]))
        gaps = [gap for m in marginals for gap in _moduli(*map(sub, m, marginals[0]))]
        normalization = [abs(2 * m.alpha - 1) for m in marginals]
        return _largest(deviations), _smallest(lower), _largest(gaps), _largest(normalization)

    @cached_property
    def _chsh(self) -> tuple:
        """The CHSH pair (u, w) of ``_coefficients``, kept like ``_measures``;
        a refusal keeps nothing, so every read raises it again."""
        if self.outcomes != 2 or self.settings != 2:
            raise ValidationError("CHSH functional requires |A| = |X| = 2")
        return _coefficients(self._pauli)

    def max_marginal_deviation(self) -> float:
        """max_{a,x} |p(a|x) - 1/|A||, p(a|x) = 2 alpha of sigma_{a|x}'s Pauli
        row; zero for uniform-marginal assemblages. Finite entries give no NaN."""
        uniform = 1.0 / self.outcomes
        return max(abs(2 * row.alpha - uniform) for row in self._pauli)

    def mix(self, other: "Assemblage", weight: float) -> "Assemblage":
        """Convex mixture weight*self + (1-weight)*other. ValidationError
        unless weight is in [0, 1] (NaN is not): any other weight gives an
        affine combination, which need not be an assemblage."""
        if self.elements.shape != other.elements.shape:
            raise ValidationError("cannot mix assemblages of different shape")
        if not 0 <= weight <= 1:
            raise ValidationError(f"mixture weight {weight} outside [0, 1]")
        return Assemblage(weight * self.elements + (1 - weight) * other.elements)

    def to_dict(self) -> dict:
        """The JSON object of ``to_json``, as Python lists and numbers."""
        re, im = self.elements.real.tolist(), self.elements.imag.tolist()
        return {
            "outcomes": self.outcomes,
            "settings": self.settings,
            "elements": [
                {"a": a, "x": x, "re": re[a][x], "im": im[a][x]}
                for a in range(self.outcomes)
                for x in range(self.settings)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "Assemblage":
        """Parse the ``to_json`` format; ValidationError unless every key is
        present, typed, in range, 2x2 and finite, one element per (a, x).
        The elements hold the document's floats bit for bit, -0.0 too."""
        payload = parse_json(text)
        outcomes = _json_field(payload, "outcomes", int)
        settings = _json_field(payload, "settings", int)
        entries = _json_field(payload, "elements", list)
        if min(outcomes, settings) < 1 or len(entries) != outcomes * settings:
            raise ValidationError(f"need one element per (a, x), {outcomes} x {settings}")
        parts = [None] * (8 * len(entries))  # (a, x) in order, each in numpy's complex layout: Re, Im per entry
        for entry in entries:  # _reals refuses a None left, or the str of a string or object read as a pair
            try:
                a, x, ((r0, r1), (r2, r3)), ((i0, i1), (i2, i3)) = entry["a"], entry["x"], entry["re"], entry["im"]
            except (KeyError, TypeError, ValueError):
                break
            if not (type(a) is type(x) is int and 0 <= a < outcomes and 0 <= x < settings):
                break
            k = 8 * (a * settings + x)  # a repeated (a, x) leaves another one's Nones
            parts[k : k + 8] = r0, i0, r1, i1, r2, i2, r3, i3
        reals = _reals(parts)
        if reals is None:  # some key is bad: scan the entries in order and name the first
            seen, values = set(), []
            for entry in entries:
                a, x = _json_field(entry, "a", int), _json_field(entry, "x", int)
                if not (0 <= a < outcomes and 0 <= x < settings) or (a, x) in seen:
                    raise ValidationError(f"element (a, x) = ({a}, {x}) is out of range or repeated")
                seen.add((a, x))
                _json_rows(entry, "re", 2, values)
                _json_rows(entry, "im", 2, values)
            raise _value_error(values, 2)
        return Assemblage(reals.view(complex).reshape(outcomes, settings, 2, 2))


def _coefficients(rows):
    """(u, w) with beta(theta) = u cos(theta) + w sin(theta): u = 2 tr[Z(sigma_00 - sigma_10)] = 4 (z_00 - z_10)
    and w = 2 tr[X(sigma_01 - sigma_11)] = 4 (x_01 - x_11) from ``rows``, the Pauli rows of sigma_00, sigma_01,
    sigma_10 and sigma_11, with imaginary residues the same differences of z_i and x_i. ValidationError unless
    u and w are finite, each with a residue of at most CHSH_RESIDUE_TOL. The one reader of the CHSH value."""
    s00, s01, s10, s11 = rows
    u, u_im = 4 * (s00.z - s10.z), 4 * (s00.z_i - s10.z_i)
    w, w_im = 4 * (s01.x - s11.x), 4 * (s01.x_i - s11.x_i)
    if not all(map(math.isfinite, (u, u_im, w, w_im))):
        raise ValidationError(f"CHSH coefficients not finite: u = {complex(u, u_im)}, w = {complex(w, w_im)}")
    residue = max(abs(u_im), abs(w_im))
    if residue > CHSH_RESIDUE_TOL:
        raise ValidationError(f"functional has imaginary residue {residue:.3e}")
    return u, w


def _json_field(obj, key: str, kind: type):
    """obj[key], which must exist and be exactly a ``kind`` (so no bool for int)."""
    if not isinstance(obj, dict) or type(obj.get(key)) is not kind:
        raise ValidationError(f"expected a JSON object with a {kind.__name__} {key!r}")
    return obj[key]


def _reals(values: list):
    """``values`` as one float array, or None unless every value is an int
    or a float (no bool) of magnitude below 1e308 (no NaN, inf or huge
    int): one pass checks the type and the magnitude of each."""
    try:
        real = all(type(v) in (int, float) and abs(float(v)) < 1e308 for v in values)
    except OverflowError:  # an int beyond the float range
        real = False
    return np.array(values, dtype=float) if real else None


def _json_rows(entry, key: str, size: int, values: list) -> None:
    """Append the values of entry[key], row by row, to ``values``;
    ValidationError unless it is a size x size list of lists."""
    rows = _json_field(entry, key, list)
    if len(rows) != size:
        raise _matrix_error(key, size)
    for row in rows:
        if type(row) is not list or len(row) != size:
            raise _matrix_error(key, size)
        values += row


def _value_error(values: list, size: int) -> ValidationError:
    """The error naming the key of the first value that ``_reals`` refuses
    in ``values``, collected by ``_json_rows`` for "re" then "im" of each matrix."""
    bad = next(i for i, v in enumerate(values) if _reals([v]) is None)
    return _matrix_error(("re", "im")[bad // (size * size) % 2], size)


def _matrix_error(key: str, size: int) -> ValidationError:
    return ValidationError(f"{key!r} must be a {size}x{size} list of finite numbers")


def json_matrix(entry, size: int = 2) -> np.ndarray:
    """The complex size x size matrix held in a JSON object's "re" and "im"
    row lists; ValidationError unless both are size x size and finite."""
    values = []
    _json_rows(entry, "re", size, values)
    _json_rows(entry, "im", size, values)
    reals = _reals(values)
    if reals is None:
        raise _value_error(values, size)
    re, im = reals.reshape(2, size, size)
    return re + 1j * im


@dataclass(frozen=True)
class QuantumRealization:
    """Shared two-qubit state plus Alice's POVMs {M_{a|x}}."""

    state: np.ndarray
    povms: np.ndarray  # M[x, a]: (settings, outcomes, 2, 2)

    def check(self) -> tuple:
        """ValidationError unless the state is a 4x4 density matrix and the
        POVMs a numeric (settings, outcomes, 2, 2) array, no axis empty, of
        valid POVMs; returns the state and the POVMs as complex arrays."""
        state = density_matrix(_numeric_array(self.state, "shared state"), 4, "shared state")
        povms = _numeric_array(self.povms, "POVMs")
        if povms.ndim != 4 or povms.shape[2:] != (2, 2) or 0 in povms.shape:
            raise ValidationError(f"POVMs must be a (settings, outcomes, 2, 2) array, got shape {povms.shape}")
        for x in np.flatnonzero(np.abs(povms.sum(axis=1) - I2).max(axis=(1, 2)) > VALIDITY_TOL):
            raise ValidationError(f"POVM for setting {x} does not sum to identity")
        for x, a in np.argwhere(hermitian_min_eigvals(povms, VALIDITY_TOL) < -VALIDITY_TOL):
            raise ValidationError(f"POVM element ({a}|{x}) is not PSD")
        return state, povms


def _numeric_array(value, name: str, dtype=complex) -> np.ndarray:
    """value as an ndarray of ``dtype``; ValidationError if it is ragged or not numeric."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"{name} must be a numeric array (no ragged lists)") from err


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
        if not abs(weights.sum() - 1) <= WEIGHT_SUM_TOL:
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
            out.append(f"no-signaling violated: deviation {self.no_signaling_deviation:.3e}")
        if not self.normalization_deviation <= self.tol:
            out.append(f"normalization violated: deviation {self.normalization_deviation:.3e}")
        return out


def realize(r: QuantumRealization) -> Assemblage:
    """sigma_{a|x} = tr_A[(M_{a|x} x I) rho_AB] for every (a, x), in one
    contraction: sigma_{a|x}[b, c] = sum_ij M_{a|x}[i, j] rho[(j, b), (i, c)]."""
    state, povms = r.check()
    elements = np.einsum("xaij,jbic->axbc", povms, state.reshape(2, 2, 2, 2))
    return _require_valid(Assemblage(elements))


def _require_valid(asm: Assemblage) -> Assemblage:
    """asm, or ValidationError with ``validate``'s failure lines: the one
    rule, at VALIDITY_TOL, for every assemblage the package issues or
    certifies."""
    report = validate(asm)
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
    return _require_valid(Assemblage(np.einsum("l,lxa,lij->axij", weights, chosen, hidden)))


def validate(asm: Assemblage, tol: float = VALIDITY_TOL) -> ValidationReport:
    """Report PSD margins and no-signaling and normalization deviations
    (every entry is finite: ``Assemblage`` refuses the rest). An assemblage
    with an element that is not Hermitian within tol fails, with no PSD
    margin (NaN). Each call compares the assemblage's kept measures
    (``Assemblage._measures``, read once as Python floats; none depends on
    ``tol``) with its own ``tol``, so no earlier call at another tolerance
    changes a report. An overflow to NaN still fails."""
    deviation, least, no_signaling, normalization = asm._measures
    hermitian = deviation <= tol  # NaN fails
    return ValidationReport(least if hermitian else math.nan, no_signaling, normalization, tol, hermitian)


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
        u = np.kron(_haar_unitary_2(rng), _haar_unitary_2(rng))
        psi = u @ PHI_PLUS
    else:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
    v = rng.uniform(0.0, 1.0)
    state = v * np.outer(psi, psi.conj()) + (1 - v) * I4 / 4

    povms = []
    for _ in range(2):
        if projective or uniform_marginals:
            povms.append(_bloch_projectors(_random_bloch(rng)))
        else:
            u = _haar_unitary_2(rng)
            m0 = u @ np.diag(rng.uniform(0, 1, size=2)) @ u.conj().T
            povms.append([m0, I2 - m0])
    return QuantumRealization(state, povms)
