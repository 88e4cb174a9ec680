"""Fidelities: between qubit states, between assemblages, the best
fidelity any classical (hidden-state) assemblage reaches with a pure
reference, and the extractability of an assemblage.

Both optima are solved exactly without an SDP solver. The classical one:
for fixed deterministic responses the objective is linear in each hidden
state, so each inner optimum is the top eigenvalue of a response-indexed
operator, attained at the corresponding eigenvector (one stacked
eigendecomposition over the four responses). Extractability: the
best fidelity to the CHSH reference over all channels on Bob's qubit is
linear in the channel's 4x4 Choi matrix, and its dual has three real
parameters, so a short barrier method solves it with a certified gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, ClassicalStrategy, _require_valid, chsh_reference
from .certificate import _ROUNDING, HERMITICITY_TOL, NEWTON_FLOOR, PROB_FLOOR, PURITY_TOL, ValidationError
from .matkernel import I2, I4, PAULI_X, PAULI_Y, PAULI_Z, density_matrix, hermitian_min_eigvals


def state_fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann-Jozsa fidelity, qubit closed form:
    F = tr(rho sigma) + 2 sqrt(det rho * det sigma), for two density
    matrices or for each pair in broadcast (..., 2, 2) stacks."""
    rho = density_matrix(rho, 2, "rho")
    sigma = density_matrix(sigma, 2, "sigma")
    overlap = np.trace(rho @ sigma, axis1=-2, axis2=-1).real
    det_prod = np.maximum(0.0, (np.linalg.det(rho) * np.linalg.det(sigma)).real)
    return np.minimum(1.0, overlap + 2 * np.sqrt(det_prod))


def assemblage_fidelity(ref: Assemblage, other: Assemblage) -> float:
    """Average-over-settings fidelity between assemblages:
    (1/|X|) sum_{a,x} sqrt(p*(a|x) p(a|x)) F(rho*_{a|x}, rho_{a|x}).

    Terms where either probability vanishes contribute zero. The terms are
    summed x-major, one setting after another.
    """
    if ref.elements.shape != other.elements.shape:
        raise ValidationError("assemblages must share |A| and |X|")
    elements = [asm.elements.swapaxes(0, 1) for asm in (ref, other)]  # [x, a]
    p_ref, p = (asm.probabilities().T for asm in (ref, other))
    live = (p_ref >= PROB_FLOOR) & (p >= PROB_FLOOR)
    states_ref, states = (e[live] / q[live, None, None] for e, q in zip(elements, (p_ref, p)))
    terms = np.sqrt(p_ref[live] * p[live]) * state_fidelity(states_ref, states)
    return float(terms.sum()) / ref.settings


def classical_fidelity(ref: Assemblage):
    """Best fidelity of any classical assemblage with a pure two-outcome,
    two-setting reference.

    Each of the four deterministic responses lambda = (lambda_0, lambda_1)
    enters with weight 1/4. Its hidden state enters linearly, so its
    optimum over the density-matrix simplex sits at a pure state: the top
    eigenvector of

        M_lambda = sqrt(2)/(2 * 4) * sum_x sqrt(p*(lambda_x|x)) rho*_{lambda_x|x},

    all four from one stacked eigendecomposition. Returns (value, strategy)
    where the strategy mixes the responses uniformly with the maximizing
    pure hidden states. ValidationError unless the reference is 2x2, passes
    ``validate`` at VALIDITY_TOL, and each element's least eigenvalue, over
    its trace, is 0 within PURITY_TOL (rank 1).
    """
    if ref.elements.shape != (2, 2, 2, 2):
        raise ValidationError("classical fidelity needs a two-setting, two-outcome reference")
    _require_valid(ref)
    probs = ref.probabilities()
    live = probs >= PROB_FLOOR
    least = hermitian_min_eigvals(ref.elements[live] / probs[live, None, None], HERMITICITY_TOL)
    if not (np.abs(least) <= PURITY_TOL).all():
        raise ValidationError("classical_fidelity requires pure (rank-1) reference elements")

    responses = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])  # [lambda, x]
    safe = np.where(live, probs, 1.0)[..., None, None]
    terms = np.where(live[..., None, None], np.sqrt(safe) * (ref.elements / safe), 0)  # [a, x]
    m = terms[responses, [0, 1]].sum(axis=1) * (math.sqrt(2) / (2 * 4))
    vals, vecs = np.linalg.eigh(m)  # Hermitian by construction
    top = vecs[..., -1:]  # [lambda, i, 1]
    hidden = top * top.conj().swapaxes(1, 2)
    return float(vals[:, -1].sum()), ClassicalStrategy(np.full(4, 1 / 4), responses, hidden)


def appendix_b_strategy() -> ClassicalStrategy:
    """Two-state classical strategy saturating the classical fidelity with
    the CHSH-type reference: Alice copies the shared bit, Bob outputs a
    pure state polarized along +-(Z+X)/sqrt(2)."""
    diag = (PAULI_Z + PAULI_X) / math.sqrt(2)
    return ClassicalStrategy(
        weights=np.array([0.5, 0.5]),
        responses=np.array([[0, 0], [1, 1]]),
        hidden_states=np.array([I2 + diag, I2 - diag]) / 2,
    )


@dataclass(frozen=True)
class ExtractionChannel:
    """Qubit channel held as its Choi matrix
    J = sum_ij |i><j| (x) channel(|i><j|), input factor first, so that
    channel(rho) = tr_in[(rho^T (x) I) J].

    A channel is valid when J is PSD and tr_out J = I.
    """

    choi: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """channel(rho), for one 2x2 matrix or each in a (..., 2, 2) stack."""
        return np.einsum("...ij,iajb->...ab", rho, self.choi.reshape(2, 2, 2, 2))

    def dual(self, rho: np.ndarray) -> np.ndarray:
        """The dual (Heisenberg-picture) map, on one 2x2 matrix or a stack."""
        return np.einsum("iajb,...ba->...ji", self.choi.reshape(2, 2, 2, 2), rho)


def _trace_out(choi: np.ndarray) -> np.ndarray:
    """tr_out of a 4x4 Choi matrix."""
    return choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


_REFERENCE = chsh_reference()
_REFERENCE_P = _REFERENCE.probabilities()
_REFERENCE_STATES = _REFERENCE.elements / _REFERENCE_P[..., None, None]
# tr(J W) = sum over (a, x) of (row . v_ax) / sqrt(p(a|x)), row the ``_rows`` floats
# of sigma_{a|x} and v = _REFERENCE_MAP @ J.ravel() read as floats, a * 2 + x major:
# v_ax[j, i] = (sqrt(p*(a|x)) / |X|) sum_cd J[(i, c), (j, d)] conj(rho*_{a|x}[c, d])
_REFERENCE_MAP = np.einsum(
    "ax,axcd,ik,jl->axjikcld", np.sqrt(_REFERENCE_P) / _REFERENCE.settings, _REFERENCE_STATES.conj(), I2, I2
).reshape(16, 16)
_REFERENCE_MAP.flags.writeable = False


def fidelity_operator(asm: Assemblage) -> np.ndarray:
    """The 4x4 operator W with F(reference, channel(asm)) = tr(J W) for any
    channel with Choi matrix J:

        W = (1/|X|) sum_{a,x} sqrt(p*(a|x) / p(a|x)) sigma_{a|x}^T (x) rho*_{a|x}

    where rho* are the CHSH reference's conditional states. The identity
    needs every rho* to be pure. Elements with p(a|x) below PROB_FLOOR
    contribute zero, as in assemblage_fidelity.
    """
    _check_reference_shape(asm)
    p = np.trace(asm.elements, axis1=-2, axis2=-1).real
    live = p >= PROB_FLOOR
    weights = np.where(live, np.sqrt(_REFERENCE_P) / np.sqrt(np.where(live, p, 1.0)), 0.0)
    w = np.einsum("ax,axji,axcd->icjd", weights, asm.elements, _REFERENCE_STATES)
    return w.reshape(4, 4) / _REFERENCE.settings


def _check_reference_shape(asm: Assemblage) -> None:
    if asm.elements.shape != _REFERENCE.elements.shape:
        raise ValidationError("extractability needs a two-setting, two-outcome assemblage")


# Dual slack Z = y I - W + sum_k h_k (sigma_k (x) I); its derivatives in
# the dual variables (y, h_1, h_2, h_3).
_SLACK_BASIS = np.array([I4] + [np.kron(p, I2) for p in (PAULI_X, PAULI_Y, PAULI_Z)])
_H_BASIS = _SLACK_BASIS[1:].reshape(3, 16)  # h -> sum_k h_k (sigma_k (x) I), flattened
# Central-path weights t of the log-det barrier: 1, 1e2, ..., 1e12, then
# 1e13. The point for weight t has duality gap 4/t, so the last stage
# reaches about 1e-13, near the rounding floor of a 4x4 eigendecomposition.
_BARRIER_WEIGHTS = np.append(10.0 ** np.arange(0, 13, 2), 1e13)
_NEWTON_STEPS = 12  # per weight; each step costs one 4x4 eigendecomposition
_EPS = np.finfo(float).eps


def extractability(asm: Assemblage):
    """Best fidelity to the CHSH reference over all channels on Bob's qubit,
    F(reference, channel(asm)), solved as the SDP

        max tr(J W)  s.t.  J >= 0, tr_out J = I,

    with W = fidelity_operator(asm). Returns (value, channel, gap): value =
    tr(J W) is attained by the returned channel, and the extractability
    lies in [value, value + gap]. ValidationError unless asm is two-setting
    and two-outcome and passes ``validate`` at VALIDITY_TOL: the
    extractability is a fidelity in [0, 1] only for a valid assemblage.

    The dual is min 2 lambda_max(W - H (x) I) over traceless Hermitian H:
    three real parameters. It is solved by a log-det barrier method with
    damped Newton steps, which stay in the barrier's domain without a line
    search. There is one stage per barrier weight t = 1, 1e2, ..., 1e12,
    1e13. A stage ends when a step is rejected as out of the domain
    (rounding) or when an accepted step's Newton decrement drops below
    max(NEWTON_FLOOR, sqrt(t eps)), the level under which the objective's
    rounding hides the decrease a step predicts. The work is capped at
    1 + len(_BARRIER_WEIGHTS) * (_NEWTON_STEPS + 1) = 1 + 8 * 13 = 105
    eigendecompositions; the five default sandwich witnesses take 39, 38,
    36, 36 and 36.

    At the end of each stage the primal estimate is rescaled,
    J <- (M (x) I) J (M (x) I)^dagger with M = (tr_out J)^(-1/2), so that
    it is exactly a channel. The solve keeps its best such value and its
    best dual bound.
    """
    w = fidelity_operator(asm)
    _require_valid(asm)
    vals, vecs = np.linalg.eigh(w)
    x = np.zeros(4)  # (y, h): strictly feasible
    x[0] = vals[-1] + 1.0
    dual = 2 * vals[-1]
    value = -math.inf
    choi = np.zeros_like(w)
    for t in _BARRIER_WEIGHTS:
        for _ in range(_NEWTON_STEPS):
            inv = 1 / (x[0] - vals)  # eigenvalues of Z^-1
            basis = vecs.conj().T @ _SLACK_BASIS @ vecs
            grad = -(np.diagonal(basis, axis1=-2, axis2=-1).real @ inv)
            grad[0] += 2 * t
            scaled = inv[:, None] * basis * inv
            hess = (scaled.reshape(4, 16) @ basis.reshape(4, 16).conj().T).real
            step = np.linalg.solve(hess, grad)
            decrement = math.sqrt(max((grad * step).sum(), 0.0))
            trial = x - step / (1 + decrement)
            slack = w - (trial[1:] @ _H_BASIS).reshape(4, 4)
            trial_vals, trial_vecs = np.linalg.eigh(slack)
            if not trial[0] > trial_vals[-1]:  # rounding can push a step out
                break
            x, vals, vecs = trial, trial_vals, trial_vecs
            dual = min(dual, 2 * trial_vals[-1])
            # The barrier objective 2ty - log det Z is about 2t, so it is known
            # only to about t * eps; once the decrement squared (the predicted
            # decrease) is below that, further steps gain nothing.
            if decrement < max(NEWTON_FLOOR, math.sqrt(t * _EPS)):
                break
        j = (vecs / (t * (x[0] - vals))) @ vecs.conj().T
        m_vals, m_vecs = np.linalg.eigh(_trace_out(j))
        m = (m_vecs / np.sqrt(m_vals)) @ m_vecs.conj().T
        m = np.einsum("ij,ab->iajb", m, I2).reshape(4, 4)
        j = m @ j @ m.conj().T
        candidate = np.einsum("ij,ij->", j.conj(), w).real
        if candidate > value:
            value, choi = candidate, j
    gap = max(dual - value, 0.0) + _ROUNDING
    return float(value), ExtractionChannel(choi), float(gap)
