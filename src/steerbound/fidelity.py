"""Fidelities: between qubit states, between assemblages, the best
fidelity any classical (hidden-state) assemblage reaches with a pure
reference, and the extractability of an assemblage.

Both optima are solved exactly without an SDP solver. The classical one:
for fixed deterministic responses the objective is linear in each hidden
state, so each inner optimum is the top eigenvalue of a response-indexed
operator, attained at the corresponding eigenvector. Extractability: the
best fidelity to the CHSH reference over all channels on Bob's qubit is
linear in the channel's 4x4 Choi matrix, and its dual has three real
parameters, so a short barrier method solves it with a certified gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assemblage import (
    Assemblage,
    ClassicalStrategy,
    PROB_FLOOR,
    chsh_reference,
    from_classical,
)
from .matkernel import (
    I2,
    I4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ValidationError,
    eigh_hermitian,
    eigvals_hermitian,
    min_eigval,
    symmetrize,
)


def _check_density(rho: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError(f"{name} must be a 2x2 matrix")
    if abs(np.trace(rho).real - 1) > tol:
        raise ValidationError(f"{name} must have unit trace")
    if min_eigval(symmetrize(rho)) < -tol:
        raise ValidationError(f"{name} must be PSD")
    return rho


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity, qubit closed form:
    F = tr(rho sigma) + 2 sqrt(det rho * det sigma)."""
    rho = _check_density(rho, "rho")
    sigma = _check_density(sigma, "sigma")
    overlap = float(np.trace(rho @ sigma).real)
    det_prod = max(0.0, float((np.linalg.det(rho) * np.linalg.det(sigma)).real))
    return min(1.0, overlap + 2 * math.sqrt(det_prod))


def assemblage_fidelity(ref: Assemblage, other: Assemblage) -> float:
    """Average-over-settings fidelity between assemblages:
    (1/|X|) sum_{a,x} sqrt(p*(a|x) p(a|x)) F(rho*_{a|x}, rho_{a|x}).

    Terms where either probability vanishes contribute zero.
    """
    if (ref.outcomes, ref.settings) != (other.outcomes, other.settings):
        raise ValidationError("assemblages must share |A| and |X|")
    total = 0.0
    for x in range(ref.settings):
        for a in range(ref.outcomes):
            p_ref = ref.prob(a, x)
            p = other.prob(a, x)
            if p_ref < PROB_FLOOR or p < PROB_FLOOR:
                continue
            total += math.sqrt(p_ref * p) * state_fidelity(
                ref.conditional_state(a, x), other.conditional_state(a, x)
            )
    return total / ref.settings


def classical_fidelity(ref: Assemblage):
    """Best fidelity of any classical assemblage with a pure reference.

    Enumerates all |A|^|X| deterministic responses lambda. Each hidden
    state enters linearly, so its optimum over the density-matrix simplex
    sits at a pure state: the top eigenvector of

        M_lambda = sqrt(|A|)/(|X| |A|^|X|) * sum_x sqrt(p*(lambda_x|x)) rho*_{lambda_x|x}.

    Returns (value, strategy) where the strategy mixes all responses
    uniformly with the maximizing pure hidden states.
    """
    n_a, n_x = ref.outcomes, ref.settings
    for x in range(n_x):
        for a in range(n_a):
            if ref.prob(a, x) < PROB_FLOOR:
                continue
            evs = eigvals_hermitian(ref.conditional_state(a, x))
            if evs[0] > 1e-9:
                raise ValidationError(
                    "classical_fidelity requires pure (rank-1) reference elements"
                )

    responses = list(itertools.product(range(n_a), repeat=n_x))
    prefactor = math.sqrt(n_a) / (n_x * len(responses))
    value = 0.0
    weights, response, hidden = {}, {}, {}
    for lam, resp in enumerate(responses):
        m = np.zeros((2, 2), dtype=complex)
        for x, a in enumerate(resp):
            p = ref.prob(a, x)
            if p >= PROB_FLOOR:
                m += math.sqrt(p) * ref.conditional_state(a, x)
        m *= prefactor
        vals, vecs = eigh_hermitian(m)
        value += float(vals[-1])
        top = vecs[:, -1]
        weights[lam] = 1.0 / len(responses)
        hidden[lam] = np.outer(top, top.conj())
        for x, a in enumerate(resp):
            response[(lam, x)] = a
    return value, ClassicalStrategy(weights, response, hidden)


def appendix_b_strategy() -> ClassicalStrategy:
    """Two-state classical strategy saturating the classical fidelity with
    the CHSH-type reference: Alice copies the shared bit, Bob outputs a
    pure state polarized along +-(Z+X)/sqrt(2)."""
    diag = (PAULI_Z + PAULI_X) / math.sqrt(2)
    rho_plus = (I2 + diag) / 2
    rho_minus = (I2 - diag) / 2
    return ClassicalStrategy(
        weights={0: 0.5, 1: 0.5},
        response={(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1},
        hidden_states={0: rho_plus, 1: rho_minus},
    )


@dataclass(frozen=True)
class ExtractionChannel:
    """Qubit channel held as its Choi matrix
    J = sum_ij |i><j| (x) channel(|i><j|), input factor first, so that
    channel(rho) = tr_in[(rho^T (x) I) J].

    A channel is valid when J is PSD and tr_out J = I.
    """

    choi: np.ndarray
    clamped: bool = False  # set when a dephasing parameter was clipped

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("ij,iajb->ab", rho, self.choi.reshape(2, 2, 2, 2))

    def dual(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("iajb,ba->ji", self.choi.reshape(2, 2, 2, 2), rho)

    def apply_elementwise(self, asm: Assemblage) -> Assemblage:
        return Assemblage(
            asm.outcomes,
            asm.settings,
            {k: self.apply(m) for k, m in asm.elements.items()},
        )


def _trace_out(choi: np.ndarray) -> np.ndarray:
    return choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


_REFERENCE = chsh_reference()
_REFERENCE_KEYS = sorted(_REFERENCE.elements)
_REFERENCE_SQRT_P = np.sqrt([_REFERENCE.prob(*key) for key in _REFERENCE_KEYS])
_REFERENCE_STATES = np.array([_REFERENCE.conditional_state(*key) for key in _REFERENCE_KEYS])


def fidelity_operator(asm: Assemblage) -> np.ndarray:
    """The 4x4 operator W with F(reference, channel(asm)) = tr(J W) for any
    channel with Choi matrix J:

        W = (1/|X|) sum_{a,x} sqrt(p*(a|x) / p(a|x)) sigma_{a|x}^T (x) rho*_{a|x}

    where rho* are the CHSH reference's conditional states. The identity
    needs every rho* to be pure. Elements with p(a|x) below PROB_FLOOR
    contribute zero, as in assemblage_fidelity.
    """
    if (asm.outcomes, asm.settings) != (_REFERENCE.outcomes, _REFERENCE.settings):
        raise ValidationError("extractability needs a two-setting, two-outcome assemblage")
    sigmas = np.array([asm.elements[key] for key in _REFERENCE_KEYS], dtype=complex)
    if not np.all(np.isfinite(sigmas)):
        raise ValidationError("assemblage has non-finite entries")
    p = np.trace(sigmas, axis1=1, axis2=2).real
    live = p >= PROB_FLOOR
    weights = np.where(live, _REFERENCE_SQRT_P / np.sqrt(np.where(live, p, 1.0)), 0.0)
    w = np.einsum("k,kji,kab->iajb", weights, sigmas, _REFERENCE_STATES)
    return w.reshape(4, 4) / _REFERENCE.settings


# Dual slack Z = y I - W + sum_k h_k (sigma_k (x) I); its derivatives in
# the dual variables (y, h_1, h_2, h_3).
_SLACK_BASIS = np.array([I4] + [np.kron(p, I2) for p in (PAULI_X, PAULI_Y, PAULI_Z)])
# Central-path weights t of the log-det barrier. The point for weight t has
# duality gap 4/t, so the last stage reaches about 1e-13, near the rounding
# floor of a 4x4 eigendecomposition.
_BARRIER_WEIGHTS = 10.0 ** np.arange(14)
_NEWTON_STEPS = 12  # per weight; each step costs one 4x4 eigendecomposition
_ROUNDING = 1e-14  # allowance for the rounding in the two bounds


def extractability(asm: Assemblage):
    """Best fidelity to the CHSH reference over all channels on Bob's qubit,
    F(reference, channel(asm)), solved as the SDP

        max tr(J W)  s.t.  J >= 0, tr_out J = I,

    with W = fidelity_operator(asm). The dual is min 2 lambda_max(W - H (x) I)
    over traceless Hermitian H: three real parameters. It is solved by a
    log-det barrier method with damped Newton steps, which stay in the
    barrier's domain without a line search; the work is capped at
    1 + len(_BARRIER_WEIGHTS) * _NEWTON_STEPS 4x4 eigendecompositions.

    At the end of each stage the barrier's primal estimate is rescaled,
    J <- (M (x) I) J (M (x) I)^dagger with M = (tr_out J)^(-1/2), so that
    it is exactly a channel. The best such value is returned with the
    best dual bound seen.

    Returns (value, channel, gap): value = tr(J W) is attained by the
    returned channel, and the extractability lies in [value, value + gap].
    """
    w = fidelity_operator(asm)
    vals, vecs = np.linalg.eigh(w)
    x = np.array([vals[-1] + 1.0, 0.0, 0.0, 0.0])  # (y, h): strictly feasible
    dual = 2 * vals[-1]
    value, choi = -math.inf, None
    for t in _BARRIER_WEIGHTS:
        for _ in range(_NEWTON_STEPS):
            inv = 1 / (x[0] - vals)  # eigenvalues of Z^-1
            basis = vecs.conj().T @ _SLACK_BASIS @ vecs
            grad = -np.diagonal(basis, axis1=1, axis2=2).real @ inv
            grad[0] += 2 * t
            scaled = inv[:, None] * basis * inv[None, :]
            hess = (scaled.reshape(4, 16) @ basis.reshape(4, 16).conj().T).real
            step = np.linalg.solve(hess, grad)
            decrement = math.sqrt(max(float(grad @ step), 0.0))
            trial = x - step / (1 + decrement)
            trial_vals, trial_vecs = np.linalg.eigh(
                w - np.tensordot(trial[1:], _SLACK_BASIS[1:], axes=1)
            )
            if not trial[0] > trial_vals[-1]:
                break  # rounding pushed the step out of the domain
            x, vals, vecs = trial, trial_vals, trial_vecs
            dual = min(dual, 2 * vals[-1])
            if decrement < 1e-7:
                break
        j = (vecs / (t * (x[0] - vals))) @ vecs.conj().T
        m_vals, m_vecs = np.linalg.eigh(_trace_out(j))
        m = np.kron((m_vecs / np.sqrt(m_vals)) @ m_vecs.conj().T, I2)
        j = m @ j @ m.conj().T
        candidate = float(np.vdot(j, w).real)
        if candidate > value:
            value, choi = candidate, j
    return value, ExtractionChannel(choi), float(max(dual - value, 0.0)) + _ROUNDING
