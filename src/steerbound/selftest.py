"""Analytic robustness-bound engine for the CHSH-type assemblage.

The certified statement is an affine lower bound on extractability,
Q >= (s*beta + t)/2, obtained from the operator inequalities

    K_{ax} >= s T_{ax} + t_{ax} I

where K_{ax} is the dual image of the reference conditional state under a
theta-dependent dephasing channel. This module builds the channel family,
checks the inequalities in closed form over theta, recovers the optimal
coefficients s = (1+sqrt(2))/4 and t = (2-sqrt(2))/2, and evaluates the
resulting lower bound, the interpolation upper bound, and the
non-triviality threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage
from .fidelity import ExtractionChannel, fidelity_operator
from .matkernel import I2, PAULI_X, PAULI_Z, ValidationError
from .steering import BETA_CLASSICAL, BETA_QUANTUM, BobObservables, check_theta, chsh_functional

S_OPTIMAL = (1 + math.sqrt(2)) / 4
T_OPTIMAL = (2 - math.sqrt(2)) / 2
TRIVIAL_CLASSICAL_FIDELITY = (2 + math.sqrt(2)) / 4
THRESHOLD_BETA = 8 - 4 * math.sqrt(2)


@dataclass(frozen=True)
class BoundCoefficients:
    s: float
    t0: float
    t1: float

    @property
    def t(self) -> float:
        return self.t0 + self.t1


def optimal_coefficients() -> BoundCoefficients:
    return BoundCoefficients(S_OPTIMAL, T_OPTIMAL / 2, T_OPTIMAL / 2)


def first_interval(theta):
    """Gamma = Z on [0, pi/4], pi/4 included; Gamma = X on (pi/4, pi/2]."""
    return theta <= math.pi / 4


def dephasing_channel(theta: float, c: float) -> ExtractionChannel:
    """Two-term dephasing channel (1+c)/2 rho + (1-c)/2 G rho G with
    G = Z on [0, pi/4] and G = X on (pi/4, pi/2]. ValidationError unless c
    is finite and in [-1, 1], where the map is a channel.

    The Choi matrix of rho -> U rho U^dagger is |U>><<U| with
    |U>> = sum_i |i> (x) U|i>, the row-major flattening of U^T."""
    check_theta(theta)
    if not -1 <= c <= 1:  # NaN fails too
        raise ValidationError(f"dephasing coefficient c = {c} outside [-1, 1]")
    gamma = PAULI_Z if first_interval(theta) else PAULI_X
    choi = sum(
        w * np.outer(u.T.reshape(4), u.T.reshape(4).conj())
        for w, u in ((0.5 * (1 + c), I2), (0.5 * (1 - c), gamma))
    )
    return ExtractionChannel(choi)


def dephasing_coefficient(theta, s):
    """c(theta) = min{1, 4s sin(theta)} on the first interval and
    min{1, 4s cos(theta)} on the second. Broadcasts over theta and s."""
    check_theta(theta)
    return np.minimum(1.0, 4 * s * np.where(first_interval(theta), np.sin(theta), np.cos(theta)))


def _contractions(theta, c):
    """(kz, kx): how the channel shrinks the Z- and X-basis reference pairs;
    Gamma's pair stays sharp, the other shrinks by c clamped to [-1, 1]."""
    c = np.clip(c, -1.0, 1.0)
    first = first_interval(theta)
    return np.where(first, 1.0, c), np.where(first, c, 1.0)


def k_operators(theta, c) -> np.ndarray:
    """Dual images K[..., a, x] of the reference conditional states: by
    self-duality, the channel applied to them (``_operator_stack`` at s = t = 0).
    """
    return _operator_stack(0.0, 0.0, 0.0, theta, c)


def t_constraints(s, theta):
    """Largest shifts (t0*, t1*), possibly negative, keeping all four
    operator inequalities PSD at each theta and s (broadcast), with the dephasing
    coefficient set by its closed rule: K_{ax} - s T_{ax} - t I =
    (1/2 - t) I +/- (k_x/2 - 2 s v_x) P_x, v = (cos, sin), is PSD iff
    t <= (1 - |k_x - 4 s v_x|)/2."""
    kz, kx = _contractions(theta, dephasing_coefficient(theta, s))
    t0 = (1 - np.abs(kz - 4 * s * np.cos(theta))) / 2
    t1 = (1 - np.abs(kx - 4 * s * np.sin(theta))) / 2
    return t0, t1


def _operator_stack(s: float, t0, t1, theta, c) -> np.ndarray:
    """K_{ax} - s T_{ax} - t_x I at [..., a, x], with K_{ax} =
    (I + (-1)^a k_x P_x)/2 and T_{ax} = (-1)^a 2 v_x P_x, written entry by entry
    as alpha I + zeta Z + xi X: no per-operator (..., 2, 2) arrays, to save memory."""
    check_theta(theta)
    theta, t0, t1, c = np.broadcast_arrays(theta, t0, t1, c)
    kz, kx = _contractions(theta, c)
    z = kz / 2 - 2 * s * np.cos(theta)
    x = kx / 2 - 2 * s * np.sin(theta)
    ops = np.zeros(theta.shape + (2, 2, 2, 2))
    for a, sign in enumerate((1, -1)):
        for i, (alpha, zeta, xi) in enumerate(((0.5 - t0, sign * z, 0), (0.5 - t1, 0, sign * x))):
            ops[..., a, i, 0, 0] = alpha + zeta
            ops[..., a, i, 1, 1] = alpha - zeta
            ops[..., a, i, 0, 1] = ops[..., a, i, 1, 0] = xi
    return ops


def inequality_margin(s: float, t0, t1, theta, c):
    """Smallest eigenvalue over the four operators K_{ax} - s T_{ax} - t_x I.

    Nonnegative iff the inequality holds at this theta. The operators are
    built from their definitions, so it cross-checks ``t_constraints``; each
    2x2 [[p, b], [b, q]] has smallest eigenvalue (p+q)/2 - hypot((p-q)/2, b).
    """
    ops = _operator_stack(s, t0, t1, theta, c)
    p, q, b = ops[..., 0, 0], ops[..., 1, 1], ops[..., 0, 1]
    return ((p + q) / 2 - np.hypot((p - q) / 2, b)).min(axis=(-2, -1))


def theta_grid(size: int) -> np.ndarray:
    """Uniform grid of ``size`` points on [0, pi/2] with pi/4 pinned, so it
    holds 0, pi/4 and pi/2, where g = t0* + t1* takes its minimum over
    [0, pi/2] for every s. Between those angles each term of g is
    alpha + a cos(theta) + b sin(theta), |a|, |b| in {0, 2|s|}, or a minimum
    of two such branches. A branch is monotone unless a = b != 0, whose only
    extremum is at pi/4. A clamp angle arcsin or arccos(1/|4s|), where the
    dephasing coefficient saturates, is a concave kink of a minimum of two
    branches while the other term is smooth there, so it is never a
    minimiser. So the grid minimum of g is its exact minimum for any
    size >= 2."""
    if size < 2:
        raise ValidationError(f"theta grid needs size >= 2, got {size}")
    return np.sort(np.append(np.linspace(0, math.pi / 2, size), math.pi / 4))


_BREAKPOINTS = theta_grid(2)  # 0, pi/4 and pi/2


def _intercepts(s):
    """(t(s), t0, t1) per s at the first minimiser of t0* + t1* over
    ``_BREAKPOINTS``, where ``theta_grid`` shows its minimum lies."""
    t0, t1 = t_constraints(np.reshape(s, (-1, 1)), _BREAKPOINTS)
    first = np.argmin(t0 + t1, axis=1)[:, None]
    t0, t1 = (np.take_along_axis(t, first, 1)[:, 0] for t in (t0, t1))
    return t0 + t1, t0, t1


def coefficient_search(s_grid) -> BoundCoefficients:
    """Recover the optimal (s, t) pair by a search over s.

    For each s the bound intercept t(s) = min_theta (t0* + t1*) is exact over
    0, pi/4 and pi/2 (see ``theta_grid``), the whole s grid in one broadcast.
    The bound at maximal violation, (s*beta_Q + t(s))/2, plateaus at 1 past the
    optimum; the smallest grid s on the plateau is refined by bisection.
    """
    s_values = np.array(sorted(float(s) for s in s_grid))
    if not len(s_values) or not np.isfinite(s_values).all():
        raise ValidationError("s_grid must be nonempty and finite")

    def bound_at_max(s):
        return (s * BETA_QUANTUM + _intercepts(s)[0]) / 2

    values = bound_at_max(s_values)
    best_value = values.max()
    idx = int(np.argmax(values >= best_value - 1e-10))
    s_star = s_values[idx]

    if idx > 0 and values[idx - 1] < best_value - 1e-10:
        lo, hi = s_values[idx - 1], s_star
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if bound_at_max(mid)[0] >= best_value - 1e-10:
                hi = mid
            else:
                lo = mid
        s_star = hi

    _, t0, t1 = _intercepts(s_star)
    return BoundCoefficients(float(s_star), float(t0[0]), float(t1[0]))


def analytic_bound(beta: float) -> float:
    """Certified lower bound on extractability:
    (S_OPTIMAL beta + T_OPTIMAL)/2 = ((1+sqrt(2))/8) beta + (2-sqrt(2))/4."""
    return (S_OPTIMAL * beta + T_OPTIMAL) / 2


def bound_value(coeffs: BoundCoefficients, beta: float) -> float:
    return (coeffs.s * beta + coeffs.t) / 2


def upper_bound(beta: float) -> float:
    """Interpolation upper bound: the classical fidelity at the classical
    bound, 1 at the quantum bound, affine in between."""
    f_c = TRIVIAL_CLASSICAL_FIDELITY
    return f_c + (1 - f_c) * (beta - BETA_CLASSICAL) / (BETA_QUANTUM - BETA_CLASSICAL)


def threshold() -> float:
    """Violation above which the analytic bound beats the classical
    fidelity: solves (S_OPTIMAL beta + T_OPTIMAL)/2 = TRIVIAL_CLASSICAL_FIDELITY."""
    return (2 * TRIVIAL_CLASSICAL_FIDELITY - T_OPTIMAL) / S_OPTIMAL


def extractability_with_channel(asm: Assemblage, channel: ExtractionChannel) -> float:
    """Fidelity of the reference with the channel applied elementwise,
    tr(J W): a lower-bound witness for extractability at this fixed channel."""
    return float(np.vdot(channel.choi, fidelity_operator(asm)).real)


def certified_lower_bound(asm: Assemblage, theta: float) -> float:
    """Analytic lower bound on extractability from the CHSH value at theta.

    ValidationError when some p(a|x) is more than 1e-6 from 1/2, since the
    certified statement assumes p(a|x) = 1/2.
    """
    dev = asm.max_marginal_deviation()
    if dev > 1e-6:
        raise ValidationError(f"analytic bound assumes p(a|x) = 1/2; deviation {dev:.3e} exceeds 1e-06")
    beta = chsh_functional(asm, BobObservables(theta))
    return analytic_bound(beta)
