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
from .steering import BETA_CLASSICAL, BETA_QUANTUM, check_theta, chsh_functional, max_violation_over_theta

S_OPTIMAL = (1 + math.sqrt(2)) / 4
T_OPTIMAL = (2 - math.sqrt(2)) / 2
TRIVIAL_CLASSICAL_FIDELITY = (2 + math.sqrt(2)) / 4
THRESHOLD_BETA = 8 - 4 * math.sqrt(2)  # where analytic_bound reaches TRIVIAL_CLASSICAL_FIDELITY


@dataclass(frozen=True)
class BoundCoefficients:
    s: float
    t0: float
    t1: float

    @property
    def t(self) -> float:
        return self.t0 + self.t1


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
    _check_coefficient(c)
    gamma = PAULI_Z if first_interval(theta) else PAULI_X
    choi = sum(
        w * np.outer(u.T.reshape(4), u.T.reshape(4).conj())
        for w, u in ((0.5 * (1 + c), I2), (0.5 * (1 - c), gamma))
    )
    return ExtractionChannel(choi)


def dephasing_coefficient(theta, s):
    """c(theta) = 4s sin(theta) on the first interval and 4s cos(theta) on
    the second, clipped to [-1, 1], where the map is a channel: it saturates
    at 1 for s >= 0 and at -1 for s < 0. Broadcasts over theta and s."""
    check_theta(theta)
    return _coefficient_rule(s, first_interval(theta), np.cos(theta), np.sin(theta))


def _coefficient_rule(s, first, cos, sin):
    return np.clip(4 * s * np.where(first, sin, cos), -1.0, 1.0)


def _check_coefficient(c) -> None:
    """ValidationError naming the first dephasing coefficient (of a float or
    an array) outside [-1, 1]; NaN fails too."""
    inside = (c >= -1) & (c <= 1)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        first = np.ravel(c)[~np.ravel(inside)][0]
        raise ValidationError(f"dephasing coefficient c = {first} outside [-1, 1]")


def _pauli_coefficients(s, first, cos, sin, c):
    """(z, x) with K_{ax} - s T_{ax} = I/2 + (-1)^a z Z for x = 0 and
    I/2 + (-1)^a x X for x = 1: K_{ax} = (I + (-1)^a k_x P_x)/2 and
    T_{ax} = (-1)^a 2 v_x P_x, v = (cos, sin), so z = kz/2 - 2s cos(theta)
    and x = kx/2 - 2s sin(theta). The channel keeps Gamma's pair sharp
    (k = 1) and shrinks the other by c. Broadcasts."""
    kz, kx = np.where(first, 1.0, c), np.where(first, c, 1.0)
    return kz / 2 - 2 * s * cos, kx / 2 - 2 * s * sin


def t_constraints(s, theta):
    """Largest shifts (t0*, t1*), possibly negative, keeping all four
    operator inequalities PSD at each theta and s (broadcast), with the
    dephasing coefficient set by its closed rule: K_{ax} - s T_{ax} - t I =
    (1/2 - t) I +/- (z Z or x X), with z, x from ``_pauli_coefficients``, is
    PSD iff t <= 1/2 - |z| or 1/2 - |x|. So the least eigenvalue of the four
    operators at the shifts t0 = t0*, t1 = t - t0* is min(0, t0* + t1* - t):
    the inequality holds at (s, t) iff min over theta of t0* + t1* >= t."""
    check_theta(theta)
    first, cos, sin = first_interval(theta), np.cos(theta), np.sin(theta)
    z, x = _pauli_coefficients(s, first, cos, sin, _coefficient_rule(s, first, cos, sin))
    return 0.5 - np.abs(z), 0.5 - np.abs(x)


def inequality_margin(s: float, t0, t1, theta, c):
    """Smallest eigenvalue over the four operators K_{ax} - s T_{ax} - t_x I,
    in the broadcast shape of (theta, t0, t1, c).

    Nonnegative iff the inequality holds at this theta. Each operator is
    alpha I + zeta Z + xi X with least eigenvalue alpha - hypot(zeta, xi);
    here alpha = 1/2 - t_x and one of zeta, xi is zero, so the four margins
    are 1/2 - t0 - |z| and 1/2 - t1 - |x| (twice each: the sign of a does
    not change them), with z, x from ``_pauli_coefficients``. No matrix is
    built. The margin is 0 at the shifts of ``t_constraints``, so at other
    shifts it checks them against t0* and t1*; the tests check it against
    the eigenvalues of the operators built from their definitions, K_{ax} =
    ``dephasing_channel(theta, c).dual`` of twice sigma_{a|x} of
    ``chsh_reference()`` and T_{ax} from ``steering.t_operators``.
    ValidationError unless every c is in [-1, 1].
    """
    check_theta(theta)
    _check_coefficient(c)
    z, x = _pauli_coefficients(s, first_interval(theta), np.cos(theta), np.sin(theta), c)
    return np.minimum(0.5 - t0 - np.abs(z), 0.5 - t1 - np.abs(x))


# Every theta set the certificates use: g = t0* + t1* takes its minimum over
# [0, pi/2] at 0, pi/4 or pi/2 for every s. Between those angles each term of
# g is alpha + a cos(theta) + b sin(theta), |a|, |b| in {0, 2|s|}, or a
# minimum of two such branches. A branch is monotone unless a = b != 0, whose
# only extremum is at pi/4. A clamp angle arcsin or arccos(1/|4s|), where the
# dephasing coefficient saturates, is a concave kink of a minimum of two
# branches while the other term is smooth there, so it is never a minimiser.
BREAKPOINTS = np.array([0.0, math.pi / 4, math.pi / 2])
BREAKPOINTS.flags.writeable = False


def _intercepts(s):
    """(t(s), t0, t1) per s at the first minimiser of t0* + t1* over
    ``BREAKPOINTS``, where its minimum lies."""
    t0, t1 = t_constraints(np.reshape(s, (-1, 1)), BREAKPOINTS)
    first = np.argmin(t0 + t1, axis=1)[:, None]
    t0, t1 = (np.take_along_axis(t, first, 1)[:, 0] for t in (t0, t1))
    return t0 + t1, t0, t1


_SECTION_POINTS = 257  # per broadcast round: 256 sub-brackets
_SECTION_ROUNDS = 5  # 256**5 ~ 1.1e12, so a bracket of width 1 narrows below 1e-12


def coefficient_search(s_grid) -> BoundCoefficients:
    """Recover the optimal (s, t) pair by a search over s.

    For each s the bound intercept t(s) = min_theta (t0* + t1*) is read from
    ``t_constraints`` over ``BREAKPOINTS`` (0, pi/4 and pi/2), where it is
    exact, the whole s grid in one broadcast; the search checks
    nothing against ``t_constraints``, and the tests check the pair it
    returns against S_OPTIMAL and T_OPTIMAL. The bound at maximal violation,
    (s*beta_Q + t(s))/2, plateaus at 1 past the optimum. The plateau is
    reached within max(1e-10, 16 eps max|s|), which covers the rounding of
    the bound at the grid's largest |s| (both terms are of order |s|); a
    grid where that rounding exceeds 1e-6 (|s| above about 2.8e8) is a
    ValidationError, since the plateau edge is then lost in it. The
    first grid s that reaches it is refined against the grid point before it
    by k-section: each round evaluates the bound on ``_SECTION_POINTS``
    points across the bracket in one broadcast and keeps the first
    sub-bracket that reaches the plateau. It stops at a width of 1e-12
    (relative to |s| above 1) or after ``_SECTION_ROUNDS`` rounds, so it
    returns on any finite grid. The upper end is returned. Below the
    optimum t(s) = 3/2 - 2s and the bound rises as (sqrt(2) - 1) s, so on
    grids with |s| below about 3e4 that end lies 1e-10/(sqrt(2) - 1), about
    2.4e-10, below S_OPTIMAL.
    """
    s_values = np.array(sorted(float(s) for s in s_grid))
    if not len(s_values) or not np.isfinite(s_values).all():
        raise ValidationError("s_grid must be nonempty and finite")
    rounding = 16 * np.finfo(float).eps * np.abs(s_values).max()
    if rounding > 1e-6:
        raise ValidationError(f"s_grid's rounding 16 eps max|s| = {rounding:.3g} exceeds 1e-6: keep |s| below 2.8e8")

    def bound_at_max(s):
        return (s * BETA_QUANTUM + _intercepts(s)[0]) / 2

    values = bound_at_max(s_values)
    plateau = values.max() - max(1e-10, rounding)
    idx = int(np.argmax(values >= plateau))
    lo, s_star = s_values[max(idx - 1, 0)], s_values[idx]
    for _ in range(_SECTION_ROUNDS):
        if s_star - lo <= 1e-12 * max(1.0, abs(s_star)):
            break
        points = np.linspace(lo, s_star, _SECTION_POINTS)
        # the ends are known to be off and on the plateau
        j = 1 + int(np.argmax(np.append(bound_at_max(points[1:-1]) >= plateau, True)))
        lo, s_star = points[j - 1], points[j]

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


def extractability_with_channel(asm: Assemblage, channel: ExtractionChannel) -> float:
    """Fidelity of the reference with the channel applied elementwise,
    tr(J W): a lower-bound witness for extractability at this fixed channel."""
    return float(np.vdot(channel.choi, fidelity_operator(asm)).real)


def certified_lower_bound(asm: Assemblage, theta: float) -> float:
    """Analytic lower bound on extractability from the CHSH value at theta.

    ValidationError when some p(a|x) is more than 1e-6 from 1/2, since the
    certified statement assumes p(a|x) = 1/2, and when the functional's
    maximum over theta exceeds 2 sqrt(2) by more than 1e-12, which no
    quantum assemblage reaches.
    """
    dev = asm.max_marginal_deviation()
    if dev > 1e-6:
        raise ValidationError(f"analytic bound assumes p(a|x) = 1/2; deviation {dev:.3e} exceeds 1e-06")
    peak = max_violation_over_theta(asm)[1]
    if peak > BETA_QUANTUM + 1e-12:
        raise ValidationError(f"CHSH maximum {peak:.9g} exceeds 2 sqrt(2): not a quantum assemblage")
    beta = chsh_functional(asm, theta)
    return analytic_bound(beta)
