"""Analytic robustness-bound engine for the CHSH-type assemblage.

The certified statement is an affine lower bound on extractability,
Q >= (s*beta + t)/2, obtained from the operator inequalities

    K_{ax} >= s T_{ax} + t_{ax} I

where K_{ax} is the dual image of the reference conditional state under a
theta-dependent dephasing channel. This module builds the channel family,
checks the inequalities in closed form over theta, recovers the optimal
coefficients s = (1+sqrt(2))/4 and t = (2-sqrt(2))/2 as the kink of the
concave bound at maximal violation, and evaluates the resulting lower
bound, the interpolation upper bound, the one-qubit-block minimum xi* and
the non-triviality threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .assemblage import Assemblage, _require_valid
from .fidelity import _REFERENCE_MAP, ExtractionChannel, _check_reference_shape
from .matkernel import BREAKPOINT_TIE, ENDPOINT_SLACK, MARGINAL_WINDOW, PROB_FLOOR, _KINK_TOL
from .matkernel import INEQUALITY_SLACK  # noqa: F401 (re-exported: verify-inequality's slack)
from .matkernel import I2, PAULI_X, PAULI_Z, ValidationError
from .steering import BETA_CLASSICAL, BETA_QUANTUM, _maximum, check_theta

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


def _unitary_choi(u: np.ndarray) -> np.ndarray:
    """Read-only Choi matrix |U>><<U| of rho -> U rho U^dagger, where
    |U>> = sum_i |i> (x) U|i> is the row-major flattening of U^T."""
    ket = u.T.reshape(4)
    choi = np.outer(ket, ket.conj())
    choi.flags.writeable = False
    return choi


_CHOI_I, _CHOI_Z, _CHOI_X = (_unitary_choi(u) for u in (I2, PAULI_Z, PAULI_X))


def dephasing_channel(theta: float, c: float) -> ExtractionChannel:
    """Two-term dephasing channel (1+c)/2 rho + (1-c)/2 G rho G with
    G = Z on [0, pi/4] and G = X on (pi/4, pi/2]. ValidationError unless c
    is finite and in [-1, 1], where the map is a channel. Its Choi matrix
    is (1+c)/2 J_I + (1-c)/2 J_G, from the constant Choi matrices of the
    identity and of G."""
    check_theta(theta)
    if not -1 <= c <= 1:  # a NaN fails too
        raise ValidationError(f"dephasing coefficient c = {c} outside [-1, 1]")
    gamma = _CHOI_Z if first_interval(theta) else _CHOI_X
    return ExtractionChannel(0.5 * (1 + c) * _CHOI_I + 0.5 * (1 - c) * gamma)


def dephasing_coefficient(theta, s):
    """c(theta) = 4s sin(theta) on the first interval and 4s cos(theta) on
    the second, clipped to [-1, 1], where the map is a channel: it saturates
    at 1 for s >= 0 and at -1 for s < 0. Broadcasts over theta and s; two
    Python floats give a Python float, by ``math`` with the same bits."""
    check_theta(theta)
    if type(theta) is float and type(s) is float:
        return min(max(4 * s * (math.sin(theta) if first_interval(theta) else math.cos(theta)), -1.0), 1.0)
    return _coefficient_rule(s, first_interval(theta), np.cos(theta), np.sin(theta))


def _coefficient_rule(s, first, cos, sin):
    # np.minimum(np.maximum(...)) gives np.clip's bits, -0.0, +-inf and NaN
    # included, with less per-call overhead
    return np.minimum(np.maximum(4 * s * np.where(first, sin, cos), -1.0), 1.0)


def t_constraints(s, theta):
    """Largest shifts (t0*, t1*), possibly negative, keeping all four
    operator inequalities PSD at each theta and s (broadcast), with the
    dephasing coefficient set by its closed rule; see ``_shifts``. The least
    eigenvalue of the four operators at the shifts t0 = t0*, t1 = t - t0* is
    min(0, t0* + t1* - t): the inequality holds at (s, t) iff min over theta
    of t0* + t1* >= t."""
    check_theta(theta)
    return _shifts(s, first_interval(theta), np.cos(theta), np.sin(theta))


def _shifts(s, first, cos, sin):
    """``t_constraints`` at checked angles given by their ``first_interval``
    flags, cosines and sines, such as ``BREAKPOINT_TABLE``.

    K_{ax} = (I + (-1)^a k_x P_x)/2 and T_{ax} = (-1)^a 2 v_x P_x, with P =
    (Z, X) and v = (cos, sin): the channel keeps Gamma's pair sharp (k = 1)
    and shrinks the other by c. So K_{ax} - s T_{ax} - t I is (1/2 - t) I +/-
    z Z for x = 0 and (1/2 - t) I +/- x X for x = 1, with z = kz/2 - 2s
    cos(theta) and x = kx/2 - 2s sin(theta): PSD iff t <= 1/2 - |z| and
    t <= 1/2 - |x| respectively."""
    c = _coefficient_rule(s, first, cos, sin)
    kz, kx = np.where(first, 1.0, c), np.where(first, c, 1.0)
    return 0.5 - np.abs(kz / 2 - 2 * s * cos), 0.5 - np.abs(kx / 2 - 2 * s * sin)


# Every theta set the certificates use: g = t0* + t1* takes its minimum over
# [0, pi/2] at 0, pi/4 or pi/2 for every s. Between those angles each term of
# g is alpha + a cos(theta) + b sin(theta), |a|, |b| in {0, 2|s|}, or a
# minimum of two such branches. A branch is monotone unless a = b != 0, whose
# only extremum is at pi/4. A clamp angle arcsin or arccos(1/|4s|), where the
# dephasing coefficient saturates, is a concave kink of a minimum of two
# branches while the other term is smooth there, so it is never a minimiser.
BREAKPOINTS = np.array([0.0, math.pi / 4, math.pi / 2])
BREAKPOINTS.flags.writeable = False
# (first_interval, cos, sin) of BREAKPOINTS, read-only: the certificates read
# t0* + t1* as _shifts(s, *BREAKPOINT_TABLE), bit for bit t_constraints(s,
# BREAKPOINTS) without its check and trigonometry on every call
BREAKPOINT_TABLE = (first_interval(BREAKPOINTS), np.cos(BREAKPOINTS), np.sin(BREAKPOINTS))
for _column in BREAKPOINT_TABLE:
    _column.flags.writeable = False


def _first_tied(values):
    """Index, along the last axis, of the first value within
    ``BREAKPOINT_TIE`` of the least: the one tie rule of both certificates."""
    return np.argmax(values <= values.min(axis=-1, keepdims=True) + BREAKPOINT_TIE, axis=-1)


def _intercepts(s):
    """(t(s), t0, t1) per s at the first of ``BREAKPOINTS`` whose t0* + t1*
    is within ``BREAKPOINT_TIE`` of the least. ``verify-inequality`` applies
    the same ``_first_tied`` to its margins, min(t0* + t1* - t, 0), which
    are all 0 wherever t0* + t1* >= t: for 0 < s < 1/(2 + sqrt 2) it names
    theta = 0 where this picks pi/4."""
    t0, t1 = _shifts(np.reshape(s, (-1, 1)), *BREAKPOINT_TABLE)
    each, first = np.arange(len(t0)), _first_tied(t0 + t1)
    t0, t1 = t0[each, first], t1[each, first]
    return t0 + t1, t0, t1


_SECTION_POINTS = 257  # the grid over [0, 0.8]: 256 cells of 0.003125


def coefficient_search() -> BoundCoefficients:
    """Recover the optimal (s, t) pair as the kink of the concave bound.

    On [0, 0.8] the bound at maximal violation, f(s) = (s*beta_Q + t(s))/2
    with t(s) = min over ``BREAKPOINTS`` of t0* + t1*, is a minimum of
    concave piecewise-linear branches (1 - |1/2 - 2s| at 0 and pi/2,
    min(1/2 + sqrt(2) s, 2 - 2 sqrt(2) s) at pi/4) plus a linear term, so
    its first maximiser S_OPTIMAL is the kink where the last rising piece,
    (sqrt(2) - 1) s + 3/4, meets the plateau 1. One broadcast reads f on
    ``_SECTION_POINTS`` points; the line through the two below the first
    one on the plateau meets the line through it and the next at the kink,
    where ``_intercepts`` reads the (t0, t1) split. ValidationError unless f
    there lies on both lines and no grid value exceeds it, within
    ``_KINK_TOL``: a second kink near the first fails closed.
    """
    points = np.linspace(0.0, 0.8, _SECTION_POINTS)
    t0, t1 = _shifts(points[:, None], *BREAKPOINT_TABLE)
    values = (points * BETA_QUANTUM + (t0 + t1).min(axis=1)) / 2
    top = values.max()
    j = int(np.argmax(values >= top - _KINK_TOL))
    if not 2 <= j <= _SECTION_POINTS - 2:
        raise ValidationError(f"bound plateau starts at grid point {j}, not inside the bracket")
    (a, b, c, d), (fa, fb, fc, fd) = points[j - 2 : j + 2].tolist(), values[j - 2 : j + 2].tolist()
    rise, flat = (fb - fa) / (b - a), (fd - fc) / (d - c)
    s = b + (fc - fb - flat * (c - b)) / (rise - flat)
    t, t0, t1 = _intercepts(s)
    value = (s * BETA_QUANTUM + t[0]) / 2
    gaps = (abs(value - fb - rise * (s - b)), abs(value - fc - flat * (s - c)), top - value)
    if not all(gap <= _KINK_TOL for gap in gaps):  # a NaN fails too
        raise ValidationError(f"bound {value:.17g} at s = {s!r} is not the kink of its grid lines")
    return BoundCoefficients(s, float(t0[0]), float(t1[0]))


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


def xi_star(beta: float) -> float:
    """Least extractability of one qubit block at CHSH value beta (see
    ``numsearch``), 3/4 + sqrt(beta^2 - 4)/8, as 3/4 + m/4 with m clamped to
    1: at 2 sqrt 2, beta^2/4 - 1 rounds to 1 + 2e-16."""
    return 0.75 + min(1.0, math.sqrt(beta * beta / 4 - 1)) / 4


def extractability_with_channel(asm: Assemblage, channel: ExtractionChannel) -> float:
    """Fidelity of the reference with the channel applied elementwise,
    tr(J W) with W = ``fidelity_operator(asm)``, from the assemblage's rows
    and ``fidelity._REFERENCE_MAP``, no W built (p(a|x) below PROB_FLOOR
    adds zero): a lower-bound witness for extractability at this channel."""
    _check_reference_shape(asm)
    v = (_REFERENCE_MAP @ np.reshape(channel.choi, 16)).view(float).tolist()
    total = 0.0
    for k, row in enumerate(asm._rows):
        p = row[0] + row[6]
        if p >= PROB_FLOOR:
            total += sum(map(mul, row, v[8 * k : 8 * k + 8])) / math.sqrt(p)
    return total


def certified_lower_bound(asm: Assemblage, theta: float) -> float:
    """Analytic lower bound on extractability from the CHSH value at theta.

    ValidationError when some p(a|x) is more than MARGINAL_WINDOW from 1/2,
    since the certified statement assumes p(a|x) = 1/2, when the
    functional's maximum over theta exceeds 2 sqrt(2) by more than
    ENDPOINT_SLACK, which no quantum assemblage reaches, and, after those
    checks, unless the assemblage passes ``validate`` at VALIDITY_TOL: the
    bound holds only for a valid quantum assemblage.
    """
    dev = asm.max_marginal_deviation()
    if dev > MARGINAL_WINDOW:
        raise ValidationError(f"analytic bound assumes p(a|x) = 1/2; deviation {dev:.3e} exceeds {MARGINAL_WINDOW:.0e}")
    u, w = asm._chsh  # kept: the maximum and beta at theta both come from them
    peak = _maximum(u, w)[1]
    if peak > BETA_QUANTUM + ENDPOINT_SLACK:
        raise ValidationError(f"CHSH maximum {peak:.9g} exceeds 2 sqrt(2): not a quantum assemblage")
    check_theta(theta)
    _require_valid(asm)
    return analytic_bound(u * math.cos(theta) + w * math.sin(theta))
