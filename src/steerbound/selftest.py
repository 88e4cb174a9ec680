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
import operator
from dataclasses import dataclass
from operator import mul

import numpy as np

from .assemblage import Assemblage, _require_valid
from .fidelity import _REFERENCE_MAP, ExtractionChannel, _check_reference_shape
from .matkernel import ENDPOINT_SLACK, I2, MARGINAL_WINDOW, PAULI_X, PAULI_Z, PROB_FLOOR, ValidationError
from .steering import BETA_CLASSICAL, BETA_QUANTUM, _maximum, check_theta


class QSqrt2:
    """Exact number (a + b sqrt 2) / 2^k on Python ints a, b and k >= 0: +,
    -, *, abs and the comparisons are exact, with no division or sqrt. An
    int or a finite float operand is read exactly (every float is a dyadic
    rational), any other operand is NotImplemented. ``float`` gives the
    nearest float, ``floor`` the largest float at or below, and a format
    spec formats the nearest float."""

    __slots__ = ("a", "b", "k")

    def __init__(self, a: int, b: int = 0, k: int = 0):
        self.a, self.b, self.k = a, b, k

    @staticmethod
    def of(x):
        """x exactly, or None unless x is a QSqrt2, an int or a finite float."""
        p = QSqrt2(0)._pair(x)  # x's own (a, b, k)
        return None if p is None else QSqrt2(p[2], p[3], p[4])

    def _pair(self, other):
        """(a, b, c, d, k): self's (a, b) and other's (c, d) over one 2^k, or
        None unless other is ``of`` a number."""
        if type(other) is QSqrt2:
            c, d, j = other.a, other.b, other.k
        elif isinstance(other, (int, float)) and other - other == 0:  # other - other is NaN at +-inf
            c, j = other.as_integer_ratio()  # j = 2^k
            d, j = 0, j.bit_length() - 1
        else:
            return None
        k = self.k
        return (self.a, self.b, c << k - j, d << k - j, k) if k >= j else (self.a << j - k, self.b << j - k, c, d, j)

    def __float__(self):
        """Nearest float, ties to even. Over 2^(k+p+1), |b| sqrt 2 lies
        strictly between two even numerators (sqrt 2 is irrational), and
        the odd one between them rounds as the value does once 2^-(k+p)
        divides the spacing of every rounding boundary near it: p >= 1075 -
        k does, and so does p >= L + 56 with |a| and sqrt 2 |b| below 2^L,
        since |a + b sqrt 2| >= 1/(|a| + sqrt 2 |b|) when b != 0."""
        a, b = self.a, self.b
        p = min(max(a.bit_length(), b.bit_length() + 1) + 56, max(1075 - self.k, 0))
        root = ((b > 0) - (b < 0)) * (2 * math.isqrt(2 * b * b << 2 * p) + 1)
        return ((a << p + 1) + root) / (1 << self.k + p + 1)

    def floor(self) -> float:
        """Largest float at or below the value."""
        x = float(self)
        return x if self >= x else math.nextafter(x, -math.inf)

    # each operator works on the (a, b, c, d, k) of ``_pair``, or is NotImplemented
    __add__ = __radd__ = lambda self, o: NotImplemented if (p := self._pair(o)) is None else QSqrt2(
        p[0] + p[2], p[1] + p[3], p[4])
    __sub__ = lambda self, o: NotImplemented if (p := self._pair(o)) is None else QSqrt2(
        p[0] - p[2], p[1] - p[3], p[4])
    __rsub__ = lambda self, o: NotImplemented if (p := self._pair(o)) is None else QSqrt2(
        p[2] - p[0], p[3] - p[1], p[4])
    __mul__ = __rmul__ = lambda self, o: NotImplemented if (p := self._pair(o)) is None else QSqrt2(
        p[0] * p[2] + 2 * p[1] * p[3], p[0] * p[3] + p[1] * p[2], 2 * p[4])
    __abs__ = lambda self: QSqrt2(-self.a, -self.b, self.k) if _sign(self.a, self.b) < 0 else self
    __format__ = lambda self, spec: format(float(self), spec)
    __hash__ = None


def _sign(a: int, b: int) -> int:
    """Sign of a + b sqrt 2, exactly: a's where a^2 > 2 b^2, else b's (a^2 = 2 b^2 only at 0)."""
    x = a if a * a > 2 * b * b else b
    return (x > 0) - (x < 0)


for _name in ("eq", "ne", "lt", "le", "gt", "ge"):  # the sign of self - other against 0
    setattr(QSqrt2, f"__{_name}__", lambda self, o, op=getattr(operator, _name): NotImplemented if (
        p := self._pair(o)) is None else op(_sign(p[0] - p[2], p[1] - p[3]), 0))

# the bound's last rising piece (sqrt 2 - 1) s + 3/4 meets its plateau 1 at
# s = (1/4)/(sqrt 2 - 1) = (1 + sqrt 2)/4, where t is the plateau's 2 - 2 sqrt 2 s
S_EXACT = (1 - 0.75) * QSqrt2(1, 1)
T_EXACT = 2 - QSqrt2(0, 2) * S_EXACT
S_OPTIMAL, T_OPTIMAL = S_EXACT.floor(), T_EXACT.floor()  # each rounded down
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
    flags, cosines and sines: floats, or the QSqrt2s of ``BREAKPOINT_TABLE``
    with a QSqrt2 s for the exact shifts, one formula for both (x * 0.5 is
    the float x / 2, and QSqrt2 has no division).

    K_{ax} = (I + (-1)^a k_x P_x)/2 and T_{ax} = (-1)^a 2 v_x P_x, with P =
    (Z, X) and v = (cos, sin): the channel keeps Gamma's pair sharp (k = 1)
    and shrinks the other by c. So K_{ax} - s T_{ax} - t I is (1/2 - t) I +/-
    z Z for x = 0 and (1/2 - t) I +/- x X for x = 1, with z = kz/2 - 2s
    cos(theta) and x = kx/2 - 2s sin(theta): PSD iff t <= 1/2 - |z| and
    t <= 1/2 - |x| respectively."""
    c = _coefficient_rule(s, first, cos, sin)
    kz, kx = np.where(first, 1.0, c), np.where(first, c, 1.0)
    return 0.5 - np.abs(kz * 0.5 - 2 * s * cos), 0.5 - np.abs(kx * 0.5 - 2 * s * sin)


# Every theta set the certificates use: g = t0* + t1* takes its minimum over
# [0, pi/2] at 0, pi/4 or pi/2 for every s. Between those angles each term of
# g is alpha + a cos(theta) + b sin(theta), |a|, |b| in {0, 2|s|}, or a
# minimum of two such branches. A branch is monotone unless a = b != 0, whose
# only extremum is at pi/4. A clamp angle arcsin or arccos(1/|4s|), where the
# dephasing coefficient saturates, is a concave kink of a minimum of two
# branches while the other term is smooth there, so it is never a minimiser.
BREAKPOINTS = np.array([0.0, math.pi / 4, math.pi / 2])
BREAKPOINTS.flags.writeable = False
# (first_interval, cos, sin) of BREAKPOINTS, exact and read-only: cos and sin
# are (1, sqrt 2/2, 0) and (0, sqrt 2/2, 1) at the true angles
_ROOT = QSqrt2(0, 1, 1)
BREAKPOINT_TABLE = (first_interval(BREAKPOINTS), np.array([QSqrt2(1), _ROOT, QSqrt2(0)]),
                    np.array([QSqrt2(0), _ROOT, QSqrt2(1)]))
for _column in BREAKPOINT_TABLE:
    _column.flags.writeable = False


def breakpoint_shifts(s: float):
    """t_constraints(s, BREAKPOINTS) in exact arithmetic: ``_shifts`` on
    ``BREAKPOINT_TABLE`` with s read as a QSqrt2. Both certificates decide
    from these."""
    return _shifts(QSqrt2.of(s), *BREAKPOINT_TABLE)


def _first_tied(values) -> int:
    """Index of the first of the values exactly equal to their least: the
    one tie rule of both certificates."""
    values = list(values)
    return values.index(min(values))  # min keeps the first least, found by identity


def _intercepts(s):
    """Exact (t(s), t0, t1) at the first of ``BREAKPOINTS`` where t0* + t1*
    is least. ``verify-inequality``'s first line names the first least of
    its margins, min(t0* + t1* - t, 0), which are all 0 wherever t0* + t1*
    >= t: for 0 < s < 1/(2 + sqrt 2) it names theta = 0 where this picks
    pi/4."""
    t0, t1 = breakpoint_shifts(s)
    i = _first_tied(t0 + t1)
    return t0[i] + t1[i], t0[i], t1[i]


def coefficient_search() -> BoundCoefficients:
    """Recover the optimal (s, t) pair as the kink of the concave bound.

    On [0, 0.8] the bound at maximal violation, f(s) = (s*beta_Q + t(s))/2
    with t(s) = min over ``BREAKPOINTS`` of t0* + t1*, is a minimum of
    concave piecewise-linear branches (1 - |1/2 - 2s| at 0 and pi/2,
    min(1/2 + sqrt(2) s, 2 - 2 sqrt(2) s) at pi/4) plus a linear term, so
    its first maximiser is the kink ``S_EXACT`` = (1 + sqrt 2)/4 where the
    last rising piece, (sqrt(2) - 1) s + 3/4 (t = 3/2 - 2s at 0 and pi/2),
    meets the plateau 1 (t = 2 - 2 sqrt(2) s at pi/4). The search returns
    its float rounded down, S_OPTIMAL, with the (t0, t1) split that
    ``_intercepts`` reads there exactly. ValidationError unless t there is
    exactly on the rising piece: a kink or bend that ``_shifts`` puts below
    S_OPTIMAL fails closed.
    """
    s = S_OPTIMAL
    t, t0, t1 = _intercepts(s)
    if not t + 2 * s == 1.5:  # a NaN fails too
        raise ValidationError(f"bound {(s * BETA_QUANTUM + float(t)) / 2:.17g} at s = {s!r} is not the kink")
    return BoundCoefficients(s, float(t0), float(t1))


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
