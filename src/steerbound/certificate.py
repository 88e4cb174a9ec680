"""Certificate core, on the standard library alone: the shifts t0*, t1* of the operator inequalities
K_{ax} >= s T_{ax} + t_{ax} I at the three breakpoint angles, decided exactly in Q(sqrt 2) (``QSqrt2``), the
coefficients s = (1+sqrt(2))/4 and t = (2-sqrt(2))/2 as the kink of the concave bound at maximal violation, the
lower and upper bounds, and the package's table of tolerances and ``ValidationError``. ``import steerbound.cli``,
``verify-inequality`` and ``coefficient-search`` need nothing more, so they never import numpy; ``selftest``
builds the channel and witness on top of this module and re-exports its names.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# Tolerances: every numeric guard in steerbound, one name per decision, each
# with its reason. Every use site imports its name, and no other 1e-N literal
# is left in the package (tests/test_tolerances.py). tests/mutants.py reads
# the rows below, from here to the first blank line, one "NAME = value  #
# reason" a line, and scales each value by 1e3 and by 1e-3: a test must fail.
HERMITICITY_TOL = 1e-12  # largest |M - M^dagger| entry of a matrix read as Hermitian
VALIDITY_TOL = 1e-10  # slack of every unit-trace, PSD, POVM and assemblage check: what "valid" means
ENDPOINT_SLACK = 1e-12  # rounding allowed past beta in [2, 2 sqrt 2] and theta in [0, pi/2]
PROB_FLOOR = 1e-12  # below this, p(a|x) (or a strategy weight below 0) is exactly 0
WEIGHT_SUM_TOL = 1e-12  # a classical strategy's weights sum to 1 within this
CHSH_RESIDUE_TOL = 1e-10  # largest imaginary part of the CHSH coefficients u and w
MARGINAL_WINDOW = 1e-6  # the analytic bound assumes p(a|x) = 1/2 within this
PURITY_TOL = 1e-9  # a rank-1 reference state's least eigenvalue is 0 within this
_ROUNDING = 1e-14  # allowance for the rounding in a primal-dual gap
NEWTON_FLOOR = 1e-7  # a barrier stage ends once a Newton decrement falls below this
SEARCH_TOLERANCE = 1e-4  # SearchConfig's default pass slack of a sandwich record


class ValidationError(ValueError):
    """Input violates a documented precondition."""


BETA_CLASSICAL = 2.0
BETA_QUANTUM = 2 * math.sqrt(2)


class QSqrt2:
    """Exact number (a + b sqrt 2) / 2^k on Python ints a, b and k >= 0: +, -, *, abs and the comparisons are
    exact, with no division or sqrt, each a method on the ints that shifts an operand only at another scale k.
    An int or a finite float operand is read exactly (every float is a dyadic rational), any other is
    NotImplemented. ``float`` is the nearest float, ``floor`` the largest at or below; format formats float."""

    __slots__ = ("a", "b", "k")

    def __init__(self, a: int, b: int = 0, k: int = 0):
        self.a, self.b, self.k = a, b, k

    @staticmethod
    def of(x):
        """x exactly, or None unless x is a QSqrt2, an int or a finite float."""
        if type(x) is QSqrt2:
            return QSqrt2(x.a, x.b, x.k)
        if not isinstance(x, (int, float)) or x - x != 0:  # x - x is NaN at +-inf
            return None
        a, d = x.as_integer_ratio()  # d = 2^k
        return QSqrt2(a, 0, d.bit_length() - 1)

    def __sub__(self, other):
        if type(other) is not QSqrt2 and (other := QSqrt2.of(other)) is None:
            return NotImplemented
        k, j = self.k, other.k
        if k == j:  # the same scale: no shift
            return QSqrt2(self.a - other.a, self.b - other.b, k)
        if k > j:
            return QSqrt2(self.a - (other.a << k - j), self.b - (other.b << k - j), k)
        return QSqrt2((self.a << j - k) - other.a, (self.b << j - k) - other.b, j)

    # one line each: + is - of the negated operand, every comparison the sign of the difference
    def __add__(self, other): return self.__sub__(-other) if isinstance(other, (int, float, QSqrt2)) else NotImplemented
    def __rsub__(self, other): return (-self).__add__(other)
    def __neg__(self): return QSqrt2(-self.a, -self.b, self.k)
    def __abs__(self): return -self if _sign(self.a, self.b) < 0 else self
    def __eq__(self, other): return self._compare(other, operator.eq)
    def __ne__(self, other): return self._compare(other, operator.ne)
    def __lt__(self, other): return self._compare(other, operator.lt)
    def __le__(self, other): return self._compare(other, operator.le)
    def __gt__(self, other): return self._compare(other, operator.gt)
    def __ge__(self, other): return self._compare(other, operator.ge)
    def __format__(self, spec): return format(float(self), spec)
    __radd__, __hash__ = __add__, None

    def __mul__(self, other):
        if type(other) is int:  # an int factor scales a and b alone
            return QSqrt2(self.a * other, self.b * other, self.k)
        if type(other) is not QSqrt2 and (other := QSqrt2.of(other)) is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return QSqrt2(a * c + 2 * b * d, a * d + b * c, self.k + other.k)

    __rmul__ = __mul__

    def _compare(self, other, op):
        """op(the sign of self - other, 0), or NotImplemented."""
        x = self.__sub__(other)
        return x if x is NotImplemented else op(_sign(x.a, x.b), 0)

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


def _sign(a: int, b: int) -> int:
    """Sign of a + b sqrt 2, exactly: with no cancellation (a or b is 0, or both have one sign) that of a or b, else
    a's where a^2 > 2 b^2 and b's where not (a^2 = 2 b^2 only at 0)."""
    x = (a or b) if not a or not b or (a < 0) == (b < 0) else a if a * a > 2 * b * b else b
    return (x > 0) - (x < 0)


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


def _coefficient_rule(s, factor):
    """4 s factor clipped to [-1, 1] for one float or QSqrt2 s, with np.clip's bits for a float."""
    _, one, minus_one = _EXACT_CONSTANTS if type(s) is QSqrt2 else _FLOAT_CONSTANTS
    return min(max(4 * s * factor, minus_one), one)


def _shifts(s, first, cos, sin):
    """(t0*, t1*) at one angle, by its ``first_interval`` flag, cosine and sine: one formula for float s and
    for a QSqrt2 s on a row of ``BREAKPOINT_TABLE``, on the 1/2, 1 and -1 of s's arithmetic.

    K_{ax} = (I + (-1)^a k_x P_x)/2 and T_{ax} = (-1)^a 2 v_x P_x, with P = (Z, X) and v = (cos, sin): the
    channel keeps Gamma's pair sharp (k = 1) and shrinks the other by c. So K_{ax} - s T_{ax} - t I is (1/2 -
    t) I +/- z Z for x = 0 and (1/2 - t) I +/- x X for x = 1, with z = kz/2 - 2s cos(theta) and x = kx/2 - 2s
    sin(theta): PSD iff t <= 1/2 - |z| and t <= 1/2 - |x| respectively."""
    half, one, _ = _EXACT_CONSTANTS if type(s) is QSqrt2 else _FLOAT_CONSTANTS
    c = _coefficient_rule(s, sin if first else cos)
    kz, kx = (one, c) if first else (c, one)
    return half - abs(kz * half - 2 * s * cos), half - abs(kx * half - 2 * s * sin)


# 1/2, 1 and -1 exactly, read once, and as floats
_EXACT_CONSTANTS, _FLOAT_CONSTANTS = (QSqrt2(1, 0, 1), QSqrt2(1), QSqrt2(-1)), (0.5, 1.0, -1.0)

# Every theta set the certificates use: g = t0* + t1* takes its minimum over
# [0, pi/2] at 0, pi/4 or pi/2 for every s. Between those angles each term of
# g is alpha + a cos(theta) + b sin(theta), |a|, |b| in {0, 2|s|}, or a
# minimum of two such branches. A branch is monotone unless a = b != 0, whose
# only extremum is at pi/4. A clamp angle arcsin or arccos(1/|4s|), where the
# dephasing coefficient saturates, is a concave kink of a minimum of two
# branches while the other term is smooth there, so it is never a minimiser.
BREAKPOINT_ANGLES = (0.0, math.pi / 4, math.pi / 2)
# the rows (first_interval, cos, sin) of BREAKPOINT_ANGLES, exact: cos and sin are
# (1, sqrt 2/2, 0) and (0, sqrt 2/2, 1) at the true angles
_ROOT = QSqrt2(0, 1, 1)
BREAKPOINT_TABLE = ((True, QSqrt2(1), QSqrt2(0)), (True, _ROOT, _ROOT), (False, QSqrt2(0), QSqrt2(1)))


def breakpoint_shifts(s: float) -> tuple:
    """t_constraints(s, .) at BREAKPOINT_ANGLES exactly, as tuples (t0*, t1*) of
    three QSqrt2s: ``_shifts`` on each row of ``BREAKPOINT_TABLE`` with s read
    once as a QSqrt2. Both certificates decide from these."""
    s = QSqrt2.of(s)
    return tuple(zip(*[_shifts(s, *row) for row in BREAKPOINT_TABLE]))


def _first_tied(values) -> int:
    """Index of the first of the values exactly equal to their least: the
    one tie rule of both certificates."""
    values = list(values)
    return values.index(min(values))  # min keeps the first least, found by identity


def _intercepts(s):
    """Exact (t(s), t0, t1) at the first of ``BREAKPOINT_ANGLES`` where t0* + t1* is least. ``verify-inequality``'s
    first line names the first least of its margins, min(t0* + t1* - t, 0), which are all 0 wherever t0* + t1*
    >= t: for 0 < s < 1/(2 + sqrt 2) it names theta = 0 where this picks pi/4."""
    t0, t1 = breakpoint_shifts(s)
    g = list(map(operator.add, t0, t1))
    i = _first_tied(g)
    return g[i], t0[i], t1[i]


def coefficient_search() -> BoundCoefficients:
    """Recover the optimal (s, t) pair as the kink of the concave bound.

    On [0, 0.8] the bound at maximal violation, f(s) = (s*beta_Q + t(s))/2 with t(s) = min over
    ``BREAKPOINT_ANGLES`` of t0* + t1*, is a minimum of concave piecewise-linear branches (1 - |1/2 - 2s| at 0 and
    pi/2, min(1/2 + sqrt(2) s, 2 - 2 sqrt(2) s) at pi/4) plus a linear term, so its first maximiser is the
    kink ``S_EXACT`` = (1 + sqrt 2)/4 where the last rising piece, (sqrt(2) - 1) s + 3/4 (t = 3/2 - 2s at 0
    and pi/2), meets the plateau 1 (t = 2 - 2 sqrt(2) s at pi/4). The search returns its float rounded down,
    S_OPTIMAL, with the (t0, t1) split that ``_intercepts`` reads there exactly. ValidationError unless t
    there is exactly on the rising piece: a kink or bend that ``_shifts`` puts below S_OPTIMAL fails closed.
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
    """Least extractability of one qubit block at CHSH value beta (see ``numsearch``), 3/4 + sqrt(beta^2 - 4)/8,
    as 3/4 + m/4 with m clamped to 1: at 2 sqrt 2, beta^2/4 - 1 rounds to 1 + 2e-16. ValidationError unless
    beta is in [BETA_CLASSICAL, BETA_QUANTUM + ENDPOINT_SLACK] (NaN is not)."""
    if not BETA_CLASSICAL <= beta <= BETA_QUANTUM + ENDPOINT_SLACK:
        raise ValidationError(f"beta = {beta} outside [2, 2*sqrt(2)]")
    return 0.75 + min(1.0, math.sqrt(beta * beta / 4 - 1)) / 4
