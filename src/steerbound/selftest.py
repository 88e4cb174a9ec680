"""Analytic robustness-bound engine for the CHSH-type assemblage.

The certified statement is an affine lower bound on extractability,
Q >= (s*beta + t)/2, obtained from the operator inequalities

    K_{ax} >= s T_{ax} + t_{ax} I

where K_{ax} is the dual image of the reference conditional state under a
theta-dependent dephasing channel. The exact decision, the coefficients
s = (1+sqrt(2))/4 and t = (2-sqrt(2))/2 as the kink of the concave bound at
maximal violation, the lower and upper bounds, the one-qubit-block minimum
xi* and the non-triviality threshold live in ``certificate``, on the
standard library alone, and are re-exported here. This module is the
numpy layer on top: the channel family, the shifts and coefficient at one
angle, the extractability witness and per-assemblage certification.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .assemblage import Assemblage, _require_valid
from .certificate import (  # re-exported: the certificate core's public names, and what this module reads
    BETA_CLASSICAL, BETA_QUANTUM, BREAKPOINT_ANGLES, BREAKPOINT_TABLE, ENDPOINT_SLACK, MARGINAL_WINDOW, S_EXACT,
    S_OPTIMAL, T_EXACT, T_OPTIMAL, THRESHOLD_BETA, TRIVIAL_CLASSICAL_FIDELITY, BoundCoefficients, QSqrt2,
    ValidationError, _coefficient_rule, _shifts, analytic_bound, bound_value, breakpoint_shifts, coefficient_search,
    first_interval, upper_bound, xi_star,
)
from .fidelity import ExtractionChannel, fidelity_operator
from .matkernel import I2, PAULI_X, PAULI_Z
from .steering import _one_real, check_theta, chsh_functional, max_violation_over_theta


def _unitary_choi(u: np.ndarray) -> np.ndarray:
    """Read-only Choi matrix |U>><<U| of rho -> U rho U^dagger, where
    |U>> = sum_i |i> (x) U|i> is the row-major flattening of U^T."""
    ket = u.T.reshape(4)
    choi = np.outer(ket, ket.conj())
    choi.flags.writeable = False
    return choi


_CHOI_I, _CHOI_Z, _CHOI_X = (_unitary_choi(u) for u in (I2, PAULI_Z, PAULI_X))


def dephasing_channel(theta: float, c: float) -> ExtractionChannel:
    """Two-term dephasing channel (1+c)/2 rho + (1-c)/2 G rho G with G = Z on [0, pi/4] and G = X on (pi/4,
    pi/2]. ValidationError unless c is one real number in [-1, 1], where the map is a channel. Its Choi matrix is
    (1+c)/2 J_I + (1-c)/2 J_G, from the constant Choi matrices of the identity and of G."""
    check_theta(theta)
    if not -1 <= _one_real(c, "c") <= 1:  # a NaN fails too
        raise ValidationError(f"dephasing coefficient c = {c} outside [-1, 1]")
    c = float(c)  # in float32, (1+c)/2 + (1-c)/2 misses 1 by about 3e-8: J would be no channel
    gamma = _CHOI_Z if first_interval(theta) else _CHOI_X
    return ExtractionChannel(0.5 * (1 + c) * _CHOI_I + 0.5 * (1 - c) * gamma)


def _check_s(s) -> float:
    """s as a Python float; ValidationError unless it is one real number that a float holds: an int past the
    float range is refused before float() would overflow, as ``check_theta`` range-checks theta."""
    if isinstance(_one_real(s, "s"), int) and not -sys.float_info.max <= s <= sys.float_info.max:
        raise ValidationError(f"s is a {s.bit_length()}-bit int past the float range")
    return float(s)


def dephasing_coefficient(theta, s) -> float:
    """c(theta) = 4s sin(theta) on the first interval and 4s cos(theta) on the second, clipped to [-1, 1],
    where the map is a channel: it saturates at 1 for s >= 0 and at -1 for s < 0. ``_coefficient_rule`` at
    one angle, as a Python float; ValidationError unless theta and s are each one real number."""
    theta, s = check_theta(theta), _check_s(s)
    return _coefficient_rule(s, math.sin(theta) if first_interval(theta) else math.cos(theta))


def t_constraints(s, theta) -> tuple:
    """Largest shifts (t0*, t1*), possibly negative, keeping all four operator inequalities PSD at theta and
    s: ``_shifts`` at one angle, as two Python floats; ValidationError unless s and theta are each one real
    number. The least eigenvalue of the four operators at the shifts t0 = t0*, t1 = t - t0* is min(0, t0* +
    t1* - t): the inequality holds at (s, t) iff min over theta of t0* + t1* >= t."""
    s, theta = _check_s(s), check_theta(theta)
    return _shifts(s, first_interval(theta), math.cos(theta), math.sin(theta))


def extractability_with_channel(asm: Assemblage, channel: ExtractionChannel) -> float:
    """Fidelity of the reference with the channel applied elementwise, tr(J W) = <J, W> with W =
    ``fidelity_operator(asm)``: a lower-bound witness for extractability at this channel."""
    return float(np.vdot(channel.choi, fidelity_operator(asm)).real)


def certified_lower_bound(asm: Assemblage, theta: float) -> float:
    """Analytic lower bound on extractability from the CHSH value at theta.

    ValidationError when some p(a|x) is more than MARGINAL_WINDOW from 1/2, since the certified statement
    assumes p(a|x) = 1/2, when the functional's maximum over theta exceeds 2 sqrt(2) by more than
    ENDPOINT_SLACK, which no quantum assemblage reaches, and, after those checks, unless the assemblage passes
    ``validate`` at VALIDITY_TOL: the bound holds only for a valid quantum assemblage.
    """
    dev = asm.max_marginal_deviation()
    if dev > MARGINAL_WINDOW:
        raise ValidationError(f"analytic bound assumes p(a|x) = 1/2; deviation {dev:.3e} exceeds {MARGINAL_WINDOW:.0e}")
    peak = max_violation_over_theta(asm)[1]
    if peak > BETA_QUANTUM + ENDPOINT_SLACK:
        raise ValidationError(f"CHSH maximum {peak:.9g} exceeds 2 sqrt(2): not a quantum assemblage")
    beta = chsh_functional(asm, theta)  # refuses theta before the validity check
    _require_valid(asm)
    return analytic_bound(beta)
