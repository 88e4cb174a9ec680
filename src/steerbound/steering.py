"""CHSH steering functional.

Bob's two dichotomic observables reduce, via Jordan's lemma, to the
one-parameter qubit family B0 = cos(t)Z + sin(t)X, B1 = cos(t)Z - sin(t)X.
The CHSH functional on an assemblage is Tr[sum_{a,x} T_{ax} sigma_{a|x}]
with T_{00} = -T_{10} = 2cos(t)Z and T_{01} = -T_{11} = 2sin(t)X.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .assemblage import Assemblage
from .matkernel import PAULI_X, PAULI_Z, ValidationError

BETA_CLASSICAL = 2.0
BETA_QUANTUM = 2 * math.sqrt(2)


def check_theta(theta) -> None:
    """ValidationError unless every angle (a float or an array) is in [0, pi/2 + 1e-12]."""
    inside = (theta >= 0) & (theta <= math.pi / 2 + 1e-12)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise ValidationError(f"theta = {theta} outside [0, pi/2]")


def t_operators(theta: float) -> np.ndarray:
    """T[a, x], in the assemblage layout, for Bob's pair at the Jordan angle
    theta: T_{00} = B0 + B1 = 2cos(t)Z and T_{01} = B0 - B1 = 2sin(t)X, with
    sign-flipped partners for outcome 1. ValidationError unless theta is in
    [0, pi/2]."""
    check_theta(theta)
    t0 = np.array([2 * math.cos(theta) * PAULI_Z, 2 * math.sin(theta) * PAULI_X])
    return np.array([t0, -t0])


def _chsh_coefficients(asm: Assemblage):
    """(u, w) with beta(theta) = u cos(theta) + w sin(theta): u = 2 tr[Z(sigma_00
    - sigma_10)] and w = 2 tr[X(sigma_01 - sigma_11)]. ValidationError unless
    the assemblage is 2x2 and u and w are finite, each with an imaginary
    residue of at most 1e-10. The one reader of the CHSH value."""
    if asm.outcomes != 2 or asm.settings != 2:
        raise ValidationError("CHSH functional requires |A| = |X| = 2")
    d = (asm.elements[0] - asm.elements[1]).tolist()  # d[x] = sigma_{0|x} - sigma_{1|x}
    u = 2 * (d[0][0][0] - d[0][1][1])
    w = 2 * (d[1][0][1] + d[1][1][0])
    if not (cmath.isfinite(u) and cmath.isfinite(w)):
        raise ValidationError(f"CHSH coefficients not finite: u = {u}, w = {w}")
    residue = max(abs(u.imag), abs(w.imag))
    if residue > 1e-10:
        raise ValidationError(f"functional has imaginary residue {residue:.3e}")
    return u.real, w.real


def chsh_functional(asm: Assemblage, theta: float) -> float:
    """Value of the CHSH steering functional on an assemblage at the Jordan
    angle theta, Tr[sum_{a,x} T_{ax} sigma_{a|x}] = u cos(theta) + w sin(theta).
    ValidationError unless theta is in [0, pi/2]."""
    check_theta(theta)
    u, w = _chsh_coefficients(asm)
    return u * math.cos(theta) + w * math.sin(theta)


def max_violation_over_theta(asm: Assemblage):
    """(theta*, beta*): the maximum of the functional over theta in [0, pi/2].

    For u, w > 0 (see ``_chsh_coefficients``) the maximum is hypot(u, w) at
    atan2(w, u); otherwise there is no interior maximum and the better
    endpoint wins: theta* = 0 if u >= w, else pi/2.
    """
    u, w = _chsh_coefficients(asm)
    if u > 0 and w > 0:
        theta = math.atan2(w, u)
    else:
        theta = 0.0 if u >= w else math.pi / 2
    return theta, u * math.cos(theta) + w * math.sin(theta)
