"""CHSH steering functional.

Bob's two dichotomic observables reduce, via Jordan's lemma, to the
one-parameter qubit family B0 = cos(t)Z + sin(t)X, B1 = cos(t)Z - sin(t)X.
The CHSH functional on an assemblage is Tr[sum_{a,x} T_{ax} sigma_{a|x}]
with T_{00} = -T_{10} = 2cos(t)Z and T_{01} = -T_{11} = 2sin(t)X.
"""

from __future__ import annotations

import math

import numpy as np

from .assemblage import Assemblage
from .certificate import BETA_CLASSICAL, BETA_QUANTUM, ENDPOINT_SLACK, ValidationError
from .matkernel import PAULI_X, PAULI_Z


def _one_real(x, name: str):
    """x, unless it is not one real number (an int, a float or a numpy scalar): then ValidationError."""
    if not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be one real number, got {type(x).__name__}")
    return x


def check_theta(theta) -> float:
    """theta as a Python float; ValidationError unless it is one real number in [0, pi/2 + ENDPOINT_SLACK]."""
    if not 0 <= _one_real(theta, "theta") <= math.pi / 2 + ENDPOINT_SLACK:  # a NaN fails too
        raise ValidationError(f"theta = {theta} outside [0, pi/2]")
    return float(theta)


def t_operators(theta: float) -> np.ndarray:
    """T[a, x], in the assemblage layout, for Bob's pair at the Jordan angle
    theta: T_{00} = B0 + B1 = 2cos(t)Z and T_{01} = B0 - B1 = 2sin(t)X, with
    sign-flipped partners for outcome 1. ValidationError unless theta is in
    [0, pi/2]."""
    check_theta(theta)
    t0 = np.array([2 * math.cos(theta) * PAULI_Z, 2 * math.sin(theta) * PAULI_X])
    return np.array([t0, -t0])


def chsh_functional(asm: Assemblage, theta: float) -> float:
    """Value of the CHSH steering functional on an assemblage at the Jordan
    angle theta, Tr[sum_{a,x} T_{ax} sigma_{a|x}] = u cos(theta) + w sin(theta).
    ValidationError unless theta is in [0, pi/2]."""
    check_theta(theta)
    u, w = asm._chsh
    return u * math.cos(theta) + w * math.sin(theta)


def max_violation_over_theta(asm: Assemblage):
    """(theta*, beta*): the maximum of the functional over theta in [0, pi/2].

    For u, w > 0 (the CHSH pair ``Assemblage._chsh``) the maximum is
    hypot(u, w) at atan2(w, u); otherwise there is no interior maximum and
    the better endpoint wins: theta* = 0 if u >= w, else pi/2.
    """
    return _maximum(*asm._chsh)


def _maximum(u: float, w: float):
    """(theta*, beta*) of ``max_violation_over_theta`` from the coefficients."""
    if u > 0 and w > 0:
        theta = math.atan2(w, u)
    else:
        theta = 0.0 if u >= w else math.pi / 2
    return theta, u * math.cos(theta) + w * math.sin(theta)
