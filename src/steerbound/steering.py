"""CHSH steering functional.

Bob's two dichotomic observables reduce, via Jordan's lemma, to the
one-parameter qubit family B0 = cos(t)Z + sin(t)X, B1 = cos(t)Z - sin(t)X.
The CHSH functional on an assemblage is Tr[sum_{a,x} T_{ax} sigma_{a|x}]
with T_{00} = -T_{10} = 2cos(t)Z and T_{01} = -T_{11} = 2sin(t)X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BobObservables:
    """Jordan-lemma angle for Bob's pair of dichotomic observables."""

    theta: float

    def __post_init__(self):
        check_theta(self.theta)

    @property
    def b0(self) -> np.ndarray:
        return math.cos(self.theta) * PAULI_Z + math.sin(self.theta) * PAULI_X

    @property
    def b1(self) -> np.ndarray:
        return math.cos(self.theta) * PAULI_Z - math.sin(self.theta) * PAULI_X


def t_operators(obs: BobObservables) -> np.ndarray:
    """T[a, x], in the assemblage layout: T_{00} = B0 + B1 = 2cos(t)Z and
    T_{01} = B0 - B1 = 2sin(t)X, with sign-flipped partners for outcome 1."""
    t0 = np.array([obs.b0 + obs.b1, obs.b0 - obs.b1])
    return np.array([t0, -t0])


def chsh_functional(asm: Assemblage, obs: BobObservables) -> float:
    """Value of the CHSH steering functional on an assemblage."""
    if asm.outcomes != 2 or asm.settings != 2:
        raise ValidationError("CHSH functional requires |A| = |X| = 2")
    total = np.einsum("axij,axji->", t_operators(obs), asm.elements)
    if abs(total.imag) > 1e-10:
        raise ValidationError(f"functional has imaginary residue {total.imag:.3e}")
    return float(total.real)


def max_violation_over_theta(asm: Assemblage):
    """(theta*, beta*): the maximum of the functional over theta in [0, pi/2].

    beta(theta) = u cos(theta) + w sin(theta) with u = 2 tr[Z(sigma_00 -
    sigma_10)] and w = 2 tr[X(sigma_01 - sigma_11)]. For u, w > 0 the maximum
    is hypot(u, w) at atan2(w, u); otherwise there is no interior maximum and
    the better endpoint wins: theta* = 0 if u >= w, else pi/2.
    """
    if asm.outcomes != 2 or asm.settings != 2:
        raise ValidationError("CHSH functional requires |A| = |X| = 2")
    el = asm.elements
    u = 2 * float(np.trace(PAULI_Z @ (el[0, 0] - el[1, 0])).real)
    w = 2 * float(np.trace(PAULI_X @ (el[0, 1] - el[1, 1])).real)
    if not (math.isfinite(u) and math.isfinite(w)):
        raise ValidationError(f"CHSH coefficients not finite: u = {u}, w = {w}")
    if u > 0 and w > 0:
        theta = math.atan2(w, u)
    else:
        theta = 0.0 if u >= w else math.pi / 2
    return theta, u * math.cos(theta) + w * math.sin(theta)
