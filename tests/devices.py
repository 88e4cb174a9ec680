"""Test devices: assemblages built to probe a certificate from outside.

A device is a list of blocks, each an assemblage with its weight. Alice's
flag says which block a round comes from, so the device's CHSH value and
its extractability are the weighted sums of its blocks' values, each block
at its own best angle (finding O; ROADMAP item 14).

Finding B's chord device mixes two blocks:

- ``z_sharp_x_blank()``: Z measured sharply, X blank; at theta = 0 its
  CHSH value is 2 and its extractability 3/4.
- ``chsh_reference()``: CHSH value 2 sqrt 2 and extractability 1.

``analytic_bound`` is the line through those two points, so the chord
device meets the paper's bound at every beta in [2, 2 sqrt 2]: the bound
cannot be raised anywhere on that range.
"""

from __future__ import annotations

import numpy as np

from steerbound.assemblage import Assemblage, chsh_reference
from steerbound.fidelity import extractability
from steerbound.certificate import BETA_CLASSICAL, BETA_QUANTUM, MARGINAL_WINDOW
from steerbound.matkernel import I2, KET0, KET1, PAULI_X, PAULI_Y, PAULI_Z, projector
from steerbound.steering import max_violation_over_theta


def general_assemblage(rng) -> Assemblage:
    """sigma_{0|x} = sqrt(rho) E_x sqrt(rho) for random effects 0 <= E_x <= I:
    Bob's marginal rho is not I/2 and p(a|x) is not 1/2, which moves the
    dual optimum of the extractability solve away from H = 0."""
    r = rng.normal(size=3)
    r *= rng.uniform(0, 0.9) / np.linalg.norm(r)
    vals, vecs = np.linalg.eigh((I2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    elements = np.zeros((2, 2, 2, 2), dtype=complex)
    for x in range(2):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        effect = (u * rng.uniform(0, 1, size=2)) @ u.conj().T
        elements[0, x] = root @ effect @ root
        elements[1, x] = root @ (I2 - effect) @ root
    return Assemblage(elements)


def z_sharp_x_blank() -> Assemblage:
    """sigma_{a|0} = |a><a|/2 and sigma_{a|1} = I/4: the block (beta, Xi) =
    (2, 3/4) of finding B, at theta = 0."""
    return Assemblage([[projector(KET0) / 2, I2 / 4], [projector(KET1) / 2, I2 / 4]])


Z_SHARP_X_BLANK = z_sharp_x_blank()
REFERENCE = chsh_reference()


def block_point(asm: Assemblage) -> tuple:
    """(beta, value, gap) of one block: its CHSH maximum over theta and its
    extractability solve, whose value is attained and lies within gap of
    the optimum (a few ms). ValueError for a block whose p(a|x) is not 1/2
    within MARGINAL_WINDOW: biased blocks need the overall marginals
    (finding O), not handled yet."""
    if asm.max_marginal_deviation() > MARGINAL_WINDOW:
        raise ValueError("devices take uniform-marginal blocks only")
    value, _, gap = extractability(asm)
    return max_violation_over_theta(asm)[1], value, gap


def device_point(device) -> tuple:
    """(beta, value, gap) of a device, a sequence of (weight, block) pairs
    with weights summing to 1: each summed over the blocks by weight."""
    points = [(weight, block_point(asm)) for weight, asm in device]
    return tuple(sum(weight * point[k] for weight, point in points) for k in range(3))


def chord_device(beta: float) -> tuple:
    """Finding B's chord device at CHSH value beta in [2, 2 sqrt 2]:
    ``Z_SHARP_X_BLANK`` and the reference, weighted to reach beta."""
    weight = (BETA_QUANTUM - beta) / (BETA_QUANTUM - BETA_CLASSICAL)
    return ((weight, Z_SHARP_X_BLANK), (1 - weight, REFERENCE))
