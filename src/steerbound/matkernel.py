"""Small fixed-dimension Hermitian matrix algebra.

Everything downstream works with 2x2 (Bob's qubit) or 4x4 (two-qubit)
complex Hermitian matrices represented as plain numpy arrays. This module
holds the constants, the one checked eigenvalue routine that every
validator calls: ``hermitian_min_eigvals`` (closed form for stacks of 2x2
matrices, ``eigvals_2x2``), and the density-matrix check built on it.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
PHYSICAL_TOL = 1e-10  # slack of the unit-trace, PSD and POVM-completeness checks

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)


class ValidationError(ValueError):
    """Input violates a documented precondition."""


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| for a (not necessarily normalized) vector."""
    v = np.asarray(ket, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def eigvals_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix in a
    (..., 2, 2) stack, in closed form: mean -+ hypot((a - d)/2, |b|), with
    a, d the real diagonal and b the averaged off-diagonal entry."""
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    mean = (a + d) / 2
    radius = np.hypot((a - d) / 2, np.abs(m[..., 0, 1] + m[..., 1, 0].conj()) / 2)
    return np.stack([mean - radius, mean + radius], axis=-1)


def hermitian_min_eigvals(m: np.ndarray, tol: float) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (..., n, n) stack, n = 2 or 4:
    ``eigvals_2x2`` for n = 2, numpy's ``eigvalsh`` for n = 4.

    ValidationError on any other shape, and unless every entry of every
    matrix is finite and within ``tol`` of the adjoint's. This is the one
    place that decides Hermiticity.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValidationError(f"expected a stack of 2x2 or 4x4 matrices, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf
        deviation = np.abs(m - adjoint).max(initial=0.0)
    if not deviation <= tol:  # NaN, from a non-finite entry, fails too
        raise ValidationError(f"matrix is not Hermitian within {tol:g}: max |M - M^dagger| = {deviation:.3e}")
    if m.shape[-1] == 2:
        return eigvals_2x2(m)[..., 0]
    return np.linalg.eigvalsh((m + adjoint) / 2)[..., 0]


def density_matrix(m, size: int, name: str) -> np.ndarray:
    """m as a complex size x size array, or a (..., size, size) stack of
    them; ValidationError, naming it ``name``, unless it has that shape and
    every matrix has unit trace and is Hermitian and PSD, each within
    PHYSICAL_TOL. The one density-matrix check."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (size, size):
        raise ValidationError(f"{name} must be a {size}x{size} matrix")
    if (np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1) > PHYSICAL_TOL).any():
        raise ValidationError(f"{name} must have unit trace")
    if (hermitian_min_eigvals(m, PHYSICAL_TOL) < -PHYSICAL_TOL).any():
        raise ValidationError(f"{name} must be PSD")
    return m
