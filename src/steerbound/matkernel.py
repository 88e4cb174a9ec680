"""Small fixed-dimension Hermitian matrix algebra.

Everything downstream works with 2x2 (Bob's qubit) or 4x4 (two-qubit)
complex Hermitian matrices represented as plain numpy arrays. This module
provides the validated primitives: eigenvalues (in closed form for stacks of
2x2 matrices), tensor products and the partial trace over the first factor.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12

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


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise ValidationError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2; suppresses roundoff before eigen-solving."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def eigvals_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian 2x2 or 4x4 matrix.

    The 2x2 case is ``eigvals_2x2``; 4x4 falls back to numpy's Hermitian
    eigensolver.
    """
    m = check_hermitian(m, tol)
    return eigvals_2x2(m) if m.shape[0] == 2 else np.linalg.eigvalsh(symmetrize(m))


def eigvals_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix in a
    (..., 2, 2) stack, in closed form: mean -+ hypot((a - d)/2, |b|), with
    a, d the real diagonal and b the averaged off-diagonal entry."""
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    mean = (a + d) / 2
    radius = np.hypot((a - d) / 2, np.abs(m[..., 0, 1] + m[..., 1, 0].conj()) / 2)
    return np.stack([mean - radius, mean + radius], axis=-1)


def eigh_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL):
    """Ascending eigenvalues and eigenvectors (columns) of a Hermitian matrix."""
    m = symmetrize(check_hermitian(m, tol))
    return np.linalg.eigh(m)


def min_eigval(m: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    return float(eigvals_hermitian(m, tol)[0])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two 2x2 matrices, first-factor-major ordering."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValidationError("kron expects two 2x2 matrices")
    return np.kron(a, b)


def partial_trace_A(m: np.ndarray) -> np.ndarray:
    """Trace out the first (major) tensor factor of a 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError("partial_trace_A expects a 4x4 matrix")
    return m.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
