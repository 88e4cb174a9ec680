"""Small fixed-dimension Hermitian matrix algebra.

Everything downstream works with 2x2 (Bob's qubit) or 4x4 (two-qubit)
complex Hermitian matrices represented as plain numpy arrays. This module
holds the constants, the one layout of a 2x2 matrix (``PauliRow``), the
one checked eigenvalue routine ``hermitian_min_eigvals`` (closed form for
2x2 stacks, ``_measures_2x2``) and the density-matrix check built on it.
The table of tolerances lives in ``certificate``.

A stack of 2x2 matrices is read once with ``tolist``, into Pauli rows
(``_pauli_rows``), and worked on as Python floats, matrix by matrix: the
stacks here hold a handful of matrices, where each numpy call on a tiny
array costs more than the arithmetic it does. 4x4 stacks stay in numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

import numpy as np

from .certificate import VALIDITY_TOL, ValidationError

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# M = (alpha I + x X + y Y + z Z) + i (alpha_i I + x_i X + y_i Y + z_i Z), a 2x2
# matrix by its Pauli row; PAULI_BASIS holds the matrix of each component, in order
PauliRow = namedtuple("PauliRow", "alpha x y z alpha_i x_i y_i z_i", defaults=(0.0,) * 8)
_row = partial(tuple.__new__, PauliRow)  # a PauliRow from an iterable of its components, with no Python-level call
PAULI_BASIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z, 1j * I2, 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z])

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)  # (|00> + |11>)/sqrt(2)


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| for a (not necessarily normalized) vector."""
    v = np.asarray(ket, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _largest(values: list) -> float:
    """The largest of the floats ``values`` (0 for none) as numpy's ``max``
    gives it: NaN if any is NaN, which Python's ``max`` keeps only when it
    comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values) if values else 0.0


def _smallest(values: list) -> float:
    """The least of the floats ``values`` as numpy's ``min`` gives it: NaN
    if any is NaN."""
    return math.nan if any(map(math.isnan, values)) else min(values)


def _pauli_rows(m: np.ndarray) -> tuple:
    """A complex (..., 2, 2) stack read once, in C order, as one ``PauliRow`` per matrix: the one
    reader of a 2x2 matrix's entries. Each part is halved before the sums, which then overflow
    nowhere: a row is finite exactly when its matrix is, and away from subnormals each component
    is the correctly rounded half-sum, alpha = (Re a + Re d)/2 and so on."""
    halves = (np.ascontiguousarray(m).view(float).reshape(-1, 8) / 2).tolist()
    return tuple([_row((ar + dr, br + cr, ci - bi, ar - dr, ai + di, bi + ci, br - cr, ai - di))
                  for ar, ai, br, bi, cr, ci, dr, di in halves])


def _moduli(alpha, x, y, z, alpha_i, x_i, y_i, z_i) -> tuple:
    """|a|, |b|, |c| and |d| of the matrix [[a, b], [c, d]] whose Pauli row is the arguments."""
    hypot = math.hypot
    return (hypot(alpha + z, alpha_i + z_i), hypot(x + y_i, x_i - y), hypot(x - y_i, x_i + y),
            hypot(alpha - z, alpha_i - z_i))


def _measures_2x2(rows) -> tuple:
    """(the |M - M^dagger| entries (``_moduli``) of each matrix given by a Pauli row, in one list;
    the least eigenvalue alpha - hypot(z, x, y) of each one's Hermitian part). M - M^dagger has the
    row (alpha - alpha, x - x, y - y, z - z, 2 alpha_i, 2 x_i, 2 y_i, 2 z_i), whose first four are
    0, or NaN where M is not finite, which fails every Hermiticity check."""
    hypot, deviations, lower = math.hypot, [], []
    for alpha, x, y, z, alpha_i, x_i, y_i, z_i in rows:
        deviations += _moduli(alpha - alpha, x - x, y - y, z - z, 2 * alpha_i, 2 * x_i, 2 * y_i, 2 * z_i)
        lower.append(alpha - hypot(z, x, y))
    return deviations, lower


def _check_hermitian(deviation: float, tol: float) -> None:
    if not deviation <= tol:  # NaN, from a non-finite entry, fails too
        raise ValidationError(f"matrix is not Hermitian within {tol:g}: max |M - M^dagger| = {deviation:.3e}")


def hermitian_min_eigvals(m: np.ndarray, tol: float) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (..., n, n) stack, n = 2 or 4,
    as an array of the stack's shape: alpha - |(x, y, z)| (``_measures_2x2``) for
    n = 2, numpy's ``eigvalsh`` for n = 4.

    ValidationError on any other shape, and unless every entry of every
    matrix is finite and within ``tol`` of the adjoint's. This is the one
    place that decides Hermiticity (``validate`` compares the same 2x2
    deviation, from ``_measures_2x2`` too, with its tolerance).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValidationError(f"expected a stack of 2x2 or 4x4 matrices, got shape {m.shape}")
    if m.shape[-1] == 2:
        deviations, lower = _measures_2x2(_pauli_rows(m))
        _check_hermitian(_largest(deviations), tol)
        return np.array(lower, dtype=float).reshape(m.shape[:-2])
    adjoint = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf
        _check_hermitian(np.abs(m - adjoint).max(initial=0.0), tol)
    return np.linalg.eigvalsh((m + adjoint) / 2)[..., 0]


def density_matrix(m, size: int, name: str) -> np.ndarray:
    """m as a complex size x size array, or a (..., size, size) stack of
    them; ValidationError, naming it ``name``, unless it has that shape and
    every matrix has unit trace and is Hermitian and PSD, each within
    VALIDITY_TOL. The one density-matrix check."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (size, size):
        raise ValidationError(f"{name} must be a {size}x{size} matrix")
    if (np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1) > VALIDITY_TOL).any():
        raise ValidationError(f"{name} must have unit trace")
    if (hermitian_min_eigvals(m, VALIDITY_TOL) < -VALIDITY_TOL).any():
        raise ValidationError(f"{name} must be PSD")
    return m
