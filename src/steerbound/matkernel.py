"""Small fixed-dimension Hermitian matrix algebra.

Everything downstream works with 2x2 (Bob's qubit) or 4x4 (two-qubit)
complex Hermitian matrices represented as plain numpy arrays. This module
holds the constants, the one checked eigenvalue routine that every
validator calls: ``hermitian_min_eigvals`` (closed form for stacks of 2x2
matrices, from ``_measures_2x2``), and the density-matrix check built on
it. The table of tolerances lives in ``certificate``.

A stack of 2x2 matrices is read once with ``tolist`` and worked on as
Python floats, matrix by matrix: the stacks here hold a handful of
matrices, where each numpy call on a tiny array costs more than the
arithmetic it does. 4x4 stacks stay in numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .certificate import VALIDITY_TOL, ValidationError

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

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


def _rows(m: np.ndarray) -> list:
    """A complex (..., 2, 2) stack read once, in C order: for each matrix
    [[a, b], [c, d]] the floats [Re a, Im a, Re b, Im b, Re c, Im c, Re d,
    Im d]. Sums of parts are numpy's complex sums bit for bit; hypot(re, im)
    is |z| to the last bit, with numpy's NaN, inf and overflow to inf."""
    return np.ascontiguousarray(m).view(float).reshape(-1, 8).tolist()


def _measures_2x2(rows: list) -> tuple:
    """(|M - M^dagger|'s entries |a - a*|, |b - c*|, |d - d*| of each matrix
    given by a row of ``_rows``, in one list; the least eigenvalue mean -
    radius of each one's Hermitian part, with mean = Re(a + d)/2 and radius
    the length of its Bloch vector (Re(a - d), Re(b + c), Im(b - c))/2)."""
    hypot, deviations, lower = math.hypot, [], []
    for ar, ai, br, bi, cr, ci, dr, di in rows:
        deviations += (hypot(ar - ar, ai + ai), hypot(br - cr, bi + ci), hypot(dr - dr, di + di))
        lower.append((ar + dr) / 2 - hypot((ar - dr) / 2, (br + cr) / 2, (bi - ci) / 2))
    return deviations, lower


def _check_hermitian(deviation: float, tol: float) -> None:
    if not deviation <= tol:  # NaN, from a non-finite entry, fails too
        raise ValidationError(f"matrix is not Hermitian within {tol:g}: max |M - M^dagger| = {deviation:.3e}")


def hermitian_min_eigvals(m: np.ndarray, tol: float) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (..., n, n) stack, n = 2 or 4,
    as an array of the stack's shape: mean - radius (``_measures_2x2``) for
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
        deviations, lower = _measures_2x2(_rows(m))
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
