import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def numpy_min_eigvals(m, tol):
    """The 2x2 closed form as whole-stack numpy arrays, with the same
    Hermiticity rule; None where that rule refuses the stack."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):
        deviation = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not deviation <= tol:
        return None
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(m[..., 0, 1] + m[..., 1, 0].conj()) / 2)
