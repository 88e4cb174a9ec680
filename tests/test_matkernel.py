import ast
import math
from pathlib import Path

import numpy as np
import pytest

from steerbound import matkernel
from steerbound.matkernel import (
    I2,
    I4,
    KET0,
    KET1,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ValidationError,
    _measures_2x2,
    _rows,
    hermitian_min_eigvals,
    projector,
)
from conftest import numpy_min_eigvals, random_density, random_hermitian

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning

SQRT2 = math.sqrt(2)
TOL = 1e-12



def _lower_closed_form(m) -> np.ndarray:
    """mean - radius of each matrix's Hermitian part in a (..., 2, 2) stack,
    by the retired ``eigvals_2x2``'s Python arithmetic on its parts: the
    reference for the bits of ``_measures_2x2``."""
    m = np.asarray(m, dtype=complex)
    rows = m.view(float).reshape(-1, 8).tolist()
    lower = [
        (ar + dr) / 2 - math.hypot((ar - dr) / 2, (br + cr) / 2, (bi - ci) / 2)
        for ar, ai, br, bi, cr, ci, dr, di in rows
    ]
    return np.array(lower, dtype=float).reshape(m.shape[:-2])


class TestMeasures2x2:
    def test_stacked_closed_form(self, rng):
        # any (..., 2, 2) stack, Hermitian or not, against numpy's least
        # eigenvalue of each matrix's Hermitian part
        m = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
        hermitian = (m + m.conj().swapaxes(-1, -2)) / 2
        _, lower = _measures_2x2(_rows(m))
        np.testing.assert_allclose(np.reshape(lower, (5, 3)), np.linalg.eigvalsh(hermitian)[..., 0], atol=1e-12)

    def test_deviations_are_the_adjoint_gaps(self, rng):
        # three entries per matrix, in row order: |a - a*|, |b - c*| and
        # |d - d*|, numpy's |M - M^dagger| entries
        m = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        deviations, _ = _measures_2x2(_rows(m))
        gaps = np.abs(m - m.conj().swapaxes(-1, -2))
        np.testing.assert_allclose(deviations, gaps[:, [0, 0, 1], [0, 1, 1]].reshape(-1), rtol=1e-15)


class TestHermitianMinEigvals:
    def test_zero_matrix(self):
        assert hermitian_min_eigvals(np.zeros((2, 2)), TOL) == 0

    def test_pauli_z(self):
        assert hermitian_min_eigvals(PAULI_Z, TOL) == pytest.approx(-1, abs=1e-14)

    def test_projector(self):
        assert hermitian_min_eigvals((I2 + PAULI_Z) / 2, TOL) == pytest.approx(0, abs=1e-14)

    def test_sum_of_two_projectors(self):
        # |0><0| + |+><+| = I + (X+Z)/2; characteristic polynomial gives
        # eigenvalues 1 -+ sqrt(2)/2
        m = projector(KET0) + projector((KET0 + KET1) / SQRT2)
        assert hermitian_min_eigvals(m, TOL) == pytest.approx(1 - SQRT2 / 2, abs=1e-12)

    def test_shifted_x(self):
        # (I + X)/2 - 0.6 X = I/2 - 0.1 X has min eigenvalue 0.5 - 0.1
        m = (I2 + PAULI_X) / 2 - 0.6 * PAULI_X
        assert hermitian_min_eigvals(m, TOL) == pytest.approx(0.4, abs=1e-12)

    def test_four_by_four(self):
        # Z (x) Z - I has eigenvalues 0 and -2
        assert hermitian_min_eigvals(np.kron(PAULI_Z, PAULI_Z) - I4, TOL) == pytest.approx(-2, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_matches_eigvalsh(self, rng, dim):
        m = np.array([[random_hermitian(rng, dim) for _ in range(3)] for _ in range(5)])
        got = hermitian_min_eigvals(m, TOL)
        assert got.shape == (5, 3)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(m)[..., 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_scaled_density_is_psd(self, rng, dim):
        stack = np.array([rng.uniform(0, 1) * random_density(rng, dim) for _ in range(100)])
        assert (hermitian_min_eigvals(stack, TOL) >= -1e-12).all()

    def test_deviation_within_tolerance_accepted(self):
        m = PAULI_Z + 1e-13 * (PAULI_X + 1j * PAULI_Y) / 2  # M - M^dagger has entries 1e-13
        assert hermitian_min_eigvals(m, TOL) == pytest.approx(-1, abs=1e-12)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[0, 1], [0, 0]], dtype=complex),
            PAULI_Z + 1e-11 * (PAULI_X + 1j * PAULI_Y) / 2,
            1j * I2,  # a non-real diagonal
            np.kron(PAULI_X, np.array([[0, 1], [-1, 0]])),
            np.array([I2, [[0.5, 0.2], [-0.2, 0.5]], I2]),  # one bad matrix in a stack
            np.array([[math.nan, 0], [0, 1]]),
            np.array([[math.inf, 0], [0, 1]]),
        ],
        ids=["nilpotent", "above-tol", "imaginary-diagonal", "4x4", "stack", "nan", "inf"],
    )
    def test_non_hermitian_rejected(self, m):
        with pytest.raises(ValidationError, match="not Hermitian"):
            hermitian_min_eigvals(m, TOL)

    def test_two_by_two_is_the_lower_closed_form_eigenvalue(self, rng):
        # the 2x2 branch computes only mean - radius, bit for bit the lower
        # of the closed-form pair, also off Hermitian by less than tol
        m = rng.normal(size=(40, 3, 2, 2)) + 1j * rng.normal(size=(40, 3, 2, 2))
        m = (m + m.conj().swapaxes(-1, -2)) / 2 + 1e-13 * rng.normal(size=m.shape)
        got = hermitian_min_eigvals(m, TOL)
        assert got.shape == (40, 3)
        np.testing.assert_array_equal(got, _lower_closed_form(m))
        assert hermitian_min_eigvals(m[0, 0], TOL) == _lower_closed_form(m[0, 0])

    def test_matches_the_numpy_closed_form_on_seeded_stacks(self):
        # 10,000 seeded stacks of every shape from (2, 2) to (3, 3, 2, 2),
        # entries up to 10, off Hermitian by 1e-14 to 1e-8: refused exactly
        # where the numpy formula refuses, and otherwise within a few ulps
        # of its values (numpy's complex abs and math.hypot may differ in
        # the last bit)
        rng = np.random.default_rng(26)
        shapes = [(2, 2), (1, 2, 2), (4, 2, 2), (2, 2, 2, 2), (3, 3, 2, 2)]
        refused = 0
        for n in range(10_000):
            shape, scale = shapes[n % 5], 10 ** rng.uniform(-2, 1)
            g = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
            m = scale * (g + g.conj().swapaxes(-1, -2)) / 2
            m = m + 10 ** rng.uniform(-14, -8) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            want = numpy_min_eigvals(m, TOL)
            if want is None:
                refused += 1
                with pytest.raises(ValidationError, match="not Hermitian"):
                    hermitian_min_eigvals(m, TOL)
                continue
            got = hermitian_min_eigvals(m, TOL)
            assert got.shape == shape[:-2]
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * max(1.0, np.abs(m).max()), n
        assert 1_000 < refused < 9_000

    def test_overflowing_deviation_is_a_refusal(self):
        # |M - M^dagger| of finite entries can exceed the float range, where
        # abs of a Python complex raises OverflowError: numpy gives inf
        m = np.array([[0, 1.3e308 * (1 + 1j)], [0, 0]])
        with pytest.raises(ValidationError) as err:
            hermitian_min_eigvals(m, TOL)
        assert str(err.value) == "matrix is not Hermitian within 1e-12: max |M - M^dagger| = inf"

    def test_hermiticity_refusal_text(self):
        with pytest.raises(ValidationError) as err:
            hermitian_min_eigvals(np.array([[0, 1], [0, 0]]), TOL)
        assert str(err.value) == "matrix is not Hermitian within 1e-12: max |M - M^dagger| = 1.000e+00"

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 3), (5, 2, 4), (1, 1)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValidationError, match="2x2 or 4x4"):
            hermitian_min_eigvals(np.zeros(shape), TOL)


def test_complex_warning_is_an_error():
    # numpy's ComplexWarning (an imaginary part silently dropped) subclasses
    # RuntimeWarning, which the pytest configuration turns into an error
    with pytest.raises(ComplexWarning):
        np.array([1j]).astype(float)


def _is_hypot(node) -> bool:
    return isinstance(node, ast.Call) and "hypot" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_copy_of_each_certificate_formula():
    # each certificate formula has one scalar code path: no np.frompyfunc
    # broadcast anywhere in the package, and the 2x2 closed form on one
    # line each, in matkernel -- mean - radius (the one hypot of a
    # three-component Bloch vector) and the |M - M^dagger| triple (three
    # hypots side by side) -- which both hermitian_min_eigvals and
    # Assemblage._measures read
    package = Path(matkernel.__file__).resolve().parent
    radius, triple, broadcast = set(), set(), []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if "frompyfunc" in text:
            broadcast.append(path.name)
        for node in ast.walk(ast.parse(text)):
            if _is_hypot(node) and len(node.args) == 3:
                radius.add((path.name, node.lineno))
            if isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) == 3 and all(map(_is_hypot, node.elts)):
                triple.add((path.name, node.lineno))
    assert broadcast == []
    assert len(radius) == len(triple) == 1
    assert {name for name, _ in radius | triple} == {"matkernel.py"}
