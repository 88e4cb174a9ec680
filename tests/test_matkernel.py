import math

import numpy as np
import pytest

from steerbound.matkernel import (
    I2,
    I4,
    KET0,
    KET1,
    PAULI_X,
    PAULI_Z,
    ValidationError,
    eigh_hermitian,
    eigvals_2x2,
    eigvals_hermitian,
    kron,
    min_eigval,
    partial_trace_A,
    projector,
)
from conftest import random_density, random_hermitian

SQRT2 = math.sqrt(2)


class TestEigvals:
    def test_pauli_z(self):
        np.testing.assert_allclose(eigvals_hermitian(PAULI_Z), [-1, 1], atol=1e-14)

    def test_projector(self):
        np.testing.assert_allclose(
            eigvals_hermitian((I2 + PAULI_Z) / 2), [0, 1], atol=1e-14
        )

    def test_sum_of_two_projectors(self):
        # |0><0| + |+><+| = I + (X+Z)/2; characteristic polynomial gives
        # eigenvalues 1 -+ sqrt(2)/2
        m = projector(KET0) + projector((KET0 + KET1) / SQRT2)
        np.testing.assert_allclose(
            eigvals_hermitian(m), [1 - SQRT2 / 2, 1 + SQRT2 / 2], atol=1e-12
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            eigvals_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValidationError):
            eigvals_hermitian(np.eye(3))

    def test_stacked_closed_form(self, rng):
        # any (..., 2, 2) stack, against numpy on each matrix's Hermitian part
        m = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
        hermitian = (m + m.conj().swapaxes(-1, -2)) / 2
        np.testing.assert_allclose(eigvals_2x2(m), np.linalg.eigvalsh(hermitian), atol=1e-12)

    def test_trace_matches_eigenvalue_sum(self, rng):
        for dim in (2, 4):
            for _ in range(50):
                m = random_hermitian(rng, dim)
                assert abs(eigvals_hermitian(m).sum() - np.trace(m).real) < 1e-10


class TestMinEigval:
    def test_zero_matrix(self):
        assert min_eigval(np.zeros((2, 2))) == 0

    def test_pauli_z(self):
        assert min_eigval(PAULI_Z) == pytest.approx(-1)

    def test_shifted_x(self):
        # (I + X)/2 - 0.6 X = I/2 - 0.1 X has min eigenvalue 0.5 - 0.1
        m = (I2 + PAULI_X) / 2 - 0.6 * PAULI_X
        assert min_eigval(m) == pytest.approx(0.4, abs=1e-12)



class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(I2, I2), I4)

    def test_z_identity(self):
        np.testing.assert_allclose(kron(PAULI_Z, I2), np.diag([1, 1, -1, -1]))

    def test_single_entry(self):
        m = kron(projector(KET0), projector(KET1))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kron(I2, I4)


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / SQRT2
        np.testing.assert_allclose(
            partial_trace_A(np.outer(phi, phi.conj())), I2 / 2, atol=1e-14
        )

    def test_product_rule(self):
        a = projector(KET0) * 0.7
        b = random_hermitian(np.random.default_rng(3), 2)
        np.testing.assert_allclose(
            partial_trace_A(kron(a, b)), np.trace(a) * b, atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(partial_trace_A(I4), 2 * I2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace_A(I2)


class TestInvariants:
    def test_eigendecomposition_reconstruction(self, rng):
        for dim in (2, 4):
            for _ in range(100):
                m = random_hermitian(rng, dim)
                vals, vecs = eigh_hermitian(m)
                np.testing.assert_allclose(
                    vecs @ np.diag(vals) @ vecs.conj().T, m, atol=1e-9
                )

    def test_partial_trace_of_kron(self, rng):
        for _ in range(100):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            np.testing.assert_allclose(
                partial_trace_A(kron(a, b)), np.trace(a).real * b, atol=1e-10
            )

    def test_scaled_density_is_psd(self, rng):
        for _ in range(100):
            p = rng.uniform(0, 1)
            assert min_eigval(p * random_density(rng)) >= -1e-12
