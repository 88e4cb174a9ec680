import math

import numpy as np
import pytest

from steerbound.assemblage import (
    Assemblage,
    ClassicalStrategy,
    QuantumRealization,
    chsh_reference,
    from_classical,
    random_realization,
    realize,
)
from steerbound.fidelity import (
    appendix_b_strategy,
    assemblage_fidelity,
    classical_fidelity,
    state_fidelity,
)
from steerbound.matkernel import (
    I2,
    KET0,
    KET1,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    ValidationError,
    projector,
)
from conftest import random_density

SQRT2 = math.sqrt(2)


class TestStateFidelity:
    def test_identical_states(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert state_fidelity(projector(KET0), projector(KET1)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_pure_vs_maximally_mixed(self):
        assert state_fidelity(projector(KET0), I2 / 2) == pytest.approx(0.5, abs=1e-12)

    def test_z_vs_x_eigenstate(self):
        # |<0|+>|^2 = 1/2
        assert state_fidelity(projector(KET0), projector(KET_PLUS)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_symmetry(self, rng):
        for _ in range(50):
            rho, sigma = random_density(rng), random_density(rng)
            assert state_fidelity(rho, sigma) == pytest.approx(
                state_fidelity(sigma, rho), abs=1e-12
            )

    def test_matches_sqrt_matrix_definition(self, rng):
        # oracle: F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via eigendecomposition
        for _ in range(50):
            rho, sigma = random_density(rng), random_density(rng)
            vals, vecs = np.linalg.eigh(rho)
            sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
            inner = sqrt_rho @ sigma @ sqrt_rho
            ivals = np.clip(np.linalg.eigvalsh(inner), 0, None)
            oracle = float(np.sum(np.sqrt(ivals))) ** 2
            assert state_fidelity(rho, sigma) == pytest.approx(oracle, abs=1e-9)

    def test_range(self, rng):
        for _ in range(100):
            f = state_fidelity(random_density(rng), random_density(rng))
            assert 0.0 <= f <= 1.0

    def test_rejects_non_density(self):
        with pytest.raises(ValidationError):
            state_fidelity(2 * projector(KET0), projector(KET0))
        with pytest.raises(ValidationError):
            state_fidelity(projector(KET0), PAULI_Z)

    def test_broadcasts_over_stacks(self, rng):
        rhos = np.array([random_density(rng) for _ in range(12)]).reshape(3, 4, 2, 2)
        sigma = random_density(rng)
        stacked = state_fidelity(rhos, sigma)
        assert stacked.shape == (3, 4)
        for index in np.ndindex(3, 4):
            assert stacked[index] == state_fidelity(rhos[index], sigma)

    def test_stack_rejects_any_non_density(self, rng):
        rhos = np.array([random_density(rng) for _ in range(3)])
        rhos[1] = PAULI_Z
        with pytest.raises(ValidationError):
            state_fidelity(rhos, I2 / 2)


class TestAssemblageFidelity:
    def test_self_fidelity(self):
        ref = chsh_reference()
        assert assemblage_fidelity(ref, ref) == pytest.approx(1.0, abs=1e-12)

    def test_dephased_reference(self):
        # full Z-dephasing kills the X-basis pair's coherence:
        # per-setting fidelities 1 and 1/2, average 3/4
        ref = chsh_reference()
        dephased = (ref.elements + PAULI_Z @ ref.elements @ PAULI_Z) / 2
        f = assemblage_fidelity(ref, Assemblage(dephased))
        assert f == pytest.approx(0.75, abs=1e-12)

    def test_appendix_strategy_value(self):
        asm = from_classical(appendix_b_strategy())
        f = assemblage_fidelity(chsh_reference(), asm)
        assert f == pytest.approx((2 + SQRT2) / 4, abs=1e-12)

    def test_shape_mismatch(self):
        ref = chsh_reference()
        other = Assemblage([[I2 / 2], [I2 / 2]])
        with pytest.raises(ValidationError):
            assemblage_fidelity(ref, other)

    def test_zero_probability_terms_vanish(self):
        # sigma_{1|x} = 0: those terms contribute nothing, so the value is
        # (1/2) sqrt(1/2) (F_00 + F_01) with F_0x = |<0|rho*_{0|x}|0>| = 1, 1/2
        one_sided = from_classical(ClassicalStrategy([1.0], [[0, 0]], [projector(KET0)]))
        expected = math.sqrt(0.5) * (1 + 0.5) / 2
        assert assemblage_fidelity(chsh_reference(), one_sided) == pytest.approx(expected, abs=1e-15)
        assert assemblage_fidelity(one_sided, chsh_reference()) == pytest.approx(expected, abs=1e-15)

    def test_bounded_by_one(self, rng):
        ref = chsh_reference()
        for _ in range(25):
            asm = realize(random_realization(rng))
            f = assemblage_fidelity(ref, asm)
            assert 0.0 <= f <= 1.0 + 1e-12


class TestClassicalFidelity:
    def test_chsh_value(self):
        value, _ = classical_fidelity(chsh_reference())
        assert value == pytest.approx((2 + SQRT2) / 4, abs=1e-9)

    def test_strategy_achieves_value(self):
        value, strategy = classical_fidelity(chsh_reference())
        asm = from_classical(strategy)
        achieved = assemblage_fidelity(chsh_reference(), asm)
        assert achieved == pytest.approx(value, abs=1e-9)

    def test_no_classical_strategy_beats_it(self, rng):
        # random hidden-state models with up to 4 lambdas never exceed the optimum
        value, _ = classical_fidelity(chsh_reference())
        ref = chsh_reference()
        worst_gap = math.inf
        for _ in range(300):
            n_lam = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(n_lam))
            hidden = [random_density(rng) for _ in range(n_lam)]
            strategy = ClassicalStrategy(w, rng.integers(0, 2, size=(n_lam, 2)), hidden)
            f = assemblage_fidelity(ref, from_classical(strategy))
            worst_gap = min(worst_gap, value - f)
            assert f <= value + 1e-9
        assert worst_gap > -1e-9

    def test_appendix_strategy_is_optimal(self):
        value, _ = classical_fidelity(chsh_reference())
        asm = from_classical(appendix_b_strategy())
        assert assemblage_fidelity(chsh_reference(), asm) == pytest.approx(
            value, abs=1e-12
        )

    def test_rejects_mixed_reference(self):
        probs = np.trace(chsh_reference().elements, axis1=2, axis2=3).real
        with pytest.raises(ValidationError):
            classical_fidelity(Assemblage(probs[..., None, None] * I2 / 2))

    def test_strategy_structure(self):
        _, strategy = classical_fidelity(chsh_reference())
        # the four deterministic responses (a_0, a_1), uniformly mixed
        np.testing.assert_array_equal(strategy.responses, [[0, 0], [0, 1], [1, 0], [1, 1]])
        np.testing.assert_array_equal(strategy.weights, 0.25)
        assert strategy.hidden_states.shape == (4, 2, 2)
        strategy.check()

    def test_rejects_three_settings(self):
        # a third setting used to yield an 8-response strategy whose
        # assemblage silently dropped that setting
        ket_y = np.array([1, 1j]) / SQRT2
        povms = {x: [projector(k), I2 - projector(k)] for x, k in enumerate((KET0, KET_PLUS, ket_y))}
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / SQRT2
        ref = realize(QuantumRealization(np.outer(phi, phi.conj()), povms))
        assert ref.elements.shape == (2, 3, 2, 2)
        with pytest.raises(ValidationError, match="two-setting, two-outcome"):
            classical_fidelity(ref)
