import math

import numpy as np
import pytest

from steerbound.assemblage import (
    Assemblage,
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
        from steerbound.assemblage import ClassicalStrategy

        value, _ = classical_fidelity(chsh_reference())
        ref = chsh_reference()
        worst_gap = math.inf
        for _ in range(300):
            n_lam = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(n_lam))
            hidden = {lam: random_density(rng) for lam in range(n_lam)}
            strategy = ClassicalStrategy(
                {lam: float(w[lam]) for lam in range(n_lam)},
                {
                    (lam, x): int(rng.integers(0, 2))
                    for lam in range(n_lam)
                    for x in range(2)
                },
                hidden,
            )
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
        assert len(strategy.weights) == 4  # |A|^|X| deterministic responses
        assert all(w == pytest.approx(0.25) for w in strategy.weights.values())
        strategy.check()
