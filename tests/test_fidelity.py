import math
import re

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
    validate,
)
from steerbound.fidelity import (
    appendix_b_strategy,
    assemblage_fidelity,
    classical_fidelity,
    extractability,
    state_fidelity,
)
from steerbound.matkernel import (
    I2,
    KET0,
    KET1,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    ValidationError,
    projector,
)
from conftest import random_density

SQRT2 = math.sqrt(2)


def _non_psd_reference() -> Assemblage:
    """The reference with sigma_{0|0} = diag(0.75, -0.25) and sigma_{1|0} =
    diag(-0.25, 0.75): its marginals and traces, but not PSD."""
    elements = chsh_reference().elements.copy()
    elements[0, 0], elements[1, 0] = np.diag([0.75, -0.25]), np.diag([-0.25, 0.75])
    return Assemblage(elements)


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

    @pytest.mark.parametrize("p, live", [(0.5e-12, False), (2e-12, True)])
    def test_probability_floor_edge(self, p, live):
        # a sigma_{1|0} of trace p below PROB_FLOOR = 1e-12 contributes
        # nothing; above it, about sqrt(p/2)/2, 5e-7 at p = 2e-12
        def value(trace):
            elements = chsh_reference().elements.copy()
            elements[1, 0] = trace * projector(KET1)
            return assemblage_fidelity(chsh_reference(), Assemblage(elements))

        assert (value(p) != value(0.0)) == live

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

    def test_rejects_invalid_reference(self):
        # sigma_{0|0} = diag(0.75, -0.25), sigma_{1|0} = diag(-0.25, 0.75):
        # the reference's marginals and traces, but validate refuses it, and
        # classical_fidelity used to return 1.05901699 for it
        with pytest.raises(ValidationError, match=r"^positivity violated: min eigenvalue -2\.500e-01$"):
            classical_fidelity(_non_psd_reference())

    @pytest.mark.parametrize("h, refused", [(0.2e-12, False), (1e-12, True)])
    def test_hermiticity_edge(self, h, refused):
        # sigma_{0|0} gets +h above its diagonal only: over p = 1/2 its
        # |M - M^dagger| is 2h, against HERMITICITY_TOL = 1e-12, while
        # validate at 1e-10 passes it
        elements = chsh_reference().elements.copy()
        elements[0, 0, 0, 1] += h
        ref = Assemblage(elements)
        if refused:
            with pytest.raises(ValidationError, match="not Hermitian within 1e-12"):
                classical_fidelity(ref)
        else:
            assert classical_fidelity(ref)[0] == pytest.approx((2 + SQRT2) / 4, abs=1e-9)

    @pytest.mark.parametrize("eps, refused", [(0.5e-9, False), (2e-9, True)])
    def test_purity_edge(self, eps, refused):
        # sigma_{a|0} = ((1 - eps) P_a + eps P_(1-a))/2: a valid reference
        # whose setting-0 states have least eigenvalue eps, against
        # PURITY_TOL = 1e-9
        p0, p1 = projector(KET0), projector(KET1)
        elements = chsh_reference().elements.copy()
        elements[0, 0], elements[1, 0] = ((1 - eps) * p0 + eps * p1) / 2, ((1 - eps) * p1 + eps * p0) / 2
        self._check_purity(Assemblage(elements), refused)

    @pytest.mark.parametrize("p, refused", [(0.1, False), (0.025, True)])
    def test_purity_edge_is_two_sided(self, p, refused):
        # sigma_{0|0} = p |0><0| - 5e-11 |1><1| passes validate (the least
        # eigenvalue is -5e-11), and over its trace p its least eigenvalue
        # is -5e-10 at p = 0.1 and -2e-9 at p = 0.025: the purity test used
        # to pass any negative value
        eta = 0.5e-10
        p0, p1 = projector(KET0), projector(KET1)
        elements = np.array([[p * p0 - eta * p1, p * p0], [(1 - p + eta) * p1, (1 - p) * p1]])
        ref = Assemblage(elements)
        assert validate(ref).passed
        self._check_purity(ref, refused)

    @staticmethod
    def _check_purity(ref, refused):
        if refused:
            with pytest.raises(ValidationError, match=r"pure \(rank-1\)"):
                classical_fidelity(ref)
        else:
            assert 0 < classical_fidelity(ref)[0] <= 1

    def test_rejects_three_settings(self):
        # a third setting used to yield an 8-response strategy whose
        # assemblage silently dropped that setting
        ket_y = np.array([1, 1j]) / SQRT2
        povms = [[projector(k), I2 - projector(k)] for k in (KET0, KET_PLUS, ket_y)]
        ref = realize(QuantumRealization(np.outer(PHI_PLUS, PHI_PLUS.conj()), povms))
        assert ref.elements.shape == (2, 3, 2, 2)
        with pytest.raises(ValidationError, match="two-setting, two-outcome"):
            classical_fidelity(ref)


class TestExtractability:
    """extractability solves only what validate passes: a fidelity in [0, 1]."""

    @pytest.mark.parametrize(
        "make, failure",
        [
            # it used to return 1.2499999999997 (gap 3.1e-13) and 1.183
            (_non_psd_reference, "positivity violated: min eigenvalue -2.500e-01"),
            (lambda: Assemblage(1.4 * chsh_reference().elements), "normalization violated: deviation 4.000e-01"),
        ],
        ids=["non-psd", "scaled-1.4"],
    )
    def test_rejects_invalid_input(self, make, failure):
        # the error is validate's one failure line
        asm = make()
        assert validate(asm).failures() == [failure]
        with pytest.raises(ValidationError, match=f"^{re.escape(failure)}$"):
            extractability(asm)

    @pytest.mark.parametrize("excess, refused", [(0.5e-10, False), (2e-10, True)])
    def test_validity_edge(self, excess, refused):
        # the reference scaled by 1 + excess, against VALIDITY_TOL = 1e-10
        asm = Assemblage((1 + excess) * chsh_reference().elements)
        if refused:
            with pytest.raises(ValidationError, match=r"^normalization violated: deviation 2\.000e-10$"):
                extractability(asm)
        else:
            value, _, gap = extractability(asm)
            assert 0 < gap <= 3.1e-13  # the unscaled reference's gap
            # W, and so the extractability, scales by sqrt(1 + excess)
            assert value <= math.sqrt(1 + excess) <= value + gap
