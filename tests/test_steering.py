import math

import numpy as np
import pytest

from steerbound.assemblage import (
    Assemblage,
    ClassicalStrategy,
    chsh_reference,
    from_classical,
    random_realization,
    realize,
)
from steerbound.fidelity import appendix_b_strategy
from steerbound.matkernel import I2, KET0, PAULI_X, PAULI_Z, ValidationError, projector
from steerbound.steering import (
    BETA_CLASSICAL,
    BETA_QUANTUM,
    chsh_functional,
    max_violation_over_theta,
    t_operators,
)

SQRT2 = math.sqrt(2)


class TestObservables:
    # Bob's pair B0, B1 = cos(theta) Z +- sin(theta) X, read back from
    # T_{00} = B0 + B1 and T_{01} = B0 - B1
    def test_b0_b1_at_pi_over_4(self):
        ops = t_operators(math.pi / 4)
        np.testing.assert_allclose((ops[0, 0] + ops[0, 1]) / 2, (PAULI_Z + PAULI_X) / SQRT2, atol=1e-14)
        np.testing.assert_allclose((ops[0, 0] - ops[0, 1]) / 2, (PAULI_Z - PAULI_X) / SQRT2, atol=1e-14)

    def test_unit_eigenvalues(self):
        for theta in np.linspace(0, math.pi / 2, 21):
            ops = t_operators(float(theta))
            for b in ((ops[0, 0] + ops[0, 1]) / 2, (ops[0, 0] - ops[0, 1]) / 2):
                np.testing.assert_allclose(b @ b, np.eye(2), atol=1e-12)

    def test_theta_out_of_range(self):
        for theta in (-0.1, math.pi, math.nan):
            with pytest.raises(ValidationError):
                t_operators(theta)
            with pytest.raises(ValidationError):
                chsh_functional(chsh_reference(), theta)


class TestTOperators:
    def test_structure(self):
        theta = 0.3
        ops = t_operators(theta)
        assert ops.shape == (2, 2, 2, 2)
        np.testing.assert_allclose(ops[0, 0], 2 * math.cos(theta) * PAULI_Z, atol=1e-14)
        np.testing.assert_allclose(ops[0, 1], 2 * math.sin(theta) * PAULI_X, atol=1e-14)
        np.testing.assert_allclose(ops[1, 0], -ops[0, 0])
        np.testing.assert_allclose(ops[1, 1], -ops[0, 1])


class TestFunctional:
    def test_reference_saturates_tsirelson_at_pi_over_4(self):
        beta = chsh_functional(chsh_reference(), math.pi / 4)
        assert beta == pytest.approx(BETA_QUANTUM, abs=1e-12)

    def test_reference_value_closed_form(self):
        # beta*(theta) = 2(cos + sin) for the reference
        for theta in np.linspace(0, math.pi / 2, 17):
            beta = chsh_functional(chsh_reference(), float(theta))
            expected = 2 * (math.cos(theta) + math.sin(theta))
            assert beta == pytest.approx(expected, abs=1e-12)

    def test_matches_t_operators(self, rng):
        # u cos(theta) + w sin(theta) is the definition Tr sum T_ax sigma_ax
        for k in range(500):
            asm = realize(random_realization(rng, uniform_marginals=k % 2 == 0))
            theta = float(rng.uniform(0, math.pi / 2))
            definition = np.einsum("axij,axji->", t_operators(theta), asm.elements)
            assert abs(chsh_functional(asm, theta) - definition.real) <= 1e-15

    def test_imaginary_residue_rejected(self):
        # sigma_{0|0} + 0.1i Z gives u = 2 tr[Z(sigma_00 - sigma_10)] an imaginary part 0.4
        from steerbound.selftest import certified_lower_bound

        elements = chsh_reference().elements.copy()
        elements[0, 0] += 0.1j * PAULI_Z
        asm = Assemblage(elements)
        for read in (max_violation_over_theta, lambda a: certified_lower_bound(a, math.pi / 4)):
            with pytest.raises(ValidationError, match="imaginary residue 4.000e-01"):
                read(asm)

    def test_appendix_strategy_reaches_classical_bound(self):
        asm = from_classical(appendix_b_strategy())
        beta = chsh_functional(asm, math.pi / 4)
        assert beta == pytest.approx(BETA_CLASSICAL, abs=1e-12)

    def test_classical_assemblages_respect_classical_bound(self, rng):
        for _ in range(50):
            n_lam = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(n_lam))
            g = rng.normal(size=(n_lam, 2, 2)) + 1j * rng.normal(size=(n_lam, 2, 2))
            m = g @ g.conj().swapaxes(1, 2)
            hidden = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
            strategy = ClassicalStrategy(w, rng.integers(0, 2, size=(n_lam, 2)), hidden)
            asm = from_classical(strategy)
            _, beta = max_violation_over_theta(asm)
            assert beta <= BETA_CLASSICAL + 1e-9

    def test_quantum_assemblages_respect_tsirelson(self, rng):
        for _ in range(50):
            asm = realize(random_realization(rng))
            _, beta = max_violation_over_theta(asm)
            assert beta <= BETA_QUANTUM + 1e-9

    def test_wrong_shape_rejected(self):
        asm = Assemblage([[projector(KET0) / 2], [projector(KET0) / 2]])
        with pytest.raises(ValidationError):
            chsh_functional(asm, 0.1)


def _uw_assemblage(u: float, w: float) -> Assemblage:
    """Uniform-marginal assemblage with CHSH coefficients u and w (|u|, |w| <= 2):
    sigma_{a|0} = (I + (-1)^a (u/2) Z)/4 and sigma_{a|1} = (I + (-1)^a (w/2) X)/4."""
    return Assemblage(
        [[(I2 + sign * u / 2 * PAULI_Z) / 4, (I2 + sign * w / 2 * PAULI_X) / 4] for sign in (1, -1)]
    )


def _brute_force_max(asm, points: int = 2001) -> float:
    return max(
        chsh_functional(asm, float(t))
        for t in np.linspace(0, math.pi / 2, points)
    )


def _chsh_on_grid(elements, thetas) -> np.ndarray:
    """Tr sum_{a,x} T_{ax}(theta_k) sigma_{a|x} for a stack of assemblage
    elements (n, a, x, 2, 2) at every angle, as one array: T_{0x} = B0 +/- B1
    with B0 = cos Z + sin X, B1 = cos Z - sin X, and T_{1x} = -T_{0x}."""
    c, s = np.cos(thetas)[:, None, None], np.sin(thetas)[:, None, None]
    b0, b1 = c * PAULI_Z + s * PAULI_X, c * PAULI_Z - s * PAULI_X
    t = np.stack([b0 + b1, b0 - b1], axis=1)
    ops = np.stack([t, -t], axis=1)
    return np.einsum("kaxij,naxji->nk", ops, elements).real


class TestMaximization:
    def test_reference_argmax(self):
        theta, beta = max_violation_over_theta(chsh_reference())
        assert theta == pytest.approx(math.pi / 4, abs=1e-7)
        assert beta == pytest.approx(BETA_QUANTUM, abs=1e-12)

    def test_matches_direct_grid(self, rng):
        asms = [realize(random_realization(rng)) for _ in range(10)]
        grid = np.linspace(0, math.pi / 2, 20001)
        values = _chsh_on_grid(np.array([asm.elements for asm in asms]), grid)
        for asm, row in zip(asms, values):
            for k in range(0, grid.size, 2000):  # the stack is the functional
                direct = chsh_functional(asm, float(grid[k]))
                assert row[k] == pytest.approx(direct, abs=1e-12)
            theta_star, beta_star = max_violation_over_theta(asm)
            assert beta_star >= row.max() - 1e-8
            assert beta_star == pytest.approx(
                chsh_functional(asm, theta_star), abs=1e-12
            )

    @pytest.mark.parametrize(
        "u, w, theta_expected",
        [
            (-0.5, -1.2, 0.0),  # u, w < 0: the better endpoint
            (-1.3, -0.4, math.pi / 2),
            (0.0, 1.5, math.pi / 2),  # u <= 0 < w
            (-0.7, 0.4, math.pi / 2),
            (1.1, 0.0, 0.0),  # w <= 0 < u
            (0.8, -1.9, 0.0),
            (1.0, 1.5, math.atan2(1.5, 1.0)),  # both positive: interior maximum
        ],
    )
    def test_closed_form_against_brute_force(self, u, w, theta_expected):
        asm = _uw_assemblage(u, w)
        theta, beta = max_violation_over_theta(asm)
        assert theta == pytest.approx(theta_expected, abs=1e-15)
        expected = math.hypot(u, w) if u > 0 and w > 0 else max(u, w)
        assert beta == pytest.approx(expected, abs=1e-12)
        assert beta == pytest.approx(chsh_functional(asm, theta), abs=1e-12)
        assert beta >= _brute_force_max(asm) - 1e-12

    def test_non_finite_rejected(self):
        asm = _uw_assemblage(0.5, 0.5)
        elements = asm.elements.copy()
        elements[0, 1] *= math.nan
        with pytest.raises(ValidationError):
            max_violation_over_theta(Assemblage(elements))
