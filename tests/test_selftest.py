import decimal
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from steerbound.assemblage import Assemblage, chsh_reference, random_realization, realize, validate
from steerbound.cli import main
from steerbound.fidelity import ExtractionChannel, assemblage_fidelity, fidelity_operator
from steerbound.certificate import PROB_FLOOR, _coefficient_rule, _first_tied, _intercepts, _shifts
from steerbound.matkernel import I2, KET0, PAULI_X, PAULI_Z, ValidationError, projector
from steerbound import certificate, selftest
from steerbound.selftest import (
    BREAKPOINT_ANGLES,
    BREAKPOINT_TABLE,
    BoundCoefficients,
    QSqrt2,
    S_EXACT,
    S_OPTIMAL,
    T_EXACT,
    T_OPTIMAL,
    THRESHOLD_BETA,
    TRIVIAL_CLASSICAL_FIDELITY,
    analytic_bound,
    bound_value,
    breakpoint_shifts,
    certified_lower_bound,
    coefficient_search,
    dephasing_channel,
    dephasing_coefficient,
    extractability_with_channel,
    t_constraints,
    upper_bound,
    xi_star,
)
from steerbound.steering import BETA_CLASSICAL, BETA_QUANTUM, chsh_functional, max_violation_over_theta, t_operators
from devices import REFERENCE, Z_SHARP_X_BLANK, block_point, chord_device, device_point, general_assemblage

SQRT2 = math.sqrt(2)


def _g(s) -> list:
    """Exact t0* + t1* at each of BREAKPOINT_ANGLES."""
    return [t0 + t1 for t0, t1 in zip(*breakpoint_shifts(s))]


def _shift_grid(s, thetas) -> tuple:
    """t_constraints(s, theta) mapped over the angles ``thetas``, as the two
    float arrays (t0*, t1*): the scalar function read on a grid."""
    return tuple(np.array([t_constraints(s, theta) for theta in np.asarray(thetas).tolist()]).T)


class TestConstants:
    def test_values(self):
        assert S_OPTIMAL == pytest.approx((1 + SQRT2) / 4, abs=1e-15)
        assert T_OPTIMAL == pytest.approx((2 - SQRT2) / 2, abs=1e-15)
        assert TRIVIAL_CLASSICAL_FIDELITY == pytest.approx((2 + SQRT2) / 4, abs=1e-15)
        assert THRESHOLD_BETA == pytest.approx(8 - 4 * SQRT2, abs=1e-15)

    def test_exact_values_rounded_down(self):
        # each float is its exact value in Q(sqrt 2) rounded down, and the
        # float pair verifies with no slack: t0* + t1* - T_OPTIMAL >= 0 at
        # every breakpoint, exactly
        assert S_EXACT == QSqrt2(1, 1, 2) and T_EXACT == QSqrt2(2, -1, 1)
        for exact, value in ((S_EXACT, S_OPTIMAL), (T_EXACT, T_OPTIMAL)):
            assert QSqrt2.of(value) < exact < float(np.nextafter(value, 1))
            assert value == exact.floor()
        # the nearest float to (2 - sqrt 2)/2 is the one above T_OPTIMAL
        assert float(S_EXACT) == S_OPTIMAL and float(T_EXACT) == float(np.nextafter(T_OPTIMAL, 1))
        assert S_OPTIMAL == (1 + SQRT2) / 4 and T_OPTIMAL == (2 - SQRT2) / 2
        assert all(g >= T_OPTIMAL for g in _g(S_OPTIMAL))


def _decimal(x: QSqrt2, digits: int = 400) -> decimal.Decimal:
    """x to ``digits`` significant digits, by decimal's own sqrt."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return (x.a + x.b * decimal.Decimal(2).sqrt()) / (decimal.Decimal(2) ** x.k)


def _random_qsqrt2(rng, bits: int = 120) -> QSqrt2:
    a, b = (int(v) for v in rng.integers(-(2**62), 2**62, 2))
    return QSqrt2(a << int(rng.integers(0, bits - 62)), b << int(rng.integers(0, bits - 62)), int(rng.integers(0, 200)))


class TestQSqrt2:
    def test_arithmetic_matches_rational_pairs(self, rng):
        # +, - and * against (a, b) as Fractions: (a + b sqrt 2)(c + d sqrt 2)
        # = (ac + 2bd) + (ad + bc) sqrt 2; floats and ints are read exactly
        def pair(x):
            return Fraction(x.a, 2**x.k), Fraction(x.b, 2**x.k)

        for _ in range(300):
            x, y = _random_qsqrt2(rng), _random_qsqrt2(rng)
            (a, b), (c, d) = pair(x), pair(y)
            assert pair(x + y) == (a + c, b + d) and pair(x - y) == (a - c, b - d)
            assert pair(x * y) == (a * c + 2 * b * d, a * d + b * c)
            f = float(rng.normal())
            assert pair(f - x) == (Fraction(f) - a, -b) and pair(x * f) == (a * Fraction(f), b * Fraction(f))
            assert pair(3 + x) == (a + 3, b) and pair(-2 * x) == (-2 * a, -2 * b)
            assert pair(abs(x)) == ((a, b) if x >= 0 else (-a, -b))

    def test_sign_and_comparisons_are_exact(self, rng):
        # a + b sqrt 2 against a 400-digit decimal, with a and b of opposite
        # signs near the cancellation a^2 = 2 b^2: the continued-fraction
        # convergents p/q of sqrt 2 give |p - q sqrt 2| = 1/(p + q sqrt 2)
        p, q = 1, 1
        cases = []
        for _ in range(60):
            p, q = p + 2 * q, p + q
            cases += [QSqrt2(p, -q), QSqrt2(-p, q), QSqrt2(p, -q, 300), QSqrt2(2 * q, -p)]
        cases += [_random_qsqrt2(rng) for _ in range(300)] + [QSqrt2(0), QSqrt2(5), QSqrt2(0, -3)]
        for x in cases:
            sign = (_decimal(x) > 0) - (_decimal(x) < 0)
            assert (x > 0, x == 0, x < 0) == (sign > 0, sign == 0, sign < 0), (x.a, x.b, x.k)
            assert (x >= 0, x != 0, x <= 0, 0 < x, 0.0 == x) == (sign >= 0, sign != 0, sign <= 0, sign > 0, sign == 0)
        assert QSqrt2(0, 1, 1) * QSqrt2(0, 1, 1) == 0.5 and QSqrt2(3, 2) * QSqrt2(3, -2) == 1

    def test_float_is_the_nearest(self, rng):
        # the nearest float, against the 400-digit value: no float lies
        # closer, near cancellation too; floor is at or below, its successor
        # above
        p, q = 1, 1
        cases = [_random_qsqrt2(rng) for _ in range(300)]
        for _ in range(40):
            p, q = p + 2 * q, p + q
            cases += [QSqrt2(p, -q, 10), QSqrt2(-p, q, 1100)]
        cases += [QSqrt2(1, 0, 1074), QSqrt2(3, 0, 1076), QSqrt2(0, 1, 1075), QSqrt2(2**1023, 1, 0)]
        for x in cases:
            value, near = float(x), _decimal(x)
            assert abs(decimal.Decimal(value) - near) <= abs(decimal.Decimal(float(np.nextafter(value, -np.inf))) - near)
            assert abs(decimal.Decimal(value) - near) <= abs(decimal.Decimal(float(np.nextafter(value, np.inf))) - near)
            low = x.floor()
            assert QSqrt2.of(low) <= x < float(np.nextafter(low, np.inf)), (x.a, x.b, x.k)
            assert f"{x:.3e}" == f"{value:.3e}"

    def test_other_operands_are_not_implemented(self):
        # an operand that is no int and no finite float is NotImplemented,
        # so numpy arrays apply the operator elementwise and the rest raise
        x = QSqrt2(1, 1)
        assert QSqrt2.of(math.nan) is None and QSqrt2.of(math.inf) is None and QSqrt2.of("1") is None
        assert QSqrt2.of(x) == x and QSqrt2.of(0.75) == QSqrt2(3, 0, 2) and QSqrt2.of(-0.0) == 0
        assert x.__add__(math.nan) is NotImplemented and x.__lt__(None) is NotImplemented
        assert (x == math.nan) is False and (x != "x") is True
        with pytest.raises(TypeError):
            x < math.inf
        with pytest.raises(TypeError):
            hash(x)
        column = x * np.array([1.0, QSqrt2(0, 1)], dtype=object)
        assert column[0] == x and column[1] == QSqrt2(2, 1)


class TestDephasingChannel:
    def test_identity_limit(self, rng):
        ch = dephasing_channel(0.3, 1.0)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-12)

    def test_full_dephasing_first_interval(self):
        ch = dephasing_channel(0.2, 0.0)
        np.testing.assert_allclose(ch.apply(PAULI_X), np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(ch.apply(PAULI_Z), PAULI_Z, atol=1e-14)

    def test_gamma_switches_at_pi_over_4(self):
        first = dephasing_channel(math.pi / 4, 0.0)
        second = dephasing_channel(math.pi / 4 + 1e-6, 0.0)
        np.testing.assert_allclose(first.apply(PAULI_Z), PAULI_Z, atol=1e-14)
        np.testing.assert_allclose(second.apply(PAULI_X), PAULI_X, atol=1e-14)

    def test_self_dual(self, rng):
        ch = dephasing_channel(0.9, 0.4)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = (g + g.conj().T) / 2
            np.testing.assert_allclose(ch.apply(m), ch.dual(m), atol=1e-12)
        stack = chsh_reference().elements  # both maps take (..., 2, 2) stacks
        np.testing.assert_allclose(ch.dual(stack), ch.apply(stack), atol=1e-12)

    def test_coefficient_outside_unit_interval_rejected(self):
        # the message names the value that fails the check, NaN included
        for c in (math.nan, math.inf, -math.inf, 1.5, -1 - 1e-9):
            with pytest.raises(ValidationError, match=f"c = {c} outside"):
                dephasing_channel(0.1, c)
        for c in (1.0, -1.0):  # the identity and conjugation by Z
            np.testing.assert_allclose(dephasing_channel(0.1, c).apply(PAULI_X), c * PAULI_X, atol=1e-15)

    def test_choi_matches_outer_product_formula(self):
        # the sum of the two weighted unitary Choi matrices, each built from
        # its outer product, bit for bit
        def formula(theta, c):
            gamma = PAULI_Z if theta <= math.pi / 4 else PAULI_X
            return sum(
                w * np.outer(u.T.reshape(4), u.T.reshape(4).conj())
                for w, u in ((0.5 * (1 + c), I2), (0.5 * (1 - c), gamma))
            )

        rng = np.random.default_rng(7)
        pairs = [(theta, c) for theta in BREAKPOINT_ANGLES for c in (-1.0, 0.0, 0.37, 1.0)]
        pairs += zip(rng.uniform(0, math.pi / 2, 50), rng.uniform(-1, 1, 50))
        for theta, c in pairs:
            np.testing.assert_array_equal(dephasing_channel(theta, c).choi, formula(theta, c))
        c = dephasing_coefficient(0.3, S_OPTIMAL)  # a Python float, as the witness passes it
        np.testing.assert_array_equal(dephasing_channel(0.3, c).choi, formula(0.3, c))

    def test_choi_constants_are_read_only(self):
        constants = (selftest._CHOI_I, selftest._CHOI_Z, selftest._CHOI_X)
        for choi in constants:
            assert not choi.flags.writeable
            with pytest.raises(ValueError):
                choi[0, 0] = 2.0
        choi = dephasing_channel(0.3, 0.5).choi  # a new array each call
        assert not any(np.shares_memory(choi, constant) for constant in constants)

    def test_trace_preserving(self, rng):
        for theta in (0.1, 1.0):
            ch = dephasing_channel(theta, 0.37)
            for _ in range(10):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                rho = g @ g.conj().T
                assert np.trace(ch.apply(rho)).real == pytest.approx(
                    np.trace(rho).real, abs=1e-12
                )


class TestCoefficientRule:
    def test_dephasing_coefficient_closed_form(self):
        s = S_OPTIMAL
        assert dephasing_coefficient(0.0, s) == pytest.approx(0.0, abs=1e-15)
        assert dephasing_coefficient(math.pi / 2, s) == pytest.approx(0.0, abs=1e-12)
        assert dephasing_coefficient(math.pi / 4, s) == pytest.approx(
            min(1.0, 4 * s * math.sin(math.pi / 4)), abs=1e-12
        )
        # saturates at 1 for s >= 0 and at -1 for s < 0, always a channel's c
        assert dephasing_coefficient(math.pi / 4, 0.7) == 1.0
        assert dephasing_coefficient(math.pi / 4, -0.7) == -1.0

    def test_min_max_rule_is_clip_bit_for_bit(self):
        # the clamp min(max(., -1), 1) on Python floats returns np.clip's
        # bits, the sign of a zero and NaN included; s and the trigonometric
        # factor are chosen so that 4 s factor is each value exactly, without
        # overflow
        edges = np.array([0.0, 1.0, math.inf])
        values = np.concatenate([edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf), [math.nan]])
        values = np.concatenate([values, -values])
        large = np.abs(values) > 1
        s, factor = np.where(large, values / 4, values), np.where(large, 1.0, 0.25)
        assert (4 * s * factor).tobytes() == values.tobytes()
        for args in zip(s.tolist(), factor.tolist(), values.tolist()):  # Python floats
            scalar = _coefficient_rule(args[0], args[1])
            assert type(scalar) is float
            assert np.float64(scalar).tobytes() == np.clip(args[2], -1.0, 1.0).tobytes(), args[2]

    def test_scalar_rule_keeps_the_numpy_formulas_bits(self):
        # one angle at a time, the math path gives the numpy clip of 4 s sin
        # or 4 s cos that the retired broadcast ran: the same bits on both
        # intervals, at pi/4 exactly (the first interval) and its next float,
        # at both ends, saturated at +-1 and for negative s and -0.0
        rng = np.random.default_rng(31)
        thetas = [0.0, math.pi / 4, math.nextafter(math.pi / 4, 2.0), math.pi / 2]
        thetas += rng.uniform(0, math.pi / 2, 40).tolist()
        grid = np.array(thetas)
        seen = set()
        for s in (S_OPTIMAL, -S_OPTIMAL, 0.7, -0.7, 0.0, -0.0, -3.0, *rng.uniform(-1, 1, 10).tolist()):
            got = [dephasing_coefficient(theta, s) for theta in thetas]
            assert {type(c) for c in got} == {float}
            want = np.clip(4 * s * np.where(grid <= math.pi / 4, np.sin(grid), np.cos(grid)), -1.0, 1.0)
            assert np.array(got).tobytes() == want.tobytes(), s
            seen.update(got)
        assert {1.0, -1.0} <= seen

    def test_one_real_number_per_argument(self):
        # an int or a numpy scalar is read as the float it holds, and gives a
        # Python float; an array (also a 0-d one), a string or None is
        # refused with one ValidationError, whichever argument it is
        want = dephasing_coefficient(1.0, 0.5)
        for theta, s in ((1, 0.5), (np.float64(1.0), 0.5), (1.0, np.float32(0.5)), (np.int64(1), np.float64(0.5))):
            got = dephasing_coefficient(theta, s)
            assert type(got) is float and got == want, (theta, s)
        assert type(dephasing_coefficient(0, S_OPTIMAL)) is float
        for theta, s in ((np.array([0.3, 0.4]), S_OPTIMAL), (0.3, np.array([S_OPTIMAL])), (np.array(0.3), 0.5),
                         ("0.3", 0.5), (0.3, None)):
            with pytest.raises(ValidationError, match="must be one real number"):
                dephasing_coefficient(theta, s)

    def test_refuses_an_int_past_the_float_range(self):
        # refused before float() would overflow; the largest float's int is read
        for s in (10**400, -(10**400), 2**1024):
            with pytest.raises(ValidationError, match="past the float range"):
                dephasing_coefficient(0.1, s)
        assert dephasing_coefficient(0.1, -int(sys.float_info.max)) == -1.0

    def test_k_operators_first_interval(self):
        # K_{ax}, the channel's dual image of the reference state
        c = dephasing_coefficient(0.3, S_OPTIMAL)
        ks = _k_operators(0.3, c)
        np.testing.assert_allclose(ks[0, 0], (I2 + PAULI_Z) / 2, atol=1e-14)
        np.testing.assert_allclose(ks[0, 1], (I2 + c * PAULI_X) / 2, atol=1e-14)

    def test_k_operators_are_channel_images(self, rng):
        # K_{ax} = (I + (-1)^a k_x P_x)/2 with P = (Z, X): the channel keeps
        # Gamma's pair sharp (k = 1) and shrinks the other by c, the form
        # _shifts assumes
        for theta, c in zip(rng.uniform(0, math.pi / 2, 20), rng.uniform(-1, 1, 20)):
            k = (1.0, c) if theta <= math.pi / 4 else (c, 1.0)
            ks = _k_operators(theta, c)
            for a in range(2):
                for x, pauli in enumerate((PAULI_Z, PAULI_X)):
                    expected = (I2 + (-1) ** a * k[x] * pauli) / 2
                    np.testing.assert_allclose(ks[a, x], expected, rtol=0, atol=1e-15)

    def test_t_constraints_closed_form(self):
        # the closed form, angle by angle, against the per-interval formulas, both intervals
        for s in (0.2, S_OPTIMAL, 0.9):
            thetas = np.linspace(0, math.pi / 2, 101)
            t0, t1 = _shift_grid(s, thetas)
            for theta, a, b in zip(thetas, t0, t1):
                sin, cos = math.sin(theta), math.cos(theta)
                if theta <= math.pi / 4:
                    c = min(1.0, 4 * s * sin)
                    e0 = min(1 - 2 * s * cos, 2 * s * cos)
                    e1 = min((1 + c - 4 * s * sin) / 2, (1 - c + 4 * s * sin) / 2)
                else:
                    c = min(1.0, 4 * s * cos)
                    e0 = min((1 + c - 4 * s * cos) / 2, (1 - c + 4 * s * cos) / 2)
                    e1 = min(1 - 2 * s * sin, 2 * s * sin)
                assert a == pytest.approx(e0, abs=1e-14)
                assert b == pytest.approx(e1, abs=1e-14)

    def test_t_sum_minimized_at_pi_over_4(self):
        s = S_OPTIMAL
        t_at_corner = sum(t_constraints(s, math.pi / 4))
        assert t_at_corner == pytest.approx(T_OPTIMAL, abs=1e-12)
        for theta in np.linspace(0, math.pi / 2, 501):
            assert sum(t_constraints(s, float(theta))) >= t_at_corner - 1e-12

    def test_symmetry_about_pi_over_4(self):
        s = 0.55
        for delta in np.linspace(0, math.pi / 4, 50):
            lo = sum(t_constraints(s, math.pi / 4 - float(delta)))
            hi = sum(t_constraints(s, min(math.pi / 2, math.pi / 4 + float(delta)) ))
            assert lo == pytest.approx(hi, abs=1e-9)

    def test_t_constraints_reads_one_real_number_per_argument(self):
        # two Python floats from an int or a numpy scalar, the float's own
        # shifts; an array of s or of theta is refused with one ValidationError
        want = t_constraints(0.5, 1.0)
        for s, theta in ((0.5, 1), (np.float64(0.5), 1.0), (np.float32(0.5), np.int64(1)), (0.5, np.float64(1.0))):
            got = t_constraints(s, theta)
            assert {type(t) for t in got} == {float} and got == want, (s, theta)
        assert {type(t) for t in t_constraints(1, 0)} == {float}
        arrays = ((np.array([0.5, 0.6]), 0.3), (0.5, np.array(BREAKPOINT_ANGLES)), (0.5, np.array(0.3)), ([0.5], 0.3))
        for s, theta in arrays:
            with pytest.raises(ValidationError, match="must be one real number"):
                t_constraints(s, theta)

    def test_t_constraints_refuses_an_int_past_the_float_range(self):
        # refused before float() would overflow; the largest float's int is read
        for s in (10**400, -(10**400), 2**1024):
            with pytest.raises(ValidationError, match="past the float range"):
                t_constraints(s, 0.1)
        assert t_constraints(int(sys.float_info.max), 0.1) == t_constraints(sys.float_info.max, 0.1)


def _k_operators(theta, c):
    """K[a, x]: the dephasing channel's dual image of the reference
    conditional state, 2 sigma_{a|x} (every p(a|x) is 1/2)."""
    return dephasing_channel(theta, c).dual(2 * chsh_reference().elements)


def _least_eigenvalues(operators, t0=0.0, t1=0.0):
    """(x = 0, x = 1): the least over a of LAPACK's least eigenvalue of
    operators[a, x] - t_x I."""
    shifted = operators - np.multiply.outer([t0, t1], I2)
    return np.linalg.eigvalsh(shifted)[..., 0].min(axis=0)


def _operators(s, theta):
    """K_{ax} - s T_{ax} from their definitions, the dephasing coefficient
    at its rule and T_{ax} from t_operators, independent of _shifts."""
    return _k_operators(theta, dephasing_coefficient(theta, s)) - s * t_operators(theta)


class TestInequalityMargins:
    def test_margins_nonnegative_at_optimum(self):
        thetas = np.union1d(np.linspace(0, math.pi / 2, 801), BREAKPOINT_ANGLES)
        t0, t1 = _shift_grid(S_OPTIMAL, thetas)
        for theta, a, b in zip(thetas.tolist(), t0.tolist(), t1.tolist()):
            assert _least_eigenvalues(_operators(S_OPTIMAL, theta), a, b).min() >= -1e-10, theta

    def test_margins_tight(self):
        # the constraint rule makes the smallest margin exactly zero
        for theta in (0.0, 0.3, math.pi / 4, 1.0, math.pi / 2):
            t0, t1 = map(float, t_constraints(S_OPTIMAL, theta))
            m = _least_eigenvalues(_operators(S_OPTIMAL, theta), t0, t1).min()
            assert m == pytest.approx(0.0, abs=1e-10)

    def test_overshifted_violates(self):
        theta = 0.3
        t0, t1 = map(float, t_constraints(S_OPTIMAL, theta))
        m = _least_eigenvalues(_operators(S_OPTIMAL, theta), t0 + 0.05, t1).min()
        assert m < -0.04

    def test_matches_operator_loop(self, rng):
        # random shifts, both signs of s, at the rule's coefficient: the least
        # eigenvalue of K_{ax} - s T_{ax} - t_x I is min(t0* - t0, t1* - t1),
        # the margin the README gives in place of inequality_margin
        for s in rng.uniform(-1, 2, 20):
            thetas = rng.uniform(0, math.pi / 2, 50)
            t0, t1 = rng.uniform(-1, 1, (2, 50))
            t0s, t1s = _shift_grid(s, thetas)
            batched = np.minimum(t0s - t0, t1s - t1)
            for i in range(50):
                expected = _least_eigenvalues(_operators(s, float(thetas[i])), t0[i], t1[i]).min()
                assert batched[i] == pytest.approx(expected, abs=1e-12)

    def test_tight_for_any_s(self, rng):
        # t_constraints is the largest shift for any s, mapped over an s
        # column and a theta row: both margins 0 at (t0*, t1*), both negative
        # one step above
        s_values = rng.uniform(-1, 2, (20, 1))
        thetas = np.union1d(np.linspace(0, math.pi / 2, 40), BREAKPOINT_ANGLES)
        t0, t1 = np.array([_shift_grid(s, thetas) for s in s_values[:, 0].tolist()]).transpose(1, 0, 2)
        assert t0.shape == t1.shape == (20, len(thetas))
        for index in np.ndindex(t0.shape):
            operators = _operators(float(s_values[index[0], 0]), float(thetas[index[1]]))
            a, b = float(t0[index]), float(t1[index])
            np.testing.assert_allclose(_least_eigenvalues(operators, a, b), 0.0, atol=1e-12)
            assert np.all(_least_eigenvalues(operators, a + 1e-9, b + 1e-9) < 0), index

    def test_shifts_are_the_operators_least_eigenvalues(self):
        # finding P's grid: t_constraints is min over a of the least
        # eigenvalue of K_{ax} - s T_{ax}, to rounding
        for s, thetas, t0, t1 in _finding_p_grid():
            for theta, a, b in zip(thetas.tolist(), t0.tolist(), t1.tolist()):
                assert np.abs(_least_eigenvalues(_operators(s, theta)) - [a, b]).max() <= 2e-15, (s, theta)

    def test_split_margin_is_shift_sum_minus_t(self):
        # finding P's grid: at the split t0 = t0*, t1 = t - t0* the least
        # eigenvalue of the four operators is min(t0* + t1* - t, 0), the
        # margin verify-inequality prints, to rounding
        for s, thetas, t0, t1 in _finding_p_grid():
            for theta, a, b in zip(thetas.tolist(), t0.tolist(), t1.tolist()):
                operators = _operators(s, theta)
                for t in (T_OPTIMAL, 0.0, 0.6):
                    split = _least_eigenvalues(operators, a, t - a).min()
                    assert abs(split - min(a + b - t, 0)) <= 2e-15, (s, theta, t)


def test_exact_verdict_matches_float_verdict():
    # 10,000 seeded (s, t) pairs, t drawn around the float minimum of t0* +
    # t1* over BREAKPOINT_ANGLES: wherever that float margin is outside +-1e-13,
    # the exact verdict at the breakpoints (verify-inequality's, no slack)
    # is the float one; inside, only the exact one decides
    rng = np.random.default_rng(37)
    s_values = np.concatenate([rng.uniform(-1, 2, 9_000), S_OPTIMAL + rng.uniform(-1e-12, 1e-12, 1_000)])
    decided = 0
    for s in s_values.tolist():
        g = sum(_shift_grid(s, BREAKPOINT_ANGLES)).min()
        t = g + rng.choice([1e-3, 1e-9, 1e-14]) * rng.uniform(-1, 1)
        if abs(g - t) > 1e-13:
            assert (min(_g(s)) >= t) == (g >= t), (s, t)
            decided += 1
    assert 6_000 < decided < 10_000


def _numpy_shifts(s, theta):
    """(t0*, t1*) by the broadcast numpy formula that t_constraints ran on
    before it read the scalar ``_shifts``: the reference for its bits."""
    first, cos, sin = theta <= math.pi / 4, np.cos(theta), np.sin(theta)
    c = np.minimum(np.maximum(4 * s * np.where(first, sin, cos), -1.0), 1.0)
    kz, kx = np.where(first, 1.0, c), np.where(first, c, 1.0)
    return 0.5 - np.abs(kz * 0.5 - 2 * s * cos), 0.5 - np.abs(kx * 0.5 - 2 * s * sin)


def test_scalars_keep_the_numpy_formulas_bits():
    # t_constraints and dephasing_coefficient, read one angle and one s at a
    # time: the bits of the numpy formulas they replaced, for an s column
    # against a theta row, and for s of +-0, +-inf, NaN, subnormal and huge,
    # as Python floats
    rng = np.random.default_rng(39)
    thetas = np.union1d(np.linspace(0, math.pi / 2, 101), [*BREAKPOINT_ANGLES, math.nextafter(math.pi / 4, 2)])
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300, 0.25, SQRT2 / 4]
    s_values = np.array([*specials, *rng.uniform(-2, 2, 40)])[:, None]
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and 4 s past the float range
        want = _numpy_shifts(s_values, thetas)
        coefficient = np.minimum(np.maximum(4 * s_values * np.where(thetas <= math.pi / 4, np.sin(thetas),
                                                                      np.cos(thetas)), -1.0), 1.0)
    pairs = [(s, theta) for s in s_values[:, 0].tolist() for theta in thetas.tolist()]
    got = [t_constraints(s, theta) for s, theta in pairs]
    assert {type(t) for pair in got for t in pair} == {float}
    assert np.array(got).T.reshape(2, *want[0].shape).tobytes() == np.array(want).tobytes()
    coefficients = [dephasing_coefficient(theta, s) for s, theta in pairs]
    assert {type(c) for c in coefficients} == {float}
    assert np.array(coefficients).reshape(coefficient.shape).tobytes() == coefficient.tobytes()


def _oracle_shifts(s: float) -> list:
    """(t0*, t1*) at the true 0, pi/4 and pi/2, each as the exact pair (p, q)
    of Fractions of p + q sqrt 2, by hand from the definitions and not from
    ``_shifts`` or QSqrt2: t_x* = 1/2 - |k_x/2 - 2s v_x| with v = (cos,
    sin), k = (1, c) on the first interval and (c, 1) on the second, and c =
    4s sin or 4s cos clipped to [-1, 1]. At 0 and pi/2 that c is 0, so the
    shift of the unrotated pair is 1/2 - |1/2 - 2s| and the other is 1/2; at
    pi/4, c = clip(2 sqrt 2 s), t0* = 1/2 - |1/2 - sqrt 2 s| and t1* = 1/2 -
    |c/2 - sqrt 2 s|."""
    x, half = Fraction(s), Fraction(1, 2)

    def shift(p, q):  # 1/2 - |p + q sqrt 2|: the sign of p + q sqrt 2 is p's when p^2 > 2 q^2, else q's
        negative = (p < 0) if p * p > 2 * q * q else (q < 0)
        return (half + p, q) if negative else (half - p, -q)

    if 8 * x * x > 1:  # |2 sqrt 2 s| > 1: c saturates at the sign of s
        c_half = half if x > 0 else -half
    else:
        c_half = None  # c/2 = sqrt 2 s exactly, and t1* = 1/2
    edge = shift(half - 2 * x, Fraction(0))
    axis = (half, Fraction(0))
    middle = (shift(half, -x), axis if c_half is None else shift(c_half, -x))
    return [(edge, axis), middle, (axis, edge)]


def test_exact_shifts_match_a_fraction_oracle():
    # breakpoint_shifts equals the Fraction oracle exactly on 10,000+ seeded
    # s: +-0, +-5e-324, +-s_max (the CLI's largest |s|), S_OPTIMAL +- 300
    # ulps, the neighbours of 1/(2 + sqrt 2) and of the clamp edges |4s| = 1
    # and sqrt 2, 10^-330 to 10^-10 of both signs, and seeded s across
    # [-1, 2) and across every binade
    rng = np.random.default_rng(3939)
    s_max = float(np.finfo(float).max / 4)

    def around(x, ulps):
        return [float(v) for v in x + np.spacing(x) * np.arange(-ulps, ulps + 1)]

    s_values = [0.0, -0.0, 5e-324, -5e-324, s_max, -s_max, *around(S_OPTIMAL, 300), *around(float(T_EXACT), 100)]
    for edge in (0.25, SQRT2 / 4):
        s_values += around(edge, 20) + around(-edge, 20)
    s_values += [sign * float(f"1e-{e}") for e in range(10, 331) for sign in (1, -1)]
    s_values += rng.uniform(-1, 2, 6_500).tolist()
    s_values += [math.ldexp(rng.choice([-1, 1]) * rng.uniform(0.5, 1), int(e)) for e in rng.integers(-1074, 1022, 2_000)]
    assert len(s_values) >= 10_000 and max(map(abs, s_values)) == s_max
    for s in s_values:
        exact = zip(*breakpoint_shifts(s))  # (t0*, t1*) at each breakpoint
        assert [tuple((Fraction(t.a, 2**t.k), Fraction(t.b, 2**t.k)) for t in pair) for pair in exact] == _oracle_shifts(s), s


def _finding_p_grid():
    """(s, thetas, t0*, t1*) on finding P's grid: 26 values of s times the
    41 angles and BREAKPOINT_ANGLES, 1,066 points."""
    rng = np.random.default_rng(2025)
    s_values = [S_OPTIMAL, -S_OPTIMAL, -0.5, -1.0, 0.0, 0.25, *rng.uniform(-1, 2, 20).tolist()]
    thetas = np.union1d(np.linspace(0, math.pi / 2, 41), BREAKPOINT_ANGLES)
    assert len(s_values) * len(thetas) == 1066
    return [(s, thetas, *_shift_grid(s, thetas)) for s in s_values]


class TestCoefficientSearch:
    def test_breakpoint_table_is_read_only(self):
        # the rows (first_interval, cos, sin) of BREAKPOINT_ANGLES, exact: cos and
        # sin are (1, sqrt 2/2, 0) and (0, sqrt 2/2, 1), the true angles'
        # values. Table and rows are tuples, so no caller may move an entry
        assert type(BREAKPOINT_TABLE) is tuple and {type(row) for row in BREAKPOINT_TABLE} == {tuple}
        first, cos, sin = zip(*BREAKPOINT_TABLE)
        assert first == tuple(selftest.first_interval(np.array(BREAKPOINT_ANGLES)).tolist()) == (True, True, False)
        assert {type(x) for x in cos + sin} == {QSqrt2}
        assert all(c * c + v * v == 1 for c, v in zip(cos, sin))
        assert cos[0] == sin[2] == 1 and cos[2] == sin[0] == 0 and cos[1] == sin[1] > 0
        assert [float(c) for c in cos] == [1.0, math.sqrt(0.5), 0.0]
        for table in (BREAKPOINT_TABLE, BREAKPOINT_TABLE[1]):
            with pytest.raises(TypeError):
                table[0] = table[1]

    def test_exact_shifts_round_to_t_constraints(self, rng):
        # the certificates' exact reads through the table are the float
        # formula's values to within one rounding unit of max(1, |4s|), s by
        # s, at the clamp edges |4s| = 1 and sqrt 2 and at s = +-0, with their
        # neighbours. On the float rows _shifts is t_constraints bit for bit,
        # and t_constraints is the broadcast numpy formula it replaced, angle
        # by angle
        edges = np.array([0.0, 0.25, SQRT2 / 4])
        edges = np.concatenate([edges, np.nextafter(edges, -1), np.nextafter(edges, 1)])
        s_values = np.concatenate([rng.uniform(-1, 2, 500), edges, -edges]).tolist()
        angles = np.array(BREAKPOINT_ANGLES)
        rows = list(zip(selftest.first_interval(angles).tolist(), np.cos(angles).tolist(), np.sin(angles).tolist()))
        for s in s_values:
            want = _shift_grid(s, angles)
            assert [t.tobytes() for t in want] == [t.tobytes() for t in _numpy_shifts(s, angles)], s
            assert np.array([_shifts(s, *row) for row in rows]).T.tobytes() == np.array(want).tobytes(), s
            for exact, floats in zip(breakpoint_shifts(s), want):
                assert type(exact) is tuple and {type(x) for x in exact} == {QSqrt2}
                assert np.abs(np.array([float(x) for x in exact]) - floats).max() <= np.spacing(max(1, abs(4 * s))), s

    def test_breakpoint_minimum_is_exact(self, rng):
        # the minimum of t0* + t1* over BREAKPOINT_ANGLES -- 0, pi/4 and pi/2
        # alone -- equals its minimum over a dense uniform grid with the clamp
        # angles asin/acos(1/|4s|) added, also for s within rounding of
        # |4s| = 1 and |4s| = sqrt 2, where clamp angles meet 0, pi/2 or pi/4
        edges = np.array([0.25, SQRT2 / 4])
        near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
        # (the dense grid is read from the numpy formula, which
        # test_exact_shifts_round_to_t_constraints ties to t_constraints
        # bit for bit, at numpy's speed)
        dense = np.linspace(0, math.pi / 2, 200_001)
        for s in np.concatenate([rng.uniform(-1, 2, 200), near, -near]):
            r = min(1.0, 1 / abs(4 * s))
            fine = np.concatenate([dense, [math.asin(r), math.acos(r)]])
            coarse = sum(_shift_grid(s, BREAKPOINT_ANGLES)).min()
            assert coarse == pytest.approx(sum(_numpy_shifts(s, fine)).min(), abs=1e-12), s

    def test_intercepts_match_scalar_grid(self, rng):
        # the intercepts are t0* + t1* and its split at the first breakpoint
        # exactly at the least, s by s: the float shifts' argmin wherever
        # they part by more than 1e-13, and theta = 0 at the exact ties of
        # s = +-0 (all three) and s = 0.5, S_OPTIMAL (0 and pi/2)
        s_values = rng.uniform(-1, 2, 500).tolist()
        for s in s_values + [0.0, -0.0, 0.5, S_OPTIMAL]:
            t, t0, t1 = _intercepts(s)
            exact0, exact1 = breakpoint_shifts(s)
            i = min(range(3), key=lambda j: exact0[j] + exact1[j])  # the first least
            assert (t0, t1) == (exact0[i], exact1[i]) and t == t0 + t1 and t == min(_g(s)), s
            g = sum(_shift_grid(s, BREAKPOINT_ANGLES))
            if np.sort(g)[1] - g.min() > 1e-13:
                assert i == int(np.argmin(g)), s
            assert abs(float(t) - g.min()) <= np.spacing(max(1, abs(4 * s))), s
        assert [_first_tied(_g(s)) for s in (0.0, -0.0, 0.5, S_OPTIMAL)] == [0, 0, 0, 0]

    def test_recovers_optimum(self):
        # the kink of the concave bound, rounded down, and the bound at
        # maximal violation is 1 there
        coeffs = coefficient_search()
        assert coeffs.s == S_OPTIMAL
        assert abs(coeffs.t - T_OPTIMAL) <= 1e-15
        assert abs(bound_value(coeffs, BETA_QUANTUM) - 1) <= 1e-15

    def test_grid_lines_are_the_pieces_of_the_bound(self):
        # in exact arithmetic t(s) is the rising piece's 3/2 - 2s at S_OPTIMAL
        # and below it, and the plateau's 2 - 2 sqrt 2 s from the next float
        # on: f = (2 sqrt 2 s + t)/2 is (sqrt 2 - 1) s + 3/4 < 1, then exactly
        # 1. The two lines meet at S_EXACT, between the two floats
        root8 = QSqrt2(0, 2)
        below = [0.3, 0.5, 0.6, float(np.nextafter(S_OPTIMAL, 0)), S_OPTIMAL]
        above = [float(np.nextafter(S_OPTIMAL, 1)), 0.61, 0.7, 0.8]
        for s in below:
            t = _intercepts(s)[0]
            assert t + 2 * s == 1.5 and (root8 * s + t) * 0.5 == QSqrt2(-1, 1) * s + 0.75 < 1, s
        for s in above:
            t = _intercepts(s)[0]
            assert t == 2 - root8 * s and (root8 * s + t) * 0.5 == 1, s
        assert QSqrt2(-1, 1) * S_EXACT + 0.75 == 1 == (root8 * S_EXACT + T_EXACT) * 0.5
        assert QSqrt2.of(S_OPTIMAL) < S_EXACT < float(np.nextafter(S_OPTIMAL, 1))

    def test_refinement_is_a_few_broadcasts(self, monkeypatch):
        # one exact read of the breakpoint table, at S_OPTIMAL, on every
        # call: _shifts once on each row, in order, with one QSqrt2 s read
        # afresh; nothing is memoized
        calls, original = [], certificate._shifts

        def counted(s, *row):
            calls.append((s, row))
            return original(s, *row)

        monkeypatch.setattr(certificate, "_shifts", counted)
        for n in (1, 2):
            coefficient_search()
            assert len(calls) == 3 * n
            for (s, row), want in zip(calls[3 * n - 3 :], BREAKPOINT_TABLE, strict=True):
                assert all(got is entry for got, entry in zip(row, want, strict=True))
                assert s is calls[3 * n - 3][0] and type(s) is QSqrt2 and s == S_OPTIMAL
        assert calls[3][0] is not calls[0][0]

    def test_split_is_the_theta_zero_minimiser(self):
        # at the returned s, one float below the kink, the first minimiser of
        # t0* + t1* over BREAKPOINT_ANGLES is theta = 0, where the split is
        # t0 = 1 - 2s = (1 - sqrt 2)/2 + 2 (S_EXACT - s) and t1 = 1/2
        # (printed as -0.207106781 and 0.5)
        coeffs = coefficient_search()
        t0, t1 = _shift_grid(coeffs.s, BREAKPOINT_ANGLES)
        assert int(np.argmin(t0 + t1)) == 0
        assert (coeffs.t0, coeffs.t1) == (t0[0], t1[0]) == (1 - 2 * coeffs.s, 0.5)
        assert abs(coeffs.t0 - (1 - SQRT2) / 2) <= 1e-9

    def test_split_at_the_three_way_tie(self):
        # t0* + t1* ties at 0, pi/4 and pi/2 only at S_EXACT, which is no
        # float. At S_OPTIMAL and below, 0 and pi/2 tie exactly below pi/4,
        # and the split is theta = 0's; from the next float on pi/4 alone is
        # least, and the split is pi/4's, t0 = t1 = 1 - sqrt 2 s
        for s in (float(np.nextafter(S_OPTIMAL, 0)), S_OPTIMAL):
            t0, t1 = breakpoint_shifts(s)
            g = _g(s)
            assert g[0] == g[2] < g[1], s
            assert _intercepts(s)[1:] == (t0[0], t1[0]) and t0[0] == 1 - 2 * s and t1[0] == 0.5, s
        for s in (float(np.nextafter(S_OPTIMAL, 1)), float(np.nextafter(np.nextafter(S_OPTIMAL, 1), 1))):
            t0, t1 = breakpoint_shifts(s)
            g = _g(s)
            assert g[1] < g[0] == g[2], s
            assert _intercepts(s)[1:] == (t0[1], t1[1]) and t0[1] == t1[1] == 1 - QSqrt2(0, 1) * s, s

    @pytest.mark.parametrize("s_kink", [0.601, 0.6034], ids=["below-last-rising-point", "in-the-kink-cell"])
    def test_extra_kink_between_grid_points_fails_closed(self, s_kink, monkeypatch):
        # t0* + t1* capped by a steeper line from the rising piece at s_kink
        # bends the bound below the kink: t at S_OPTIMAL is off the rising
        # piece, in exact arithmetic
        original = certificate._shifts

        def bent(s, *row):
            t0, t1 = original(s, *row)
            return t0, min(t1, 1.5 - 2 * s_kink - 2.4 * (s - s_kink) - t0)

        monkeypatch.setattr(certificate, "_shifts", bent)
        with pytest.raises(ValidationError, match=r"^bound 0\.99\d* at s = 0\.6035533905932737 is not the kink$"):
            coefficient_search()

    @pytest.mark.parametrize("total", [0.0, np.nan], ids=["no-plateau", "nan"])
    def test_flat_or_nan_bound_fails_closed(self, total, monkeypatch):
        # a t(s) of 0 everywhere, or one that is not a number
        def flat(s, first, cos, sin):
            return total, 0.0

        monkeypatch.setattr(certificate, "_shifts", flat)
        with pytest.raises(ValidationError, match="is not the kink"):
            coefficient_search()

    def test_smaller_s_gives_smaller_bound(self):
        # the bound at maximal violation never falls as s grows to the
        # returned one, which is what puts the floats below it on its
        # rising side
        coeffs = coefficient_search()
        weak = []
        for s in np.linspace(0.0, coeffs.s, 64).tolist():
            _, t0, t1 = _intercepts(s)
            weak.append(bound_value(BoundCoefficients(s, float(t0), float(t1)), BETA_QUANTUM))
        assert np.all(np.diff(weak) >= -1e-12)
        assert max(weak) <= bound_value(coeffs, BETA_QUANTUM) + 1e-12


class TestBoundFormulas:
    def test_analytic_bound_endpoints(self):
        assert analytic_bound(BETA_QUANTUM) == pytest.approx(1.0, abs=1e-12)
        assert analytic_bound(THRESHOLD_BETA) == pytest.approx(
            TRIVIAL_CLASSICAL_FIDELITY, abs=1e-12
        )

    def test_matches_coefficient_form(self):
        # the paper's pair with the (t0*, t1*) split at theta = 0
        coeffs = BoundCoefficients(S_OPTIMAL, *map(float, t_constraints(S_OPTIMAL, 0.0)))
        assert coeffs.t == pytest.approx(T_OPTIMAL, abs=1e-15)
        for beta in np.linspace(2.0, BETA_QUANTUM, 20):
            assert analytic_bound(float(beta)) == pytest.approx(
                bound_value(coeffs, float(beta)), abs=1e-12
            )

    def test_upper_bound_endpoints(self):
        assert upper_bound(BETA_CLASSICAL) == pytest.approx(
            TRIVIAL_CLASSICAL_FIDELITY, abs=1e-12
        )
        assert upper_bound(BETA_QUANTUM) == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_ordering(self):
        for beta in np.linspace(2.0, BETA_QUANTUM, 50):
            assert analytic_bound(float(beta)) <= upper_bound(float(beta)) + 1e-12

    def test_xi_star_is_the_closed_form(self):
        # 3/4 + sqrt(beta^2 - 4)/8, clamped to 1 at 2 sqrt 2, and between
        # the analytic line and the interpolation upper bound
        assert xi_star(BETA_QUANTUM) == 1.0
        assert xi_star(float(np.nextafter(2, 3))) == pytest.approx(0.75, abs=1e-8)
        for beta in np.linspace(2.0, BETA_QUANTUM, 50)[1:].tolist():
            assert xi_star(beta) == pytest.approx(0.75 + math.sqrt(beta * beta - 4) / 8, abs=1e-15)
            assert analytic_bound(beta) - 1e-12 <= xi_star(beta) <= upper_bound(beta) + 1e-12

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 1.9, 2.9, float(np.nextafter(2, 1)),
                                      BETA_QUANTUM + 2 * certificate.ENDPOINT_SLACK])
    def test_xi_star_refuses_beta_outside_the_quantum_range(self, beta):
        # only [2, 2 sqrt 2 + ENDPOINT_SLACK] has a value: NaN and 2.9 used
        # to read 1.0, and 1.9 a math domain error
        with pytest.raises(ValidationError, match=r"^beta = \S+ outside \[2, 2\*sqrt\(2\)\]$"):
            xi_star(beta)

    def test_xi_star_at_the_ends_of_the_range(self):
        assert xi_star(2.0) == xi_star(2) == 0.75
        assert xi_star(BETA_QUANTUM + certificate.ENDPOINT_SLACK) == 1.0

    def test_threshold_value(self):
        assert THRESHOLD_BETA == pytest.approx(8 - 4 * SQRT2, abs=1e-12)
        assert THRESHOLD_BETA == pytest.approx(2.34314575050762, abs=1e-11)

    def test_threshold_is_crossover(self):
        t = THRESHOLD_BETA
        assert analytic_bound(t) == pytest.approx(TRIVIAL_CLASSICAL_FIDELITY, abs=1e-12)
        assert analytic_bound(t + 0.01) > TRIVIAL_CLASSICAL_FIDELITY
        assert analytic_bound(t - 0.01) < TRIVIAL_CLASSICAL_FIDELITY


class TestCertification:
    def test_reference_certified_at_one(self):
        value = certified_lower_bound(chsh_reference(), math.pi / 4)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonuniform_marginals(self, rng):
        for _ in range(20):
            asm = realize(random_realization(rng))
            dev = asm.max_marginal_deviation()
            if dev > 1e-3:
                with pytest.raises(ValidationError) as err:
                    certified_lower_bound(asm, 0.5)
                assert str(err.value) == f"analytic bound assumes p(a|x) = 1/2; deviation {dev:.3e} exceeds 1e-06"
                return
        pytest.fail("no non-uniform sample drawn")

    def test_matches_bound_of_functional(self):
        # one read of the CHSH coefficients gives the same float as the
        # bound of chsh_functional, at the maximising angle and elsewhere
        rng = np.random.default_rng(11)
        for _ in range(60):
            asm = realize(random_realization(rng, uniform_marginals=True))
            theta_star = max_violation_over_theta(asm)[0]
            for theta in (theta_star, *BREAKPOINT_ANGLES, float(rng.uniform(0, math.pi / 2))):
                assert certified_lower_bound(asm, theta) == analytic_bound(chsh_functional(asm, theta))

    def test_rejects_theta_outside_range(self):
        for theta in (-0.1, 2.0, math.nan):
            with pytest.raises(ValidationError, match="outside \\[0, pi/2\\]"):
                certified_lower_bound(chsh_reference(), theta)

    def test_rejects_chsh_above_quantum_bound(self):
        # uniform marginals, but sigma_{a|0} = diag(0.6, -0.1) and diag(-0.1,
        # 0.6) give u = 2.8 and w = 2, a maximum hypot(u, w) = 3.44 that no
        # quantum assemblage reaches; it used to be certified at 0.991
        elements = chsh_reference().elements.copy()
        elements[0, 0], elements[1, 0] = np.diag([0.6, -0.1]), np.diag([-0.1, 0.6])
        asm = Assemblage(elements)
        assert asm.max_marginal_deviation() <= 1e-15
        for theta in (0.0, math.pi / 4, math.pi / 2):
            with pytest.raises(ValidationError) as err:
                certified_lower_bound(asm, theta)
            assert str(err.value) == "CHSH maximum 3.44093011 exceeds 2 sqrt(2): not a quantum assemblage"

    def test_witness_channel_dominates_bound(self, rng):
        # the dephasing witness channel achieves at least the analytic bound
        # on every uniform-marginal assemblage, and never beats the exact
        # extractability: analytic <= witness <= exact + gap
        from steerbound.fidelity import extractability

        for _ in range(40):
            asm = realize(random_realization(rng, uniform_marginals=True))
            theta, beta = max_violation_over_theta(asm)
            c = dephasing_coefficient(theta, S_OPTIMAL)
            ch = dephasing_channel(theta, c)
            witness = extractability_with_channel(asm, ch)
            exact, _, gap = extractability(asm)
            assert analytic_bound(beta) - 1e-9 <= witness <= exact + gap

    def test_extractability_identity_channel(self):
        ch = dephasing_channel(0.5, 1.0)
        f = extractability_with_channel(chsh_reference(), ch)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_witness_is_the_fidelity_operator_trace(self):
        # tr(J W) read from the rows and the reference map, against the
        # formula np.vdot(J, W).real, within 1e-15: dephasing channels on both
        # intervals and a random channel, on seeded uniform items, general
        # assemblages and an item with p(0|0) below PROB_FLOOR, whose term
        # (about 7e-7 if it were kept) must be dropped
        rng = np.random.default_rng(29)
        isometry = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
        kets = [k.T.reshape(4) for k in isometry.reshape(4, 2, 2)]  # |K>> of each Kraus operator
        random_choi = sum(np.outer(ket, ket.conj()) for ket in kets)
        np.testing.assert_allclose(random_choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3), I2, atol=1e-14)
        channels = [dephasing_channel(theta, c) for theta in (0.3, 1.2) for c in (-0.6, 1.0)]
        channels += [dephasing_channel(theta, dephasing_coefficient(theta, S_OPTIMAL)) for theta in (0.3, 1.2)]
        channels.append(ExtractionChannel(random_choi))
        faint = PROB_FLOOR / 2 * projector(KET0)
        items = [realize(random_realization(rng, uniform_marginals=True)) for _ in range(20)]
        items += [general_assemblage(rng) for _ in range(20)]
        items.append(Assemblage([[faint, (I2 + PAULI_X) / 4], [I2 / 2 - faint, (I2 - PAULI_X) / 4]]))
        assert validate(items[-1]).passed
        for asm in items:
            for ch in channels:
                got = extractability_with_channel(asm, ch)
                assert type(got) is float
                assert abs(got - np.vdot(ch.choi, fidelity_operator(asm)).real) <= 1e-15

    def test_witness_needs_two_settings_and_outcomes(self):
        three_settings = Assemblage(np.broadcast_to(I2 / 6, (2, 3, 2, 2)))
        with pytest.raises(ValidationError, match="^extractability needs a two-setting, two-outcome assemblage$"):
            extractability_with_channel(three_settings, dephasing_channel(0.3, 0.5))


class TestChordDevice:
    def test_blocks_are_the_ends_of_the_line(self):
        for asm, beta, xi in [(Z_SHARP_X_BLANK, BETA_CLASSICAL, 0.75), (REFERENCE, BETA_QUANTUM, 1.0)]:
            block_beta, value, gap = block_point(asm)
            assert block_beta == beta
            assert value <= xi <= value + gap + 1e-12

    def test_biased_blocks_are_refused(self, rng):
        with pytest.raises(ValueError, match="uniform-marginal blocks only"):
            device_point([(1.0, general_assemblage(rng))])

    def test_meets_the_analytic_bound(self):
        # finding B: the chord device meets analytic_bound within its solves'
        # gap at every beta in [2, 2 sqrt 2], so the line cannot be raised
        for beta in np.linspace(BETA_CLASSICAL, BETA_QUANTUM, 20).tolist():
            device_beta, value, gap = device_point(chord_device(beta))
            assert device_beta == pytest.approx(beta, abs=1e-12)
            assert value - 1e-12 <= analytic_bound(beta) <= value + gap + 1e-12
            assert value + gap < analytic_bound(beta) + 1e-4


def _setting_zero(sigma00, sigma10) -> Assemblage:
    """sigma_{0|0} and sigma_{1|0} as given, sigma_{0|1} = sigma_{1|1} = I/4:
    with sigma00 + sigma10 = I/2, no-signalling holds and p(a|x) = 1/2 when
    both traces are 1/2, and the CHSH maximum is u = 2 tr[Z(sigma00 -
    sigma10)] at theta = 0."""
    return Assemblage([[sigma00, I2 / 4], [sigma10, I2 / 4]])


def _biased(delta: float) -> Assemblage:
    """The reference mixed with the answer a = 0 (Bob's marginal I/2): a
    valid assemblage with p(0|x) = 1/2 + delta."""
    answer = np.zeros((2, 2, 2, 2), dtype=complex)
    answer[0] = I2 / 2
    return chsh_reference().mix(Assemblage(answer), 1 - 2 * delta)


def _stretched(excess: float) -> Assemblage:
    """sigma_{a|x} = (I + (-1)^a k P_x)/4 with P_0 = Z and P_1 = X: the
    reference's Bloch vectors stretched by k = 1 + excess/(2 sqrt 2), so
    the CHSH maximum is 2 sqrt 2 + excess and the least eigenvalue is
    (1 - k)/4."""
    k = 1 + excess / BETA_QUANTUM
    return Assemblage([[(I2 + sign * k * p) / 4 for p in (PAULI_Z, PAULI_X)] for sign in (1, -1)])


def _non_psd_reference() -> Assemblage:
    """chsh_reference() with sigma_{0|0} = diag(0.6, -0.1) and sigma_{1|0} =
    diag(-0.1, 0.6): uniform marginals and a CHSH maximum of 3.44."""
    elements = chsh_reference().elements.copy()
    elements[0, 0], elements[1, 0] = np.diag([0.6, -0.1]), np.diag([-0.1, 0.6])
    return Assemblage(elements)


def _skewed(h: float) -> Assemblage:
    """chsh_reference() with +-[[0, h], [-h, 0]] on sigma_{0|0} and
    sigma_{1|0}: Hermitian parts, traces, marginals and CHSH value are the
    reference's, and |M - M^dagger| is 2h."""
    skew = np.array([[0, h], [-h, 0]])
    elements = chsh_reference().elements.copy()
    elements[0, 0] += skew
    elements[1, 0] -= skew
    return Assemblage(elements)


# each guard of certified_lower_bound, one case just inside and one just
# outside; the validate cases fail only if the validate call is dropped
CERTIFICATION_EDGES = {
    "marginals-inside": (lambda: _biased(0.9e-6), None),
    "marginals-outside": (lambda: _biased(1.1e-6), r"^analytic bound assumes p\(a\|x\) = 1/2; deviation 1\.100e-06 exceeds 1e-06$"),
    "cap-inside": (lambda: _stretched(0.5e-12), None),
    "cap-outside": (lambda: _stretched(2e-12), r"^CHSH maximum 2\.82842712 exceeds 2 sqrt\(2\): not a quantum assemblage$"),
    "hermitian-inside": (lambda: _skewed(0.4e-10), None),
    "hermitian-outside": (
        lambda: _skewed(0.6e-10),
        r"^Hermiticity violated: a sigma_\(a\|x\) differs from its adjoint by more than 1e-10$",
    ),
    "psd-inside": (lambda: _setting_zero(np.diag([0.5 + 5e-11, -5e-11]), np.diag([-5e-11, 0.5 + 5e-11])), None),
    "psd-outside": (
        lambda: _setting_zero(np.diag([0.5 + 2e-10, -2e-10]), np.diag([-2e-10, 0.5 + 2e-10])),
        r"^positivity violated: min eigenvalue -2\.000e-10$",
    ),
    # the two inputs it used to certify: a non-Hermitian reference at 1.0,
    # and a non-PSD assemblage at 0.991 (now refused by the cap)
    "found-skewed": (
        lambda: _skewed(0.2),
        r"^Hermiticity violated: a sigma_\(a\|x\) differs from its adjoint by more than 1e-10$",
    ),
    "found-non-psd": (lambda: _non_psd_reference(), r"^CHSH maximum 3\.44093011 exceeds 2 sqrt\(2\): not a quantum assemblage$"),
    "non-psd-below-the-cap": (
        lambda: _setting_zero(np.diag([0.51, -0.01]), np.diag([-0.01, 0.51])),
        r"^positivity violated: min eigenvalue -1\.000e-02$",
    ),
}


@pytest.mark.parametrize("case", CERTIFICATION_EDGES)
def test_certification_guards_at_their_edges(case):
    asm, refusal = CERTIFICATION_EDGES[case][0](), CERTIFICATION_EDGES[case][1]
    theta = max_violation_over_theta(asm)[0]
    if refusal is None:
        assert certified_lower_bound(asm, theta) == analytic_bound(chsh_functional(asm, theta))
    else:
        with pytest.raises(ValidationError, match=refusal):
            certified_lower_bound(asm, theta)


def test_certification_edges_sit_where_they_say():
    # the inside and outside cases straddle each guard's threshold
    assert 0.89e-6 < _biased(0.9e-6).max_marginal_deviation() < 1e-6 < _biased(1.1e-6).max_marginal_deviation()
    for excess in (0.5e-12, 2e-12):
        assert abs(max_violation_over_theta(_stretched(excess))[1] - BETA_QUANTUM - excess) <= 1e-14
    assert -1e-10 < validate(_stretched(0.5e-12)).psd_margin < 0


def test_both_certificates_pick_the_same_breakpoint(capsys):
    # verify-inequality's worst theta and coefficient search's (t0, t1)
    # split come from one tie rule, the first breakpoint exactly at the
    # least: at s = 0 t0* + t1* ties exactly at all three breakpoints, at
    # S_OPTIMAL 0 and pi/2 tie below pi/4, and one float above it pi/4 alone
    # is least, by 1.8e-16. Both read it through certificate._first_tied
    picked = []
    for s in (0.0, S_OPTIMAL, float(np.nextafter(S_OPTIMAL, 1))):
        main(["verify-inequality", "--s", repr(s)])
        printed = re.search(r"^worst margin \S+ at theta = (\S+) ", capsys.readouterr().out).group(1)
        i = [f"{theta:.9g}" for theta in BREAKPOINT_ANGLES].index(printed)
        _, t0, t1 = _intercepts(s)
        assert (t0, t1) == tuple(t[i] for t in breakpoint_shifts(s)), s
        picked.append(i)
    assert picked == [0, 0, 1]


S_CROSS = T_EXACT  # 1/(2 + sqrt 2) = (2 - sqrt 2)/2: below S_OPTIMAL, t0* + t1* at 0 and pi/4 cross here


@pytest.mark.parametrize("excess", [None, 0.5e-12, 2e-12], ids=["one-float", "half-e-12", "two-e-12"])
def test_tie_rule_edge(excess, capsys):
    # a breakpoint any amount above the least is not tied with it. Below
    # S_CROSS, t0* + t1* at theta = 0 (and pi/2) is (2 + sqrt 2)(S_CROSS - s)
    # above its value at pi/4; above S_OPTIMAL, its margin is (2 sqrt 2 -
    # 2)(s - S_OPTIMAL) above pi/4's. So pi/4 is named from the first float
    # past either crossing, as far as 1e-12 past it
    s = S_CROSS.floor() if excess is None else float(S_CROSS) - excess / (2 + SQRT2)
    g = _g(s)
    assert g[1] < g[0] == g[2] and g[0] - g[1] <= 1.1 * (excess or 1e-15)
    _, t0, t1 = _intercepts(s)
    assert (t0, t1) == tuple(t[1] for t in breakpoint_shifts(s))

    s = float(np.nextafter(S_OPTIMAL, 1)) if excess is None else S_OPTIMAL + excess / (2 * SQRT2 - 2)
    g = _g(s)
    assert g[1] < g[0] == g[2] and g[1] < T_OPTIMAL
    assert main(["verify-inequality", "--s", repr(s)]) == 1
    printed = re.search(r"^worst margin \S+ at theta = (\S+) ", capsys.readouterr().out).group(1)
    assert printed == "0.785398163"


@pytest.mark.parametrize("offset, refused", [(0.0, False), (2.0**-60, True), (-(2.0**-60), True)])
def test_kink_check_edge(offset, refused, monkeypatch):
    # t(s) at the kink moved by offset, however small, takes the bound off
    # the rising piece: the check is exact
    original = certificate._intercepts

    def raised(s):
        t, t0, t1 = original(s)
        return t + offset, t0, t1

    monkeypatch.setattr(certificate, "_intercepts", raised)
    if refused:
        with pytest.raises(ValidationError, match="is not the kink"):
            coefficient_search()
    else:
        assert coefficient_search().s == S_OPTIMAL
