import contextlib
import math
import signal
import time

import numpy as np
import pytest

from steerbound.assemblage import Assemblage, chsh_reference, random_realization, realize
from steerbound.fidelity import assemblage_fidelity
from steerbound.matkernel import I2, PAULI_X, PAULI_Z, ValidationError
from steerbound import selftest
from steerbound.selftest import (
    _intercepts,
    BREAKPOINTS,
    BoundCoefficients,
    S_OPTIMAL,
    T_OPTIMAL,
    THRESHOLD_BETA,
    TRIVIAL_CLASSICAL_FIDELITY,
    analytic_bound,
    bound_value,
    certified_lower_bound,
    coefficient_search,
    dephasing_channel,
    dephasing_coefficient,
    extractability_with_channel,
    inequality_margin,
    t_constraints,
    upper_bound,
)
from steerbound.steering import BETA_CLASSICAL, BETA_QUANTUM, t_operators

SQRT2 = math.sqrt(2)


class TestConstants:
    def test_values(self):
        assert S_OPTIMAL == pytest.approx((1 + SQRT2) / 4, abs=1e-15)
        assert T_OPTIMAL == pytest.approx((2 - SQRT2) / 2, abs=1e-15)
        assert TRIVIAL_CLASSICAL_FIDELITY == pytest.approx((2 + SQRT2) / 4, abs=1e-15)
        assert THRESHOLD_BETA == pytest.approx(8 - 4 * SQRT2, abs=1e-15)


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
        # dephasing_channel and inequality_margin share one check, whose
        # message names the first value that fails it
        for c in (math.nan, math.inf, -math.inf, 1.5, -1 - 1e-9):
            with pytest.raises(ValidationError, match=f"c = {c} outside"):
                dephasing_channel(0.1, c)
            with pytest.raises(ValidationError, match=f"c = {c} outside"):
                inequality_margin(S_OPTIMAL, 0.1, 0.1, np.array([0.3, 0.4, 0.5]), np.array([0.5, c, -2.0]))
            with pytest.raises(ValidationError, match=f"c = {c} outside"):
                inequality_margin(S_OPTIMAL, 0.1, 0.1, 0.3, np.array([c, 0.2]))
        for c in (1.0, -1.0):  # the identity and conjugation by Z
            np.testing.assert_allclose(dephasing_channel(0.1, c).apply(PAULI_X), c * PAULI_X, atol=1e-15)

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

    def test_k_operators_first_interval(self):
        # K_{ax}, the channel's dual image of the reference state
        c = dephasing_coefficient(0.3, S_OPTIMAL)
        ks = _k_operators(0.3, c)
        np.testing.assert_allclose(ks[0, 0], (I2 + PAULI_Z) / 2, atol=1e-14)
        np.testing.assert_allclose(ks[0, 1], (I2 + c * PAULI_X) / 2, atol=1e-14)

    def test_k_operators_are_channel_images(self, rng):
        # K_{ax} = (I + (-1)^a k_x P_x)/2 with P = (Z, X): the channel keeps
        # Gamma's pair sharp (k = 1) and shrinks the other by c, the form
        # the Pauli coefficients of inequality_margin assume
        for theta, c in zip(rng.uniform(0, math.pi / 2, 20), rng.uniform(-1, 1, 20)):
            k = (1.0, c) if theta <= math.pi / 4 else (c, 1.0)
            ks = _k_operators(theta, c)
            for a in range(2):
                for x, pauli in enumerate((PAULI_Z, PAULI_X)):
                    expected = (I2 + (-1) ** a * k[x] * pauli) / 2
                    np.testing.assert_allclose(ks[a, x], expected, rtol=0, atol=1e-15)

    def test_t_constraints_closed_form(self):
        # the broadcast closed form against the per-interval formulas, both intervals
        for s in (0.2, S_OPTIMAL, 0.9):
            thetas = np.linspace(0, math.pi / 2, 101)
            t0, t1 = t_constraints(s, thetas)
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


def _k_operators(theta, c):
    """K[a, x]: the dephasing channel's dual image of the reference
    conditional state, 2 sigma_{a|x} (every p(a|x) is 1/2)."""
    return dephasing_channel(theta, c).dual(2 * chsh_reference().elements)


def _margin_by_operators(s, t0, t1, theta, c):
    """Reference: the per-theta loop over the channel's K operators and
    t_operators."""
    ks = _k_operators(theta, c)
    ts = t_operators(theta)
    shift = (t0, t1)
    return min(
        np.linalg.eigvalsh(ks[a, x] - s * ts[a, x] - shift[x] * I2)[0] for a in range(2) for x in range(2)
    )


class TestInequalityMargins:
    def test_margins_nonnegative_at_optimum(self):
        thetas = np.union1d(np.linspace(0, math.pi / 2, 801), BREAKPOINTS)
        t0, t1 = t_constraints(S_OPTIMAL, thetas)
        c = dephasing_coefficient(thetas, S_OPTIMAL)
        assert np.all(inequality_margin(S_OPTIMAL, t0, t1, thetas, c) >= -1e-10)

    def test_margins_tight(self):
        # the constraint rule makes the smallest margin exactly zero
        for theta in (0.0, 0.3, math.pi / 4, 1.0, math.pi / 2):
            t0, t1 = t_constraints(S_OPTIMAL, theta)
            c = dephasing_coefficient(theta, S_OPTIMAL)
            m = inequality_margin(S_OPTIMAL, t0, t1, theta, c)
            assert m == pytest.approx(0.0, abs=1e-10)

    def test_overshifted_violates(self):
        theta = 0.3
        t0, t1 = t_constraints(S_OPTIMAL, theta)
        c = dephasing_coefficient(theta, S_OPTIMAL)
        m = inequality_margin(S_OPTIMAL, t0 + 0.05, t1, theta, c)
        assert m < -0.04

    def test_matches_operator_loop(self, rng):
        # random shifts and contractions, both signs of s, c across [-1, 1],
        # against LAPACK's eigenvalues of the operators built from their
        # definitions, independent of the Pauli coefficients
        for s in rng.uniform(-1, 2, 20):
            thetas = rng.uniform(0, math.pi / 2, 50)
            t0, t1 = rng.uniform(-1, 1, (2, 50))
            c = rng.uniform(-1, 1, 50)
            batched = inequality_margin(s, t0, t1, thetas, c)
            for i in range(50):
                expected = _margin_by_operators(s, t0[i], t1[i], thetas[i], c[i])
                assert batched[i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "theta, t0, t1, c, shape",
        [
            (0.3, 0.1, 0.2, 0.5, ()),
            (np.linspace(0, 1, 4), 0.1, 0.2, 0.5, (4,)),
            (0.3, np.zeros((3, 1)), 0.2, 0.5, (3, 1)),
            (0.3, 0.1, np.zeros(5), np.linspace(-1, 1, 5), (5,)),
            (np.linspace(0, 1, 4), np.zeros((3, 1)), 0.2, np.full((2, 1, 1), 0.5), (2, 3, 4)),
        ],
    )
    def test_broadcast_shape(self, theta, t0, t1, c, shape):
        # the shape numpy broadcasts (theta, t0, t1, c) to, and the same
        # values as the one-point call at each entry
        margins = inequality_margin(S_OPTIMAL, t0, t1, theta, c)
        assert np.shape(margins) == shape
        args = np.broadcast_arrays(t0, t1, theta, c)
        for index in np.ndindex(shape):
            point = [float(a[index]) for a in args]
            assert margins[index] == inequality_margin(S_OPTIMAL, *point)

    def test_tight_for_any_s(self, rng):
        # t_constraints is the largest shift: margin 0 at every theta, for any s
        for s in rng.uniform(-1, 2, 50):
            thetas = np.union1d(np.linspace(0, math.pi / 2, 200), BREAKPOINTS)
            t0, t1 = t_constraints(s, thetas)
            c = dephasing_coefficient(thetas, s)
            margins = inequality_margin(s, t0, t1, thetas, c)
            np.testing.assert_allclose(margins, 0.0, atol=1e-12)

    def test_split_margin_is_shift_sum_minus_t(self, rng):
        # at the split t0 = t0*, t1 = t - t0* the least eigenvalue is
        # min(0, t0* + t1* - t), the value verify-inequality prints
        thetas = np.union1d(np.linspace(0, math.pi / 2, 500), BREAKPOINTS)
        for s in np.append(rng.uniform(-1, 2, 20), S_OPTIMAL):
            t0, t1 = t_constraints(s, thetas)
            c = dephasing_coefficient(thetas, s)
            for t in (T_OPTIMAL, 0.0, 0.6):
                margins = inequality_margin(s, t0, t - t0, thetas, c)
                np.testing.assert_allclose(margins, np.minimum(t0 + t1 - t, 0), rtol=0, atol=1e-12)


class TestCoefficientSearch:
    def test_breakpoints_are_read_only(self):
        # every certificate reads theta here, so no caller may move an angle
        np.testing.assert_array_equal(BREAKPOINTS, [0.0, math.pi / 4, math.pi / 2])
        with pytest.raises(ValueError):
            BREAKPOINTS[1] = 0.0

    def test_breakpoint_minimum_is_exact(self, rng):
        # the minimum of t0* + t1* over BREAKPOINTS -- 0, pi/4 and pi/2
        # alone -- equals its minimum over a dense uniform grid with the clamp
        # angles asin/acos(1/|4s|) added, also for s within rounding of
        # |4s| = 1 and |4s| = sqrt 2, where clamp angles meet 0, pi/2 or pi/4
        edges = np.array([0.25, SQRT2 / 4])
        near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
        dense = np.linspace(0, math.pi / 2, 200_001)
        for s in np.concatenate([rng.uniform(-1, 2, 200), near, -near]):
            r = min(1.0, 1 / abs(4 * s))
            fine = np.concatenate([dense, [math.asin(r), math.acos(r)]])
            coarse = sum(t_constraints(s, BREAKPOINTS)).min()
            assert coarse == pytest.approx(sum(t_constraints(s, fine)).min(), abs=1e-12), s

    def test_intercepts_match_scalar_grid(self, rng):
        # the one-broadcast intercepts equal the first minimiser of t0* + t1*
        # over BREAKPOINTS taken s by s: the value and the (t0, t1) split
        s_values = np.concatenate([rng.uniform(-1, 2, 500), [0.0, 0.25, -0.25, S_OPTIMAL]])
        for s, got in zip(s_values, zip(*_intercepts(s_values))):
            t0, t1 = t_constraints(float(s), BREAKPOINTS)
            i = int(np.argmin(t0 + t1))
            assert got == (t0[i] + t1[i], t0[i], t1[i]), s

    def test_recovers_optimum(self):
        # the search returns where the bound at maximal violation comes within
        # 1e-10 of its plateau 1; below S_OPTIMAL, t(s) = 3/2 - 2s and the
        # bound rises as (sqrt(2) - 1) s, so that point is 1e-10/(sqrt(2) - 1)
        # below S_OPTIMAL, and (s, t) lies on the line through the optimum
        coeffs = coefficient_search(np.linspace(0.0, 0.8, 512))
        assert abs(coeffs.s + 1e-10 / (SQRT2 - 1) - S_OPTIMAL) <= 1e-12
        assert abs(coeffs.t - 2 * (S_OPTIMAL - coeffs.s) - T_OPTIMAL) <= 1e-12
        assert abs(bound_value(coeffs, BETA_QUANTUM) - (1 - 1e-10)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 64, 512, 4096])
    def test_ksection_matches_bisection(self, n):
        # the broadcast k-section against the scalar bisection it replaced
        s_values = np.linspace(0.0, 0.8, n)

        def bound_at_max(s):
            return (s * BETA_QUANTUM + _intercepts(s)[0]) / 2

        values = bound_at_max(s_values)
        plateau = values.max() - 1e-10
        idx = int(np.argmax(values >= plateau))
        lo, hi = s_values[idx - 1], s_values[idx]
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if bound_at_max(mid)[0] >= plateau:
                hi = mid
            else:
                lo = mid
        assert abs(coefficient_search(s_values).s - hi) <= 1e-12

    def test_refinement_is_a_few_broadcasts(self, monkeypatch):
        # one call for the grid, at most five for the refinement, one for the
        # returned (t0, t1)
        calls = []

        def counted(s):
            calls.append(np.size(s))
            return _intercepts(s)

        monkeypatch.setattr(selftest, "_intercepts", counted)
        coefficient_search(np.linspace(0.0, 0.8, 2))
        assert 3 <= len(calls) <= 7
        assert calls[0] == 2 and calls[-1] == 1
        assert all(size > 1 for size in calls[1:-1])

    @pytest.mark.parametrize(
        "s_grid, expected, tol",
        [
            # every point is past the optimum, so the first one is the answer
            (np.linspace(1e5, 1e6, 64), 1e5, 0.0),
            (np.linspace(0, 1e8, 512), S_OPTIMAL, 1e-5),
            # the largest |s| whose rounding, 16 eps |s|, stays below 1e-6
            (np.linspace(0, 2.8e8, 512), S_OPTIMAL, 1e-5),
            # past that the rounding hides the plateau edge, so these are
            # refused (expected None): they returned s 7.3e-3 below
            # S_OPTIMAL and s = 0 (bound 0.25 at maximal violation)
            (np.linspace(0, 1e12, 512), None, None),
            (np.linspace(0, 1e15, 512), None, None),
        ],
    )
    def test_large_s_grid_returns(self, s_grid, expected, tol):
        # the plateau values carry rounding noise above 1e-10 at this |s|,
        # which the plateau tolerance covers, and the float spacing exceeds
        # 1e-12, where the refinement must still end
        def hang(signum, frame):
            raise TimeoutError("coefficient_search did not return")

        refused = pytest.raises(ValidationError, match="exceeds 1e-6")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            start = time.perf_counter()
            with refused if expected is None else contextlib.nullcontext():
                coeffs = coefficient_search(s_grid)
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1.0
        if expected is not None:
            assert abs(coeffs.s - expected) <= tol
            assert np.isfinite([coeffs.t0, coeffs.t1]).all()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            coefficient_search([])

    def test_nonfinite_grid_rejected(self):
        for s_grid in ([0.1, math.nan], [math.inf]):
            with pytest.raises(ValidationError):
                coefficient_search(s_grid)

    def test_smaller_s_gives_smaller_bound(self):
        coeffs = coefficient_search(np.linspace(0.0, 0.5, 64))
        weak = coefficient_search(np.linspace(0.0, 0.4, 64))
        assert bound_value(weak, BETA_QUANTUM) <= bound_value(coeffs, BETA_QUANTUM) + 1e-12


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
            if asm.max_marginal_deviation() > 1e-3:
                with pytest.raises(ValidationError):
                    certified_lower_bound(asm, 0.5)
                return
        pytest.fail("no non-uniform sample drawn")

    def test_rejects_chsh_above_quantum_bound(self):
        # uniform marginals, but sigma_{a|0} = diag(0.6, -0.1) and diag(-0.1,
        # 0.6) give u = 2.8 and w = 2, a maximum hypot(u, w) = 3.44 that no
        # quantum assemblage reaches; it used to be certified at 0.991
        elements = chsh_reference().elements.copy()
        elements[0, 0], elements[1, 0] = np.diag([0.6, -0.1]), np.diag([-0.1, 0.6])
        asm = Assemblage(elements)
        assert asm.max_marginal_deviation() <= 1e-15
        for theta in (0.0, math.pi / 4, math.pi / 2):
            with pytest.raises(ValidationError, match="CHSH maximum 3.44093011 exceeds 2 sqrt"):
                certified_lower_bound(asm, theta)

    def test_witness_channel_dominates_bound(self, rng):
        # the dephasing witness channel achieves at least the analytic bound
        # on every uniform-marginal assemblage, and never beats the exact
        # extractability: analytic <= witness <= exact + gap
        from steerbound.fidelity import extractability
        from steerbound.steering import max_violation_over_theta

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
