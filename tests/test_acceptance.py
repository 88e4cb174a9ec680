"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a
single pass line so the full certification story is visible from the
pytest -s output.
"""

import math

import numpy as np
import pytest

from steerbound.assemblage import (
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
from steerbound.matkernel import I2, PAULI_X, PAULI_Z, PHI_PLUS
from steerbound.numsearch import SearchConfig, sandwich_sweep
from steerbound.selftest import (
    BREAKPOINTS,
    S_OPTIMAL,
    T_OPTIMAL,
    THRESHOLD_BETA,
    analytic_bound,
    breakpoint_shifts,
    coefficient_search,
    dephasing_channel,
    dephasing_coefficient,
    extractability_with_channel,
    t_constraints,
    upper_bound,
)
from steerbound.steering import (
    BETA_QUANTUM,
    chsh_functional,
    max_violation_over_theta,
)

SQRT2 = math.sqrt(2)


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_01_trivial_classical_fidelity():
    value, strategy = classical_fidelity(chsh_reference())
    expected = (2 + SQRT2) / 4
    assert value == pytest.approx(expected, abs=1e-9)
    saturating = from_classical(appendix_b_strategy())
    achieved = assemblage_fidelity(chsh_reference(), saturating)
    assert achieved == pytest.approx(expected, abs=1e-9)
    _report("trivial classical fidelity = (2+sqrt(2))/4")


def test_02_operator_inequality_sweep():
    # the paper's pair (s, t) through the fixed split t0 = t0*(theta),
    # t1 = t - t0*(theta), whose least eigenvalue is min(t0* + t1* - t, 0):
    # decided exactly at the breakpoints 0, pi/4 and pi/2, where t0* + t1*
    # is least, with no slack, as verify-inequality decides it: it holds
    # for t = T_OPTIMAL and fails once t exceeds it by 1e-11. In floats, no
    # angle of a dense grid that holds the breakpoints falls below t either
    g = [t0 + t1 for t0, t1 in zip(*breakpoint_shifts(S_OPTIMAL))]
    worst = min(x - T_OPTIMAL for x in g)
    assert worst >= 0
    assert min(x - (T_OPTIMAL + 1e-11) for x in g) < 0
    assert float(min(x - (T_OPTIMAL + 1e-6) for x in g)) < -5e-7
    thetas = np.union1d(np.linspace(0, math.pi / 2, 10_000), BREAKPOINTS)
    assert min(min(sum(t_constraints(S_OPTIMAL, theta)) - T_OPTIMAL, 0) for theta in thetas.tolist()) >= 0
    _report(f"operator inequality at (s, t) optimal: exact worst margin {float(worst):.2e} >= 0")


def test_03_coefficient_recovery():
    coeffs = coefficient_search()
    assert coeffs.s == pytest.approx(S_OPTIMAL, abs=1e-12)
    assert coeffs.t == pytest.approx(T_OPTIMAL, abs=1e-12)
    _report("coefficient recovery s = (1+sqrt(2))/4, t = (2-sqrt(2))/2")


def test_04_bound_endpoints_and_threshold():
    assert analytic_bound(2 * SQRT2) == pytest.approx(1.0, abs=1e-12)
    assert analytic_bound(8 - 4 * SQRT2) == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
    assert THRESHOLD_BETA == pytest.approx(8 - 4 * SQRT2, abs=1e-9)
    _report("bound endpoints and non-triviality threshold 8 - 4*sqrt(2)")


def test_05_reference_realization():
    povms = [
        [(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2],
        [(I2 + PAULI_X) / 2, (I2 - PAULI_X) / 2],
    ]
    asm = realize(QuantumRealization(np.outer(PHI_PLUS, PHI_PLUS.conj()), povms))
    np.testing.assert_allclose(asm.elements, chsh_reference().elements, atol=1e-12)
    beta = chsh_functional(asm, math.pi / 4)
    assert beta == pytest.approx(BETA_QUANTUM, abs=1e-10)
    _report("Z/X on maximally entangled pair realizes the reference, beta = 2*sqrt(2)")


def test_06_sandwich_property():
    cfg = SearchConfig()  # default targets incl. 2*sqrt(2)
    report = sandwich_sweep(cfg)
    for record in report.records:
        assert (
            analytic_bound(record.beta) - record.gap - 1e-12
            <= record.numeric_min
            <= upper_bound(record.beta) + 1e-9
        ), record
        assert record.gap <= 1e-9, record
        # strictly below eq8 inside (2, 2 sqrt 2): eq8 is not the minimum
        if record.beta < BETA_QUANTUM:
            assert record.numeric_min <= upper_bound(record.beta) - 1e-4, record
    assert report.passed
    _report("sandwich property over beta in {2.1, 2.34, 2.5, 2.7, 2*sqrt(2)}, strict below eq8")


def test_07_per_instance_witness_chain():
    rng = np.random.default_rng(20240817)
    assemblages = [realize(random_realization(rng, uniform_marginals=True)) for _ in range(200)]
    worst_slack = math.inf
    for asm in assemblages:
        exact, _, gap = extractability(asm)
        theta, _ = max_violation_over_theta(asm)
        beta = chsh_functional(asm, theta)
        c = dephasing_coefficient(theta, S_OPTIMAL)
        channel = dephasing_channel(theta, c)
        witness = extractability_with_channel(asm, channel)
        lower = (S_OPTIMAL * beta + T_OPTIMAL) / 2
        worst_slack = min(worst_slack, witness - lower)
        assert gap <= 1e-9
        assert lower - 1e-9 <= witness <= exact + gap
    _report(
        f"per-instance chain analytic <= witness <= exact + gap, "
        f"worst slack {worst_slack:.3e} >= -1e-9"
    )


def test_08_invariant_suites():
    rng = np.random.default_rng(20240817)

    # sampled quantum assemblages are valid and respect the Tsirelson bound
    for _ in range(100):
        asm = realize(random_realization(rng))
        assert validate(asm).passed
        _, beta = max_violation_over_theta(asm)
        assert beta <= BETA_QUANTUM + 1e-9

    # fidelity symmetry and normalization on random densities
    for _ in range(100):
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g1 @ g1.conj().T
        rho /= np.trace(rho).real
        sigma = g2 @ g2.conj().T
        sigma /= np.trace(sigma).real
        f = state_fidelity(rho, sigma)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(state_fidelity(sigma, rho), abs=1e-12)
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    # the analytic bound never exceeds the interpolation upper bound
    for beta in np.linspace(2.0, BETA_QUANTUM, 200):
        assert analytic_bound(float(beta)) <= upper_bound(float(beta)) + 1e-12

    _report("invariant suites (sampling, fidelity, bound ordering)")
