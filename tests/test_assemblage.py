import json
import math
from operator import add, sub

import numpy as np
import pytest

from steerbound.assemblage import (
    Assemblage,
    ClassicalStrategy,
    QuantumRealization,
    ValidationError,
    chsh_reference,
    from_classical,
    json_matrix,
    random_realization,
    realize,
    validate,
)
from steerbound.cli import main
from steerbound.fidelity import appendix_b_strategy, state_fidelity
from steerbound.selftest import certified_lower_bound
from steerbound.matkernel import (
    I2,
    I4,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    _largest,
    _smallest,
    projector,
)
from conftest import numpy_min_eigvals, pauli_reference
from devices import general_assemblage


def phi_plus():
    return np.outer(PHI_PLUS, PHI_PLUS.conj())


def zx_povms():
    return [
        [(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2],
        [(I2 + PAULI_X) / 2, (I2 - PAULI_X) / 2],
    ]


class TestReference:
    def test_elements(self):
        ref = chsh_reference()
        np.testing.assert_allclose(ref.elements[0, 0], projector(KET0) / 2, atol=1e-14)
        np.testing.assert_allclose(ref.elements[1, 0], projector(KET1) / 2, atol=1e-14)
        np.testing.assert_allclose(ref.elements[0, 1], projector(KET_PLUS) / 2, atol=1e-14)
        np.testing.assert_allclose(ref.elements[1, 1], projector(KET_MINUS) / 2, atol=1e-14)

    def test_uniform_probabilities(self):
        ref = chsh_reference()
        probs = np.trace(ref.elements, axis1=2, axis2=3).real
        np.testing.assert_allclose(probs, 0.5, rtol=0, atol=1e-14)
        assert ref.max_marginal_deviation() < 1e-14

    def test_valid(self):
        assert validate(chsh_reference()).passed

    def test_realized_by_zx_on_maximally_entangled(self):
        asm = realize(QuantumRealization(phi_plus(), zx_povms()))
        np.testing.assert_allclose(asm.elements, chsh_reference().elements, atol=1e-12)


class TestRealize:
    def test_no_signaling_always(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng))
            report = validate(asm)
            assert report.passed, report.failures()

    def test_nonprojective_povms(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng, projective=False))
            assert validate(asm).passed

    def test_uniform_marginal_sampling(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng, uniform_marginals=True))
            assert asm.max_marginal_deviation() < 1e-10

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValidationError):
            realize(QuantumRealization(2 * phi_plus(), zx_povms()))

    @pytest.mark.parametrize("excess, refused", [(0.5e-10, False), (2e-10, True)])
    def test_physical_tolerance_edge(self, excess, refused):
        # the state's trace and each POVM's sum are checked at VALIDITY_TOL = 1e-10
        scaled = [[(1 + excess) * m for m in povm] for povm in zx_povms()]
        for state, povms, message in (
            ((1 + excess) * phi_plus(), zx_povms(), "shared state must have unit trace"),
            (phi_plus(), scaled, "POVM for setting 0 does not sum to identity"),
        ):
            if refused:
                with pytest.raises(ValidationError, match=message):
                    realize(QuantumRealization(state, povms))
            else:
                assert validate(realize(QuantumRealization(state, povms))).passed

    @pytest.mark.parametrize("excess, refused", [(0.4e-10, False), (0.9e-10, True)])
    def test_realized_tolerance_edge(self, excess, refused):
        # a state and POVMs each `excess` past normal pass their own checks,
        # and their assemblage, about 2 excess from normalized, is held to
        # the same VALIDITY_TOL = 1e-10: 0.8e-10 is issued, 1.8e-10 refused
        povms = [[(1 + excess) * m for m in povm] for povm in zx_povms()]
        r = QuantumRealization((1 + excess) * phi_plus(), povms)
        r.check()
        if refused:
            with pytest.raises(ValidationError, match=r"^normalization violated: deviation 1\.800e-10$"):
                realize(r)
        else:
            assert 0.7e-10 < validate(realize(r)).normalization_deviation < 0.9e-10

    def test_never_issues_what_validate_refuses(self):
        # state and POVMs scaled by 1 + k 1e-11, across the edge of both the
        # input checks and the output's: each case is refused or valid
        issued = []
        for k in range(21):
            scale = 1 + k * 1e-11
            povms = [[scale * m for m in povm] for povm in zx_povms()]
            try:
                asm = realize(QuantumRealization(scale * phi_plus(), povms))
            except ValidationError:
                issued.append(False)
            else:
                assert validate(asm).passed, k
                issued.append(True)
        assert issued[0] and not issued[-1]

    def test_rejects_bad_povm(self):
        povms = zx_povms()
        povms[0] = [I2, I2]  # does not sum to identity
        with pytest.raises(ValidationError):
            realize(QuantumRealization(phi_plus(), povms))

    @pytest.mark.parametrize(
        "povms",
        [
            {0: zx_povms()[0], 1: zx_povms()[1]},  # the retired setting-keyed dict
            [zx_povms()[0], zx_povms()[1][:1]],  # ragged: one setting short an outcome
            np.zeros((2, 2, 3, 3)),  # 3x3 elements
            [zx_povms()[0], []],  # an empty setting
            [[], []],
            [],
        ],
        ids=["dict", "ragged", "3x3", "empty-setting", "no-outcomes", "no-settings"],
    )
    def test_rejects_povms_that_are_not_one_array(self, povms):
        with pytest.raises(ValidationError, match="POVMs must be a"):
            QuantumRealization(phi_plus(), povms).check()

    def test_rejects_non_psd_povm_element(self):
        m0 = np.diag([1.5, 0.5]).astype(complex)
        povms = zx_povms()
        povms[0] = [m0, I2 - m0]  # sums to identity, but M_{1|0} = diag(-0.5, 0.5)
        with pytest.raises(ValidationError, match=r"POVM element \(1\|0\) is not PSD"):
            QuantumRealization(phi_plus(), povms).check()

    def test_rejects_non_psd_state(self):
        state = phi_plus() - 0.2 * I4 / 4
        state = state / np.trace(state).real
        with pytest.raises(ValidationError):
            realize(QuantumRealization(state, zx_povms()))

    def test_nested_list_state(self):
        povms = [[np.eye(2)]]
        from_list = realize(QuantumRealization((np.eye(4) / 4).tolist(), povms))
        from_array = realize(QuantumRealization(np.eye(4) / 4, povms))
        assert from_list.elements.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(from_list.elements, from_array.elements)
        for state in ([[0.5, 0], [0, 0.5]], [[0.25] * 4] * 3, [[1, 0, 0, 0], [0]]):
            with pytest.raises(ValidationError):
                realize(QuantumRealization(state, povms))

    def test_matches_partial_trace_definition(self, rng):
        # sigma_{a|x} = tr_A[(M_{a|x} (x) I) rho], with the Kronecker product
        # and the partial trace over the first factor written out
        for projective in (True, False):
            for _ in range(25):
                r = random_realization(rng, projective=projective)
                asm = realize(r)
                for x, povm in enumerate(r.povms):
                    for a, m in enumerate(povm):
                        joint = (np.kron(m, I2) @ r.state).reshape(2, 2, 2, 2)
                        expected = np.einsum("ibic->bc", joint)
                        np.testing.assert_allclose(asm.elements[a, x], expected, rtol=0, atol=1e-15)


class TestClassical:
    def test_single_state_strategy(self):
        rho = projector(KET0)
        s = ClassicalStrategy(weights=[1.0], responses=[[0, 1]], hidden_states=[rho])
        asm = from_classical(s)
        np.testing.assert_allclose(asm.elements[0, 0], rho, atol=1e-14)
        np.testing.assert_allclose(asm.elements[1, 1], rho, atol=1e-14)
        assert np.trace(asm.elements[1, 0]).real == pytest.approx(0.0, abs=1e-14)
        assert validate(asm).passed

    def test_weights_must_sum_to_one(self):
        s = ClassicalStrategy(weights=[0.7], responses=[[0, 0]], hidden_states=[projector(KET0)])
        with pytest.raises(ValidationError):
            from_classical(s)

    @pytest.mark.parametrize("excess, refused", [(0.5e-12, False), (2e-12, True)])
    def test_weight_sum_edge(self, excess, refused):
        # weights summing to 1 + excess, against WEIGHT_SUM_TOL = 1e-12
        s = ClassicalStrategy([0.5, 0.5 + excess], [[0, 0], [1, 1]], [projector(KET0), projector(KET1)])
        if refused:
            with pytest.raises(ValidationError, match="must sum to 1"):
                s.check()
        else:
            s.check()

    @pytest.mark.parametrize("weight, refused", [(-0.5e-12, False), (-2e-12, True)])
    def test_negative_weight_edge(self, weight, refused):
        # a weight this far below 0 is 0 within PROB_FLOOR = 1e-12, or not
        s = ClassicalStrategy([1 - weight, weight], [[0, 0], [1, 1]], [projector(KET0), projector(KET1)])
        if refused:
            with pytest.raises(ValidationError, match="nonnegative"):
                s.check()
        else:
            s.check()

    @pytest.mark.parametrize(
        "trace_excess, weight_excess, refused", [(0.5e-10, 0.0, False), (0.995e-10, 0.95e-12, True)]
    )
    def test_output_validity_edge(self, trace_excess, weight_excess, refused):
        # hidden states and weights each within their own checks: traces
        # 1 + trace_excess within VALIDITY_TOL, weights summing to 1 +
        # weight_excess within WEIGHT_SUM_TOL, so the assemblage is about
        # trace_excess + weight_excess from normalized: 0.5e-10, or
        # 1.0045e-10, past the output's VALIDITY_TOL = 1e-10
        hidden = [(1 + trace_excess) * projector(k) for k in (KET0, KET1)]
        s = ClassicalStrategy([0.5, 0.5 + weight_excess], [[0, 0], [1, 1]], hidden)
        if refused:
            with pytest.raises(ValidationError, match="normalization violated"):
                from_classical(s)
        else:
            assert validate(from_classical(s)).normalization_deviation < 1e-10

    def test_nan_weight_rejected(self):
        s = ClassicalStrategy([math.nan], [[0, 0]], [I2 / 2])
        with pytest.raises(ValidationError, match="nonnegative"):
            s.check()

    def test_response_out_of_range(self):
        s = ClassicalStrategy(weights=[1.0], responses=[[3, 0]], hidden_states=[projector(KET0)])
        with pytest.raises(ValidationError):
            from_classical(s)

    @pytest.mark.parametrize("responses", [[[0, 0, 1]], [[0]], [0, 1], [[0, 1], [1, 0]], [[0.5, 1]]])
    def test_responses_must_be_one_pair_of_bits_per_weight(self, responses):
        # a third setting's response used to be dropped without a word
        s = ClassicalStrategy(weights=[1.0], responses=responses, hidden_states=[projector(KET0)])
        with pytest.raises(ValidationError, match=r"\(L, 2\) array of 0s and 1s"):
            from_classical(s)

    @pytest.mark.parametrize(
        "hidden",
        [np.zeros((0, 2, 2)), [projector(KET0)] * 2, [np.eye(4) / 4], projector(KET0)],
        ids=["none", "one-too-many", "4x4", "unstacked"],
    )
    def test_hidden_states_checked(self, hidden):
        s = ClassicalStrategy(weights=[1.0], responses=[[0, 0]], hidden_states=hidden)
        with pytest.raises(ValidationError):
            from_classical(s)

    def test_random_mixtures_are_valid(self, rng):
        for _ in range(25):
            n_lam = int(rng.integers(1, 5))
            g = rng.normal(size=(n_lam, 2, 2)) + 1j * rng.normal(size=(n_lam, 2, 2))
            m = g @ g.conj().swapaxes(1, 2)
            hidden = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
            strategy = ClassicalStrategy(rng.dirichlet(np.ones(n_lam)), rng.integers(0, 2, size=(n_lam, 2)), hidden)
            asm = from_classical(strategy)
            assert validate(asm).passed
            # the contraction over lambda is the sum of p(lambda) rho_lambda at each response
            expected = np.zeros((2, 2, 2, 2), dtype=complex)
            for w, resp, rho in zip(strategy.weights, strategy.responses, hidden):
                for x, a in enumerate(resp):
                    expected[a, x] += w * rho
            np.testing.assert_allclose(asm.elements, expected, rtol=0, atol=1e-15)


class TestValidate:
    def test_flags_signaling(self):
        bad = chsh_reference().elements.copy()
        bad[0, 1] = projector(KET0) * 0.8
        bad[1, 1] = projector(KET1) * 0.2
        report = validate(Assemblage(bad))
        assert not report.passed
        assert any("no-signaling" in f for f in report.failures())

    def test_flags_negative_eigenvalue(self):
        bad = chsh_reference().elements.copy()
        bad[0, 0] -= 0.1 * projector(KET1)
        bad[1, 0] += 0.1 * projector(KET1)
        report = validate(Assemblage(bad))
        assert report.psd_margin < -1e-3
        assert any("positivity" in f for f in report.failures())

    @pytest.mark.parametrize("excess, passed", [(0.5e-10, True), (2e-10, False)])
    def test_default_tolerance_edge(self, excess, passed):
        # validate's default is VALIDITY_TOL = 1e-10
        report = validate(Assemblage((1 + excess) * chsh_reference().elements))
        assert report.passed == passed
        assert report.tol == 1e-10

    def test_flags_normalization(self):
        report = validate(Assemblage(1.3 * chsh_reference().elements))
        assert report.normalization_deviation == pytest.approx(0.3, abs=1e-12)
        assert not report.passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_names_non_finite_entries(self, bad):
        # the constructor refuses them, so no report can hold one
        elements = chsh_reference().elements.copy()
        elements[1, 1] += bad
        message = r"^non-finite entries in sigma_\(a\|x\) for \(a, x\) in \[\(1, 1\)\]$"
        with pytest.raises(ValidationError, match=message):
            Assemblage(elements)

    def test_mix_with_nan_weight_rejected(self):
        with pytest.raises(ValidationError, match=r"^mixture weight nan outside \[0, 1\]$"):
            chsh_reference().mix(chsh_reference(), math.nan)

    def test_matches_the_numpy_formulas(self):
        # the one-read report against the same quantities as whole-array
        # numpy formulas, on valid, non-PSD, signalling, unnormalized and
        # slightly non-Hermitian assemblages of 2 to 3 outcomes and settings
        rng = np.random.default_rng(26)
        verdicts = set()
        for n in range(600):
            shape = (2 + n % 2, 2 + n // 2 % 2, 2, 2)
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            elements = (g @ g.conj().swapaxes(-1, -2)) / (4 * shape[0] * shape[1])
            kind = n % 5
            if kind == 1:  # non-PSD
                elements = elements - rng.uniform(0, 0.1) * I2
            elif kind == 2:  # one element off Hermitian by about 1e-10
                elements[0, 0, 0, 1] += rng.uniform(0, 2e-10)
            elif kind == 3:  # Bob's marginals agree, traces do not
                elements = elements - elements.sum(axis=0, keepdims=True) / shape[0] + I2 / (shape[0] * 2)
                elements = elements * rng.uniform(0.9, 1.1)
            elif kind == 4:  # no-signalling and normalization hold
                elements = elements - elements.sum(axis=0, keepdims=True) / shape[0] + I2 / (shape[0] * 2)
            asm = Assemblage(elements)
            got = validate(asm)
            marginals = asm.elements.sum(axis=0)
            lower = numpy_min_eigvals(asm.elements, 1e-10)
            assert got.hermitian == (lower is not None)
            if got.hermitian:
                assert abs(got.psd_margin - lower.min()) <= 1e-15
            assert abs(got.no_signaling_deviation - np.abs(marginals - marginals[0]).max()) <= 1e-15
            assert got.normalization_deviation == np.abs(asm.probabilities().sum(axis=0) - 1).max()
            verdicts.add((got.passed, tuple(f.split()[0] for f in got.failures())))
        assert len(verdicts) >= 5, verdicts

    def test_measures_match_the_multi_pass_formula(self):
        # the one-loop measures against a multi-pass formula, equal as floats
        # (a NaN equals a NaN) on realizations, general assemblages, 3-outcome
        # and 3-setting ones, and entries near 1e308 whose sums overflow to
        # inf and inf - inf to NaN. Rows of finite entries are finite, so the
        # least eigenvalue and the normalization can overflow but not be NaN
        rng = np.random.default_rng(35)
        cases = [realize(random_realization(rng, **kind)) for kind in _REALIZATIONS for _ in range(40)]
        cases += [general_assemblage(rng) for _ in range(30)]
        for shape in [(3, 2, 2, 2), (2, 3, 2, 2), (3, 3, 2, 2)] * 20:
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            cases.append(Assemblage(g @ g.conj().swapaxes(-1, -2) / (4 * shape[0] * shape[1])))
        for n in range(300):
            parts = rng.normal(size=(2 + n % 2, 2 + n // 2 % 2, 2, 2, 2))
            huge = rng.random(parts.shape) < 0.2
            sizes = rng.choice([1e308, 1.5e308, np.finfo(float).max], size=huge.sum())
            parts[huge] = rng.choice([-1, 1], size=huge.sum()) * sizes
            cases.append(Assemblage(parts[..., 0] + 1j * parts[..., 1]))
        opposite = np.zeros((2, 2, 2, 2), dtype=complex)  # Bob's marginal traces inf + -inf
        opposite[:, 0] = np.diag([1.5e308, -1.5e308])
        cases.append(Assemblage(opposite))
        kinds = set()
        for asm in cases:
            want, got = _multi_pass_measures(asm), asm._measures
            assert all(a == b or math.isnan(a) and math.isnan(b) for a, b in zip(got, want)), (got, want)
            kinds.update((i, "nan" if math.isnan(v) else "inf" if math.isinf(v) else "") for i, v in enumerate(got))
        assert kinds >= {(0, "inf"), (1, "inf"), (2, "inf"), (2, "nan"), (3, "inf")}, kinds
        assert not kinds & {(1, "nan"), (3, "nan")}, kinds

    def test_overflow_fails_with_nan(self):
        # finite entries whose marginal trace, summed over a, overflows: inf
        # - inf in the no-signalling deviation is NaN, which fails, as
        # numpy's max gives it
        elements = np.zeros((2, 2, 2, 2), dtype=complex)
        elements[:, 0, 0, 0] = elements[:, 0, 1, 1] = 1.5e308
        report = validate(Assemblage(elements))
        assert math.isnan(report.no_signaling_deviation)
        assert report.normalization_deviation == math.inf
        assert not report.passed

    def test_max_marginal_deviation_is_the_trace_formula(self, rng):
        for _ in range(50):
            asm = realize(random_realization(rng, projective=False))
            want = np.abs(np.trace(asm.elements, axis1=2, axis2=3).real - 0.5).max()
            assert asm.max_marginal_deviation() == want

    def test_names_hermiticity_failure(self):
        report = validate(_skewed_reference(), 1e-9)
        assert not report.passed and not report.hermitian
        assert report.failures() == ["Hermiticity violated: a sigma_(a|x) differs from its adjoint by more than 1e-09"]

    @pytest.mark.parametrize("least", [-1e-11, -1e-9])
    def test_measures_do_not_depend_on_tol(self, least):
        # validate keeps its measures on the assemblage; each call compares
        # them with its own tol, so reports at 1e-13, VALIDITY_TOL and 1e-6,
        # in either order, are those of a fresh instance. Off Hermitian by
        # 1e-11, the assemblage fails at 1e-13 on Hermiticity alone; with a
        # least eigenvalue of -1e-9 it fails at 1e-10 on positivity
        elements = _near_boundary(least)
        tols = (1e-13, 1e-10, 1e-6)
        fresh = {tol: repr(validate(Assemblage(elements), tol)) for tol in tols}
        for order in (tols, tols[::-1]):
            asm = Assemblage(elements)
            assert {tol: repr(validate(asm, tol)) for tol in order} == fresh
            assert asm._measures[:2] == pytest.approx((1e-11, least), rel=1e-3)
        strict, default, loose = (validate(Assemblage(elements), tol) for tol in tols)
        assert not strict.hermitian and math.isnan(strict.psd_margin)
        assert [f.split()[0] for f in strict.failures()] == ["Hermiticity"]
        assert default.hermitian and default.passed == (least > -1e-10)
        assert loose.passed and loose.psd_margin == pytest.approx(least, rel=1e-3)

    def test_loose_validate_leaves_certification_strict(self):
        # a passing validate at 1e-6 does not make the assemblage valid at
        # VALIDITY_TOL for the certificate that checks it afterwards
        asm = Assemblage(_near_boundary(-1e-9))
        assert validate(asm, 1e-6).passed
        with pytest.raises(ValidationError, match=r"^positivity violated: min eigenvalue -1\.000e-09$"):
            certified_lower_bound(asm, 0.0)
        assert validate(asm, 1e-6).passed


_REALIZATIONS = (dict(), dict(projective=False), dict(uniform_marginals=True))


def _multi_pass_measures(asm: Assemblage) -> tuple:
    """``Assemblage._measures`` as a pass over the Pauli rows of
    ``asm.elements`` (``pauli_reference``) for each measure, written out here
    so that it stays a reference independent of ``matkernel``: the entries
    of M - M^dagger = 2i (alpha_i I + x_i X + y_i Y + z_i Z), with the
    Hermitian components' x - x making a non-finite one NaN, alpha - |(x, y,
    z)|, and each Bob's marginal less the first, entry by entry."""
    rows, settings, hypot = pauli_reference(asm.elements), asm.settings, math.hypot
    marginals = rows[:settings]
    for start in range(settings, len(rows), settings):
        marginals = [tuple(map(add, m, row)) for m, row in zip(marginals, rows[start : start + settings])]

    def entries(alpha, x, y, z, alpha_i, x_i, y_i, z_i):  # |a|, |b|, |c| and |d|
        return (hypot(alpha + z, alpha_i + z_i), hypot(x + y_i, x_i - y), hypot(x - y_i, x_i + y),
                hypot(alpha - z, alpha_i - z_i))

    return (
        _largest([
            gap
            for alpha, x, y, z, alpha_i, x_i, y_i, z_i in rows
            for gap in entries(alpha - alpha, x - x, y - y, z - z, 2 * alpha_i, 2 * x_i, 2 * y_i, 2 * z_i)
        ]),
        _smallest([alpha - hypot(z, x, y) for alpha, x, y, z, *_ in rows]),
        _largest([gap for m in marginals for gap in entries(*map(sub, m, marginals[0]))]),
        _largest([abs(2 * m[0] - 1) for m in marginals]),
    )


def _near_boundary(least: float) -> np.ndarray:
    """sigma_{a|0} = (I +- v Z)/4 with least eigenvalue (1 - v)/4 = least and
    sigma_{a|1} = (I +- X/2)/4, each sigma_{a|1} off Hermitian by 1e-11 in
    its upper corner (opposite signs, so Bob's marginals stay I/2): every
    p(a|x) is 1/2 and the CHSH maximum is about 2.24."""
    v = 1 - 4 * least
    elements = np.array([[(I2 + s * v * PAULI_Z) / 4, (I2 + s * PAULI_X / 2) / 4] for s in (1, -1)])
    elements[0, 1, 0, 1] += 1e-11
    elements[1, 1, 0, 1] -= 1e-11
    return elements


def _skewed_reference() -> Assemblage:
    """chsh_reference() with +-[[0, 0.2], [-0.2, 0]] on sigma_{0|0} and
    sigma_{1|0}: the Hermitian parts, traces and Bob's marginals are the
    reference's, but two elements are not Hermitian."""
    skew = np.array([[0, 0.2], [-0.2, 0]])
    elements = chsh_reference().elements.copy()
    elements[0, 0] += skew
    elements[1, 0] -= skew
    return Assemblage(elements)


def _refusal(call):
    """The ValidationError message of ``call()``, or None if it is accepted."""
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


def _skewed_state():
    state = phi_plus()
    state[0, 3] += 0.3  # the |00><11| corner, anti-Hermitian
    state[3, 0] -= 0.3
    return state


def _skewed_povms():
    skew = np.array([[0, 0.4], [-0.4, 0]])
    return [[I2 / 2 + skew, I2 / 2 - skew], zx_povms()[1]]


def _skewed_strategy():
    s = appendix_b_strategy()
    hidden = s.hidden_states + [[[0, 0.1], [-0.1, 0]], np.zeros((2, 2))]
    return ClassicalStrategy(s.weights, s.responses, hidden)


def _cli_validate(tmp_path, capsys):
    path = tmp_path / "skewed.json"
    path.write_text(_skewed_reference().to_json())
    capsys.readouterr()
    code = main(["validate", "--assemblage", str(path)])
    out, err = capsys.readouterr()
    return err if code == 1 and not out else None


NON_HERMITIAN = {
    "state_fidelity": lambda *_: _refusal(lambda: state_fidelity(np.array([[0.5, 0.5], [-0.5, 0.5]]), I2 / 2)),
    "realize-state": lambda *_: _refusal(lambda: realize(QuantumRealization(_skewed_state(), zx_povms()))),
    "realize-povm": lambda *_: _refusal(lambda: realize(QuantumRealization(phi_plus(), _skewed_povms()))),
    "from_classical": lambda *_: _refusal(lambda: from_classical(_skewed_strategy())),
    "validate": lambda *_: "\n".join(validate(_skewed_reference()).failures()) or None,
    "cli-validate": _cli_validate,
}


@pytest.mark.parametrize("case", NON_HERMITIAN)
def test_non_hermitian_input_fails_closed(case, tmp_path, capsys):
    # each input's Hermitian part is valid, so only the Hermiticity check
    # can refuse it
    refusal = NON_HERMITIAN[case](tmp_path, capsys)
    assert refusal is not None and "Hermiti" in refusal, refusal


class TestAssemblageOps:
    def test_probabilities_are_indexed_a_x(self):
        p = np.array([[0.1, 0.2], [0.3, 0.5], [0.6, 0.3]])
        elements = p[..., None, None] * np.array([[0.75, 0.1j], [-0.1j, 0.25]])
        np.testing.assert_allclose(Assemblage(elements).probabilities(), p, rtol=0, atol=1e-16)

    def test_mix_interpolates_probabilities(self):
        ref = chsh_reference()
        flipped = Assemblage(ref.elements[::-1])  # relabel a -> 1 - a
        mixed = ref.mix(flipped, 0.25)
        np.testing.assert_allclose(
            mixed.elements[0, 0],
            0.25 * ref.elements[0, 0] + 0.75 * ref.elements[1, 0],
            atol=1e-14,
        )

    @pytest.mark.parametrize("weight, valid", [(0.0, True), (1.0, True), (-1e-12, False), (1 + 1e-12, False), (math.nan, False)])
    def test_mix_weight_must_be_in_unit_interval(self, weight, valid):
        # a weight outside [0, 1] is an affine, not a convex, combination:
        # at 2.0 this pair gives a sigma_(a|x) with eigenvalue -1.18e-1
        ref, classical = chsh_reference(), from_classical(appendix_b_strategy())
        if valid:
            mixed = ref.mix(classical, weight)
            assert validate(mixed, 1e-9).passed
            np.testing.assert_array_equal(mixed.elements, (ref if weight == 1 else classical).elements)
        else:
            with pytest.raises(ValidationError, match=r"^mixture weight .* outside \[0, 1\]$"):
                ref.mix(classical, weight)

    def test_mix_rejects_other_shape(self):
        three_settings = Assemblage(np.broadcast_to(I2 / 6, (2, 3, 2, 2)))
        with pytest.raises(ValidationError, match="cannot mix assemblages of different shape"):
            chsh_reference().mix(three_settings, 0.5)

    def test_json_round_trip(self, rng):
        asm = realize(random_realization(rng))
        back = Assemblage.from_json(asm.to_json())
        assert (back.outcomes, back.settings) == (2, 2)
        np.testing.assert_allclose(back.elements, asm.elements, atol=1e-15)


def _reference_payload() -> dict:
    return json.loads(chsh_reference().to_json())


def _edit(change):
    payload = _reference_payload()
    change(payload)
    return json.dumps(payload)


class TestFromJsonFailsClosed:
    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '"assemblage"',
            "{}",
            _edit(lambda p: p.pop("elements")),
            _edit(lambda p: p.update(outcomes="2")),
            _edit(lambda p: p.update(settings=True)),
            _edit(lambda p: p.update(outcomes=0)),
            _edit(lambda p: p.update(elements={})),
            _edit(lambda p: p["elements"].__setitem__(0, [])),
            _edit(lambda p: p["elements"][0].pop("re")),
            _edit(lambda p: p["elements"][0].update(a=0.0)),
            _edit(lambda p: p["elements"][0].update(x=2)),
            _edit(lambda p: p["elements"][0].update(re=[[0.5, 0.0]])),
            _edit(lambda p: p["elements"][0].update(im=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
            _edit(lambda p: p["elements"][0].update(re=[[0.5, "0"], [0.0, 0.0]])),
            _edit(lambda p: p["elements"][0].update(re=[[0.5, None], [0.0, 0.0]])),
            _edit(lambda p: p["elements"][0].update(re=[[math.nan, 0.0], [0.0, 0.0]])),
            _edit(lambda p: p["elements"][0].update(im=[[0.0, math.inf], [0.0, 0.0]])),
            _edit(lambda p: p["elements"][0].update(re=[[10**400, 0.0], [0.0, 0.0]])),
            _edit(lambda p: p["elements"].pop()),  # incomplete (a, x) grid
            _edit(lambda p: p["elements"][1].update(a=0, x=0)),  # duplicate (a, x)
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ValidationError):
            Assemblage.from_json(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            (_edit(lambda p: p["elements"][0]["re"][0].__setitem__(1, True)), "re"),
            (_edit(lambda p: p["elements"][3]["im"][1].__setitem__(1, True)), "im"),
            (_edit(lambda p: p["elements"][1]["im"][0].__setitem__(0, 1.5e308)), "im"),
            (_edit(lambda p: p["elements"][2]["re"][1].__setitem__(0, -1.5e308)), "re"),
            (_edit(lambda p: p["elements"][2]["re"][1].__setitem__(0, -(10**400))), "re"),
            (_edit(lambda p: p["elements"][3]["im"][0].__setitem__(1, 10**400)), "im"),
            (_edit(lambda p: p["elements"][1]["re"][1].__setitem__(1, 10**308)), "re"),  # rounds to 1e308
            (_edit(lambda p: p["elements"][1].update(im=[[0.0, 0.0]] * 3)), "im"),
            (_edit(lambda p: p["elements"][0].update(re=[[0.5, 0.0]])), "re"),
            (_edit(lambda p: p["elements"][2].update(re=[[0.5, 0.0], [0.0]])), "re"),
            (_edit(lambda p: p["elements"][2].update(im=[[0.0, 0.0], "row"])), "im"),
            (_edit(lambda p: p["elements"][1]["re"][0].__setitem__(1, "0")), "re"),
            (_edit(lambda p: p["elements"][3]["im"][0].__setitem__(0, None)), "im"),
            (_edit(lambda p: p["elements"][0]["re"][1].__setitem__(1, math.nan)), "re"),
            (_edit(lambda p: p["elements"][3]["im"][1].__setitem__(0, -math.inf)), "im"),
            (_edit(lambda p: p["elements"][3]["im"][1].__setitem__(0, [0.0])), "im"),
        ],
    )
    def test_bad_matrix_names_its_key(self, text, key):
        with pytest.raises(ValidationError, match=f"^'{key}' must be a 2x2 list of finite numbers$"):
            Assemblage.from_json(text)

    def test_json_matrix_names_its_key_and_size(self):
        zeros = [[0.0] * 4] * 4
        assert json_matrix({"re": zeros, "im": [[0, 1, 0, 0]] * 4}, 4)[0, 1] == 1j
        for entry, key in [({"re": zeros, "im": zeros[:3]}, "im"), ({"re": [[True] * 4] * 4, "im": zeros}, "re")]:
            with pytest.raises(ValidationError, match=f"^'{key}' must be a 4x4 list of finite numbers$"):
                json_matrix(entry, 4)

    def test_integer_entries_accepted(self):
        payload = _reference_payload()
        payload["elements"][0]["im"] = [[0, 0], [0, 0]]
        asm = Assemblage.from_json(json.dumps(payload))
        np.testing.assert_allclose(asm.elements[0, 0], chsh_reference().elements[0, 0])

    def test_matches_elementwise_conversion_on_random_documents(self):
        # each matrix lands where the JSON puts it, in any entry order and
        # with int entries mixed in, holding the document's floats bit for bit
        rng = np.random.default_rng(20240817)
        for n in range(240):
            asm = realize(random_realization(rng, **_REALIZATIONS[n % 3]))
            entries = [
                {"a": a, "x": x, "re": asm.elements[a, x].real.tolist(), "im": asm.elements[a, x].imag.tolist()}
                for a in range(2)
                for x in range(2)
            ]
            if n % 4 == 0:  # some entries integers, 0 included
                for entry in entries:
                    for key, i, j in zip(rng.choice(["re", "im"], 3), rng.integers(0, 2, 3), rng.integers(0, 2, 3)):
                        entry[key][i][j] = int(rng.integers(-3, 4))
            rng.shuffle(entries)
            parsed = Assemblage.from_json(json.dumps({"outcomes": 2, "settings": 2, "elements": entries}))
            expected = np.empty((2, 2, 2, 2), dtype=complex)
            for entry in entries:
                expected[entry["a"], entry["x"]].real = entry["re"]
                expected[entry["a"], entry["x"]].imag = entry["im"]
            assert parsed.elements.tobytes() == expected.tobytes()
            if n % 4:
                assert parsed.elements.tobytes() == asm.elements.tobytes()

    def test_signed_zeros_are_kept(self):
        # a parsed element holds the document's -0.0 in both parts, so
        # to_json then from_json gives back the elements' bytes
        elements = chsh_reference().elements.copy()
        elements[0, 0, 0, 1] = complex(-0.0, -0.0)
        elements[1, 1, 1, 1] = complex(0.25, -0.0)
        elements[1, 0, 0, 0] = complex(-0.0, 0.0)
        asm = Assemblage(elements)
        back = Assemblage.from_json(asm.to_json())
        assert back.elements.tobytes() == asm.elements.tobytes()
        parts = back.elements.view(float)
        assert np.count_nonzero(np.signbit(parts) & (parts == 0)) == 4
        text = _edit(lambda p: p["elements"][3]["im"][0].__setitem__(1, -0.0))  # (a, x) = (1, 1)
        assert math.copysign(1.0, Assemblage.from_json(text).elements[1, 1, 0, 1].imag) == -1.0

    @pytest.mark.parametrize(
        "edits, key",
        [
            ([(0, "re", 0, 0, math.nan), (1, "im", 0, 0, "0")], "re"),
            ([(0, "im", 1, 1, 10**400), (2, "re", 0, 0, True)], "im"),
            ([(1, "re", 1, 0, None), (1, "im", 0, 0, math.inf)], "re"),
        ],
    )
    def test_names_the_first_bad_value_in_document_order(self, edits, key):
        # the first bad value of the document names its key, whatever the
        # kind of bad value that comes after it
        payload = _reference_payload()
        for entry, name, i, j, value in edits:
            payload["elements"][entry][name][i][j] = value
        with pytest.raises(ValidationError, match=f"^'{key}' must be a 2x2 list of finite numbers$"):
            Assemblage.from_json(json.dumps(payload))


class TestLayout:
    def test_json_order_does_not_matter(self, rng):
        # three settings, two outcomes, every element distinct: an a/x
        # transpose cannot go unnoticed
        expected = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        entries = [
            {"a": a, "x": x, "re": expected[a, x].real.tolist(), "im": expected[a, x].imag.tolist()}
            for x in range(3)
            for a in range(2)
        ]
        rng.shuffle(entries)
        text = json.dumps({"outcomes": 2, "settings": 3, "elements": entries})
        asm = Assemblage.from_json(text)
        assert (asm.outcomes, asm.settings) == (2, 3)
        np.testing.assert_array_equal(asm.elements, expected)
        order = [(e["a"], e["x"]) for e in json.loads(asm.to_json())["elements"]]
        assert order == [(a, x) for a in range(2) for x in range(3)]

    def test_reference_json(self):
        assert chsh_reference().to_json() == REFERENCE_JSON

    @pytest.mark.parametrize(
        "elements",
        [
            np.zeros((2, 2, 2)),  # no outcome or no setting axis
            np.zeros((1, 2, 2, 2, 2)),  # a batch axis
            np.zeros((2, 2, 3, 3)),  # qutrit elements
            np.zeros((0, 2, 2, 2)),  # no outcomes
        ],
    )
    def test_constructor_rejects_bad_shape(self, elements):
        with pytest.raises(ValidationError):
            Assemblage(elements)

    def test_elements_read_only(self):
        source = chsh_reference().elements.copy()
        asm = Assemblage(source)
        with pytest.raises(ValueError):
            asm.elements[0, 0] = 0
        source[0, 0] = 0  # the assemblage holds its own copy
        np.testing.assert_array_equal(asm.elements, chsh_reference().elements)

    def test_kept_rows_are_the_elements_and_read_only(self, rng):
        # the rows validate, the CHSH reader and the witness read are the
        # elements' Pauli rows, kept as tuples that no holder can write
        asm = realize(random_realization(rng))
        assert asm._pauli == pauli_reference(asm.elements)
        with pytest.raises(TypeError):
            asm._pauli[0][0] = 0.0
        with pytest.raises(AttributeError):
            asm._pauli[0].alpha = 0.0

    @pytest.mark.parametrize("kind", ["array", "read-only array", "read-only view", "real array", "list"])
    def test_callers_input_is_copied(self, kind):
        # whatever the caller can still write is copied: mutating it after
        # construction leaves the assemblage unchanged
        reference = chsh_reference().elements
        if kind == "array":
            source = reference.copy()
            given = source
        elif kind == "read-only array":  # it owns its data: writes can be turned back on
            source = reference.copy()
            source.flags.writeable = False
            given = source
        elif kind == "read-only view":  # its base stays writable
            source = reference.copy()
            given = source[:]
            given.flags.writeable = False
        elif kind == "real array":
            source = reference.real.copy()
            given = source
        else:
            source = reference.tolist()
            given = source
        asm = Assemblage(given)
        want = asm.elements.copy()
        if kind == "list":
            source[0][0][0][0] = 7.0
        else:
            source.flags.writeable = True
            source[0, 0, 0, 0] = 7.0
        np.testing.assert_array_equal(asm.elements, want)
        assert not asm.elements.flags.writeable

    def test_holder_cannot_turn_writes_on(self):
        # the elements view an immutable buffer: numpy refuses writes on the
        # view and on its base, so what was certified stays what was checked
        asm = chsh_reference()
        want = asm.elements.tobytes()
        for array in (asm.elements, asm.elements.base):
            with pytest.raises(ValueError):
                array.flags.writeable = True
            with pytest.raises(ValueError):
                array.reshape(-1)[0] *= -1
        assert asm.elements.tobytes() == want
        assert validate(asm).passed

    def test_read_only_array_is_checked(self):
        # a read-only input is scanned for non-finite entries like any other
        frozen = chsh_reference().elements.copy()
        frozen[1, 1, 0, 0] = math.nan
        frozen.flags.writeable = False
        with pytest.raises(ValidationError, match="non-finite"):
            Assemblage(frozen)


REFERENCE_JSON = """{
  "outcomes": 2,
  "settings": 2,
  "elements": [
    {
      "a": 0,
      "x": 0,
      "re": [
        [
          0.5,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      "im": [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ]
    },
    {
      "a": 0,
      "x": 1,
      "re": [
        [
          0.25000000000000006,
          0.25000000000000006
        ],
        [
          0.25000000000000006,
          0.25000000000000006
        ]
      ],
      "im": [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ]
    },
    {
      "a": 1,
      "x": 0,
      "re": [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.5
        ]
      ],
      "im": [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ]
    },
    {
      "a": 1,
      "x": 1,
      "re": [
        [
          0.25000000000000006,
          -0.25000000000000006
        ],
        [
          -0.25000000000000006,
          0.25000000000000006
        ]
      ],
      "im": [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ]
    }
  ]
}"""
