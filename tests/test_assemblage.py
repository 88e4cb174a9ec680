import json
import math

import numpy as np
import pytest

from steerbound.assemblage import (
    Assemblage,
    ClassicalStrategy,
    QuantumRealization,
    ValidationError,
    chsh_reference,
    from_classical,
    random_realization,
    realize,
    validate,
)
from steerbound.cli import main
from steerbound.fidelity import appendix_b_strategy, state_fidelity
from steerbound.matkernel import (
    I2,
    I4,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    projector,
)

SQRT2 = math.sqrt(2)


def phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / SQRT2
    return np.outer(v, v.conj())


def zx_povms():
    return {
        0: [(I2 + PAULI_Z) / 2, (I2 - PAULI_Z) / 2],
        1: [(I2 + PAULI_X) / 2, (I2 - PAULI_X) / 2],
    }


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

    def test_rejects_bad_povm(self):
        povms = zx_povms()
        povms[0] = [I2, I2]  # does not sum to identity
        with pytest.raises(ValidationError):
            realize(QuantumRealization(phi_plus(), povms))

    def test_rejects_non_psd_state(self):
        state = phi_plus() - 0.2 * I4 / 4
        state = state / np.trace(state).real
        with pytest.raises(ValidationError):
            realize(QuantumRealization(state, zx_povms()))

    def test_nested_list_state(self):
        povms = {0: [np.eye(2)]}
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
                for x, povm in r.alice_povms.items():
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
        with pytest.raises(ValidationError, match=r"for \(a, x\) in \[\(0, 0\), \(0, 1\), \(1, 0\), \(1, 1\)\]$"):
            chsh_reference().mix(chsh_reference(), math.nan)

    def test_names_hermiticity_failure(self):
        report = validate(_skewed_reference(), 1e-9)
        assert not report.passed and not report.hermitian
        assert report.failures() == ["Hermiticity violated: a sigma_(a|x) differs from its adjoint by more than 1e-09"]


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
    return {**zx_povms(), 0: [I2 / 2 + skew, I2 / 2 - skew]}


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
    def test_mix_interpolates_probabilities(self):
        ref = chsh_reference()
        flipped = Assemblage(ref.elements[::-1])  # relabel a -> 1 - a
        mixed = ref.mix(flipped, 0.25)
        np.testing.assert_allclose(
            mixed.elements[0, 0],
            0.25 * ref.elements[0, 0] + 0.75 * ref.elements[1, 0],
            atol=1e-14,
        )

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

    def test_integer_entries_accepted(self):
        payload = _reference_payload()
        payload["elements"][0]["im"] = [[0, 0], [0, 0]]
        asm = Assemblage.from_json(json.dumps(payload))
        np.testing.assert_allclose(asm.elements[0, 0], chsh_reference().elements[0, 0])


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

    def test_reference_json_text(self):
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
