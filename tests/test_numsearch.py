import dataclasses
import json
import math
import re

import numpy as np
import pytest

from steerbound import fidelity
from steerbound.assemblage import (
    Assemblage,
    chsh_reference,
    from_classical,
    random_realization,
    realize,
    validate,
)
from steerbound.fidelity import (
    appendix_b_strategy,
    assemblage_fidelity,
    extractabilities,
    extractability,
    fidelity_operator,
)
from steerbound.matkernel import I2, PAULI_X, PAULI_Y, PAULI_Z, ValidationError
from steerbound.numsearch import (
    _COLUMNS,
    SearchConfig,
    _witness_candidate,
    min_extractability_at_beta,
    sandwich_sweep,
)
from steerbound.selftest import (
    analytic_bound,
    dephasing_channel,
    extractability_with_channel,
    upper_bound,
)
from steerbound.steering import BETA_CLASSICAL, BETA_QUANTUM, max_violation_over_theta

SQRT2 = math.sqrt(2)


def xi_star(beta):
    """The closed-form minimum extractability at CHSH value beta."""
    return 0.75 + math.sqrt(beta * beta - 4) / 8


# one eigendecomposition to start, then per stage at most one per Newton
# step and one for the rescale to an exact channel
EIGH_CAP = 1 + len(fidelity._BARRIER_WEIGHTS) * (fidelity._NEWTON_STEPS + 1)


def count_eigh(monkeypatch):
    """Patch np.linalg.eigh to count its calls; returns the call list."""
    calls = []
    eigh = np.linalg.eigh

    def counting(m):
        calls.append(1)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def general_assemblage(rng):
    """sigma_{0|x} = sqrt(rho) E_x sqrt(rho) for random effects 0 <= E_x <= I:
    Bob's marginal rho is not I/2 and p(a|x) is not 1/2, which moves the
    dual optimum of the extractability solve away from H = 0."""
    r = rng.normal(size=3)
    r *= rng.uniform(0, 0.9) / np.linalg.norm(r)
    vals, vecs = np.linalg.eigh((I2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    elements = np.zeros((2, 2, 2, 2), dtype=complex)
    for x in range(2):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        effect = (u * rng.uniform(0, 1, size=2)) @ u.conj().T
        elements[0, x] = root @ effect @ root
        elements[1, x] = root @ (I2 - effect) @ root
    return Assemblage(elements)


class TestConfig:
    def test_defaults_valid(self):
        SearchConfig().check()

    def test_json_round_trip(self):
        cfg = SearchConfig(beta_targets=(2.2, 2.5), rng_seed=99, tolerance=1e-6)
        back = SearchConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_rejects_bad_family(self):
        # the channel-family knobs and the restart count are retired; naming them is an error
        retired = (("channel_family", "general-two-kraus"), ("seesaw_rounds", 2), ("samples", 20))
        for key, value in retired:
            with pytest.raises(ValidationError, match=key):
                SearchConfig.from_json(json.dumps({key: value}))

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '"samples"',
            '{"beta_targets": []}',
            '{"beta_targets": 2.5}',
            '{"beta_targets": ["2.5"]}',
            '{"beta_targets": [NaN]}',
            '{"beta_targets": [Infinity]}',
            '{"beta_targets": [2.0]}',
            '{"rng_seed": -1}',
            '{"rng_seed": 1.5}',
            '{"rng_seed": false}',
            '{"tolerance": NaN}',
            '{"tolerance": Infinity}',
            '{"tolerance": 0}',
            '{"tolerance": "1e-4"}',
            '{"channel_famly": "dephasing-only"}',
        ],
    )
    def test_from_json_fails_closed(self, text):
        with pytest.raises(ValidationError):
            SearchConfig.from_json(text)

    def test_from_json_defaults(self):
        assert SearchConfig.from_json("{}") == SearchConfig()

    def test_rejects_bad_targets(self):
        with pytest.raises(ValidationError):
            SearchConfig(beta_targets=(1.5,)).check()
        with pytest.raises(ValidationError):
            SearchConfig(beta_targets=(3.0,)).check()

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValidationError):
            SearchConfig(tolerance=0.0).check()
        # below the gap's rounding allowance no record could pass
        with pytest.raises(ValidationError, match="1e-14"):
            SearchConfig(tolerance=fidelity._ROUNDING / 2).check()
        SearchConfig(tolerance=fidelity._ROUNDING).check()


class TestSampling:
    def test_samples_are_valid(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng))
            assert validate(asm).passed

    def test_uniform_marginal_mode(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng, uniform_marginals=True))
            assert asm.max_marginal_deviation() < 1e-10


class TestBestChannel:
    """The exact extractability solve: value, optimal channel and gap."""

    @staticmethod
    def _check_certificate(value, channel, gap):
        assert 0 < gap <= 1e-9
        trace_out = channel.choi.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.max(np.abs(trace_out - I2)) <= 1e-12
        assert np.linalg.eigvalsh(channel.choi)[0] >= -1e-12
        assert np.isfinite(value)

    def test_reference_identity_optimal(self):
        value, channel, gap = extractability(chsh_reference())
        self._check_certificate(value, channel, gap)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_conjugated_reference_recovered(self):
        # rotating every element by X is undone by a unitary channel
        ref = chsh_reference()
        value, channel, gap = extractability(Assemblage(PAULI_X @ ref.elements @ PAULI_X))
        self._check_certificate(value, channel, gap)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_appendix_b_classical_value(self):
        value, channel, gap = extractability(from_classical(appendix_b_strategy()))
        self._check_certificate(value, channel, gap)
        assert value == pytest.approx((2 + SQRT2) / 4, abs=1e-9)

    def test_maximally_mixed_elements_give_half(self):
        value, channel, gap = extractability(
            Assemblage(np.broadcast_to(I2 / 4, (2, 2, 2, 2)))
        )
        self._check_certificate(value, channel, gap)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_zero_probability_elements_finite(self):
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        zero = np.zeros((2, 2), dtype=complex)
        asm = Assemblage([[rho, rho / 2], [zero, rho / 2]])
        value, channel, gap = extractability(asm)
        self._check_certificate(value, channel, gap)
        assert 0 < value <= 1 + 1e-9

    def test_rejects_non_finite(self):
        bad = chsh_reference().elements.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            extractability(Assemblage(bad))

    @pytest.mark.parametrize("uniform", [True, False])
    def test_seeded_gap_and_residual(self, rng, uniform):
        for _ in range(30):
            asm = realize(random_realization(rng, uniform_marginals=uniform))
            value, channel, gap = extractability(asm)
            self._check_certificate(value, channel, gap)
            assert gap <= 1e-12  # the last weight 1e13 leaves about 3e-13

    def test_general_assemblage_gap(self, rng):
        for _ in range(30):
            asm = general_assemblage(rng)
            assert validate(asm).passed
            self._check_certificate(*extractability(asm))

    def test_bounded_eigendecompositions(self, monkeypatch):
        asm = realize(random_realization(np.random.default_rng(5)))
        calls = count_eigh(monkeypatch)
        extractability(asm)
        assert 0 < len(calls) <= EIGH_CAP

    def test_batched_eigendecompositions(self, monkeypatch):
        # the stage schedule is shared, so a batch costs no more calls than one item
        rng = np.random.default_rng(5)
        batch = [realize(random_realization(rng)) for _ in range(20)]
        calls = count_eigh(monkeypatch)
        extractabilities(batch)
        assert 0 < len(calls) <= EIGH_CAP

    def test_batch_matches_single_solves(self, rng):
        batch = [realize(random_realization(rng, uniform_marginals=True)) for _ in range(8)]
        batch += [realize(random_realization(rng)) for _ in range(8)]
        batch += [general_assemblage(rng) for _ in range(8)]
        batch += [chsh_reference(), from_classical(appendix_b_strategy())]
        results = extractabilities(batch)
        assert len(results) == len(batch)
        for asm, (value, channel, gap) in zip(batch, results):
            self._check_certificate(value, channel, gap)
            assert value == pytest.approx(extractability(asm)[0], abs=1e-12)

    def test_batch_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            extractabilities([])
        # qutrit elements are refused by the Assemblage constructor itself
        three_settings = Assemblage(np.broadcast_to(I2 / 6, (2, 3, 2, 2)))
        with pytest.raises(ValidationError):
            extractabilities([chsh_reference(), three_settings])

    def test_fidelity_matches_direct_evaluation(self, rng):
        asm = realize(random_realization(rng, uniform_marginals=True))
        value, channel, _ = extractability(asm)
        direct = assemblage_fidelity(chsh_reference(), channel.apply_elementwise(asm))
        assert value == pytest.approx(direct, abs=1e-12)

    def test_fidelity_after_kraus_agrees(self, rng):
        # the Choi form tr(J W) equals the fidelity of the mapped assemblage
        for _ in range(10):
            asm = realize(random_realization(rng))
            channels = [dephasing_channel(0.4, 0.6), dephasing_channel(1.2, -0.3)]
            channels.append(extractability(asm)[1])
            for ch in channels:
                direct = assemblage_fidelity(chsh_reference(), ch.apply_elementwise(asm))
                assert extractability_with_channel(asm, ch) == pytest.approx(direct, abs=1e-12)

    def test_witness_never_beats_exact(self, rng):
        for _ in range(20):
            asm = realize(random_realization(rng))
            value, _, gap = extractability(asm)
            for theta, c in ((0.3, 0.5), (1.0, -0.2), (0.7, 1.0)):
                witness = extractability_with_channel(asm, dephasing_channel(theta, c))
                assert witness <= value + gap

    @pytest.mark.parametrize("beta", [2.05, 2.1, 2.34, 2.5, 2.7, BETA_QUANTUM])
    def test_mixture_below_eq8(self, beta):
        # extractability is convex on uniform-marginal assemblages, so the
        # reference/classical mixture sits below the chord between (2+sqrt 2)/4 and 1
        q = (beta - BETA_CLASSICAL) / (BETA_QUANTUM - BETA_CLASSICAL)
        asm = chsh_reference().mix(from_classical(appendix_b_strategy()), q)
        value, _, gap = extractability(asm)
        assert gap <= 1e-9
        assert value <= upper_bound(beta) + 1e-9


class TestWitness:
    """The sharp/unsharp witness against the closed form xi*(beta)."""

    BETAS = [float(b) for b in np.linspace(2, BETA_QUANTUM, 46)[1:]]

    def test_extractability_is_closed_form(self):
        results = extractabilities(_witness_candidate(b)[0] for b in self.BETAS)
        for beta, (value, _, gap) in zip(self.BETAS, results):
            assert gap <= 1e-9
            assert abs(value - xi_star(beta)) <= gap + 1e-12

    def test_identity_pair_matches_solve(self):
        # on the whole grid the sandwich's records agree with the barrier
        # solve, and their own gap is at the rounding floor
        records = sandwich_sweep(SearchConfig(beta_targets=tuple(self.BETAS))).records
        results = extractabilities(_witness_candidate(b)[0] for b in self.BETAS)
        for record, (value, _, gap) in zip(records, results):
            assert abs(record.numeric_min - value) <= gap + 1e-12
            assert record.gap <= 1e-13

    def test_theta_star_maximises_chsh(self):
        for beta in self.BETAS:
            asm, theta = _witness_candidate(beta)
            assert validate(asm).passed
            assert asm.max_marginal_deviation() <= 1e-15
            theta_max, beta_max = max_violation_over_theta(asm)
            assert theta_max == pytest.approx(theta, abs=1e-12)
            assert beta_max == pytest.approx(beta, abs=1e-12)

    def test_clamped_at_maximal_violation(self):
        # beta^2/4 - 1 rounds above 1 at 2 sqrt 2; the clamp keeps m = 1
        asm, theta = _witness_candidate(BETA_QUANTUM)
        assert theta == math.pi / 4
        np.testing.assert_allclose(asm.elements, chsh_reference().elements, atol=1e-15)


class TestTwoBlockDevice:
    """A device-independent (DI) device may be a direct sum of qubit blocks,
    over which CHSH value and extractability are both additive. Two blocks
    reach the analytic line, so it is the DI minimum; xi*(beta), the
    sandwich's numeric_min, is only the one-block minimum."""

    def test_mixtures_lie_on_the_analytic_line(self):
        block1 = Assemblage([[(I2 + sign * PAULI_Z) / 4, I2 / 4] for sign in (1, -1)])
        block2 = chsh_reference()
        assert max_violation_over_theta(block1) == (0.0, 2.0)
        beta2 = max_violation_over_theta(block2)[1]
        assert beta2 == pytest.approx(BETA_QUANTUM, abs=1e-15)
        (xi1, _, gap1), (xi2, _, gap2) = extractabilities([block1, block2])
        assert xi1 <= 0.75 <= xi1 + gap1
        assert xi2 <= 1.0 <= xi2 + gap2
        for q in (0.1, 0.42, 0.7):
            beta = q * 2.0 + (1 - q) * beta2
            xi, gap = q * xi1 + (1 - q) * xi2, q * gap1 + (1 - q) * gap2
            assert xi <= analytic_bound(beta) <= xi + gap, q
            assert xi + gap < xi_star(beta), q


@pytest.fixture(scope="module")
def default_report():
    return sandwich_sweep(SearchConfig())


class TestDefaultSweep:
    """Regression pins for the default config."""

    def test_values(self, default_report):
        records = default_report.records
        for record in records[:4]:
            assert record.winner == "witness"
            assert abs(record.numeric_min - xi_star(record.beta)) <= record.gap + 1e-12
            assert record.numeric_min <= record.eq8_upper - 1e-4
            assert record.witness["theta"] == pytest.approx(math.atan(math.sqrt(record.beta ** 2 / 4 - 1)))
        # at 2 sqrt 2 the witness is the reference itself
        top = records[4]
        assert top.beta == BETA_QUANTUM
        assert top.numeric_min == pytest.approx(1.0, abs=1e-12)
        assert all(r.gap <= 1e-13 and r.residual <= 1e-12 and r.winner == "witness" for r in records)
        assert all(abs(r.numeric_min - xi_star(r.beta)) <= 1e-15 for r in records)
        # the reported channel is exactly the identity's Choi matrix
        identity = np.outer([1, 0, 0, 1], [1, 0, 0, 1])
        assert all(np.array_equal(r.witness["channel"]["re"], identity) for r in records)
        assert all(not np.any(r.witness["channel"]["im"]) for r in records)
        assert default_report.passed

    def test_stacked_solve_matches_single_targets(self, default_report):
        # one stacked solve for all targets gives each target's own record, bit for bit
        singles = tuple(min_extractability_at_beta(beta) for beta in SearchConfig().beta_targets)
        assert default_report.records == singles

    def test_sweep_eigendecompositions(self, monkeypatch):
        # no solve: the identity/H = 0 pair takes one stacked eigenvalue call
        # for all five targets
        def unused(*args):
            raise AssertionError("the sandwich must not run the extractability solve")

        monkeypatch.setattr(fidelity, "extractabilities", unused)
        calls, shapes = count_eigh(monkeypatch), []
        eigvalsh = np.linalg.eigvalsh

        def recording(m):
            shapes.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        sandwich_sweep(SearchConfig())
        assert calls == []
        assert shapes == [(5, 4, 4)]

    def test_witness_solve_eigendecompositions(self, monkeypatch):
        # the general solve on the five default witnesses: stages end at the
        # decrement's rounding floor, 39 stacked calls; a flat 1e-7 exit ran
        # the late stages to the step cap (83 calls)
        witnesses = [_witness_candidate(beta)[0] for beta in SearchConfig().beta_targets]
        calls = count_eigh(monkeypatch)
        extractabilities(witnesses)
        assert len(calls) <= 45

    def test_report_json_matches_round_trip_form(self, default_report):
        # the same bytes as serialising each witness and the config and
        # parsing them back
        def witness(r):
            asm = json.loads(_witness_candidate(r.beta)[0].to_json())
            return {**r.witness, "assemblage": asm}

        old_form = json.dumps(
            {
                "config": json.loads(default_report.config.to_json()),
                "passed": default_report.passed,
                "records": [
                    {**{c: getattr(r, c) for c in _COLUMNS}, "witness": witness(r)}
                    for r in default_report.records
                ],
            },
            indent=2,
        )
        assert default_report.to_json() == old_form

    def test_seed_is_ignored(self, default_report):
        assert sandwich_sweep(SearchConfig(rng_seed=1)).records == default_report.records
        assert sandwich_sweep(SearchConfig(rng_seed=2)).records == default_report.records


class TestSandwich:
    def test_single_target_record(self):
        record = min_extractability_at_beta(2.5)
        assert record.residual <= 1e-12
        assert record.analytic_lower == pytest.approx(analytic_bound(2.5), abs=1e-12)
        assert record.eq8_upper == pytest.approx(upper_bound(2.5), abs=1e-12)
        assert record.passes(1e-12)
        assert 0 < record.gap <= 1e-9
        assert record.winner == "witness"
        assert record.numeric_min == pytest.approx(0.9375, abs=1e-12)
        choi = np.array(record.witness["channel"]["re"]) + 1j * np.array(
            record.witness["channel"]["im"]
        )
        assert choi.shape == (4, 4)
        # the reported witness and channel reproduce numeric_min
        asm = Assemblage.from_json(json.dumps(record.witness["assemblage"]))
        assert np.vdot(choi, fidelity_operator(asm)).real == pytest.approx(record.numeric_min, abs=1e-12)

    def test_gap_fails_closed(self):
        # a value with no error bar does not pass, however close to xi*
        record = min_extractability_at_beta(2.5)
        tolerance = SearchConfig().tolerance
        assert record.passes(tolerance)
        assert not dataclasses.replace(record, gap=1e-3).passes(tolerance)

    def test_max_violation_pins_fidelity_one(self):
        record = min_extractability_at_beta(BETA_QUANTUM)
        assert record.numeric_min == pytest.approx(1.0, abs=1e-12)

    def test_beta_out_of_range(self):
        # the same check and message as SearchConfig.check
        for beta in (1.9, 2.0, 2.9, math.nan, True):
            message = rf"^beta target {re.escape(repr(beta))} outside \(2, 2\*sqrt\(2\)\]$"
            with pytest.raises(ValidationError, match=message):
                min_extractability_at_beta(beta)
            with pytest.raises(ValidationError, match=message):
                SearchConfig(beta_targets=(beta,)).check()

    def test_sweep_reproducible(self):
        cfg = SearchConfig(beta_targets=(2.3, 2.6))
        a = sandwich_sweep(cfg)
        b = sandwich_sweep(cfg)
        assert a.to_json() == b.to_json()
        assert a.passed

    def test_report_serialization(self):
        cfg = SearchConfig(beta_targets=(2.4,))
        report = sandwich_sweep(cfg)
        payload = json.loads(report.to_json())
        assert payload["passed"] == report.passed
        assert set(payload["config"]) == {"beta_targets", "rng_seed", "tolerance"}
        assert len(payload["records"]) == 1
        csv_text = report.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "beta,numeric_min,analytic_lower,eq8_upper,residual,gap,winner"
        assert len(lines) == 2
        record = payload["records"][0]
        assert record["gap"] <= 1e-9
        assert lines[1].split(",")[-1] == record["winner"] == "witness"
        assert set(record) == set(lines[0].split(",")) | {"witness"}
        assert set(record["witness"]) == {"assemblage", "theta", "channel"}
