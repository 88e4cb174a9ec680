import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerbound import certificate, fidelity, numsearch
from steerbound.assemblage import (
    PROB_FLOOR,
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
    extractability,
    fidelity_operator,
)
from steerbound.certificate import _ROUNDING, BETA_CLASSICAL, BETA_QUANTUM
from steerbound.matkernel import (
    I2,
    PAULI_BASIS,
    PAULI_X,
    PAULI_Z,
    ValidationError,
)
from steerbound.numsearch import (
    _COLUMNS,
    SandwichRecord,
    SandwichReport,
    SearchConfig,
    _records,
    _witness,
    sandwich_sweep,
)
from steerbound.selftest import (
    analytic_bound,
    dephasing_channel,
    extractability_with_channel,
    upper_bound,
)
from steerbound.steering import chsh_functional, max_violation_over_theta
from devices import general_assemblage

SQRT2 = math.sqrt(2)


def xi_star(beta):
    """The closed-form minimum extractability at CHSH value beta."""
    return 0.75 + math.sqrt(beta * beta - 4) / 8


def single_record(beta):
    """The sandwich record of the one target beta."""
    return sandwich_sweep(SearchConfig(beta_targets=(beta,))).records[0]


def witness_candidate(beta):
    """One target's witness, as an Assemblage read back from the dict
    ``_witness`` builds at m = min(1, sqrt(beta^2/4 - 1)), and its angle
    theta* = atan m."""
    m = min(1.0, math.sqrt(beta * beta / 4 - 1))
    witness = _witness(m / 4, -m / 4, math.atan(m))
    return Assemblage.from_json(json.dumps(witness["assemblage"])), witness["theta"]


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
            pytest.param('{"tolerance": 1%s}' % ("0" * 400), id="tolerance 10**400"),
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

    def test_target_edge(self):
        # 2 sqrt 2 is allowed ENDPOINT_SLACK = 1e-12 of rounding
        SearchConfig(beta_targets=(BETA_QUANTUM + 0.5e-12,)).check()
        with pytest.raises(ValidationError, match="outside"):
            SearchConfig(beta_targets=(BETA_QUANTUM + 2e-12,)).check()

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValidationError):
            SearchConfig(tolerance=0.0).check()
        # below the gap's rounding allowance, 1e-14, no record could pass
        with pytest.raises(ValidationError, match="1e-14"):
            SearchConfig(tolerance=0.5e-14).check()
        SearchConfig(tolerance=1e-14).check()

    def test_tolerance_float_range_edge(self):
        # the largest float is a tolerance, as an int too; an int past it
        # would overflow in SandwichRecord.passes
        SearchConfig(tolerance=sys.float_info.max).check()
        SearchConfig(tolerance=int(sys.float_info.max)).check()
        with pytest.raises(ValidationError, match="tolerance must be finite"):
            SearchConfig(tolerance=int(sys.float_info.max) + 1).check()


class TestSampling:
    def test_samples_are_valid(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng))
            assert validate(asm).passed

    def test_uniform_marginal_mode(self, rng):
        for _ in range(25):
            asm = realize(random_realization(rng, uniform_marginals=True))
            assert asm.max_marginal_deviation() < 1e-10


class TestExtractability:
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

    def test_value_is_the_witness_of_its_channel(self, rng):
        # one spelling of tr(J W): the solve scores its channel exactly as
        # extractability_with_channel does, to the last bit
        for _ in range(30):
            asm = general_assemblage(rng)
            value, channel, _ = extractability(asm)
            assert value == extractability_with_channel(asm, channel)

    def test_bounded_eigendecompositions(self, monkeypatch):
        asm = realize(random_realization(np.random.default_rng(5)))
        calls = count_eigh(monkeypatch)
        extractability(asm)
        assert 0 < len(calls) <= EIGH_CAP

    def test_rejects_three_settings(self):
        # qutrit elements are refused by the Assemblage constructor itself
        three_settings = Assemblage(np.broadcast_to(I2 / 6, (2, 3, 2, 2)))
        with pytest.raises(ValidationError):
            extractability(three_settings)

    def test_fidelity_matches_direct_evaluation(self, rng):
        asm = realize(random_realization(rng, uniform_marginals=True))
        value, channel, _ = extractability(asm)
        direct = assemblage_fidelity(chsh_reference(), Assemblage(channel.apply(asm.elements)))
        assert value == pytest.approx(direct, abs=1e-12)

    def test_choi_form_equals_mapped_fidelity(self, rng):
        # the Choi form tr(J W) equals the fidelity of the mapped assemblage
        for _ in range(10):
            asm = realize(random_realization(rng))
            channels = [dephasing_channel(0.4, 0.6), dephasing_channel(1.2, -0.3)]
            channels.append(extractability(asm)[1])
            for ch in channels:
                direct = assemblage_fidelity(chsh_reference(), Assemblage(ch.apply(asm.elements)))
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
        for beta in self.BETAS:
            value, _, gap = extractability(witness_candidate(beta)[0])
            assert gap <= 1e-9
            assert abs(value - xi_star(beta)) <= gap + 1e-12

    def test_identity_pair_matches_solve(self):
        # on the whole grid the sandwich's records agree with the barrier
        # solve, and their own gap is at the rounding floor
        records = sandwich_sweep(SearchConfig(beta_targets=tuple(self.BETAS))).records
        for record in records:
            value, _, gap = extractability(witness_candidate(record.beta)[0])
            assert abs(record.numeric_min - value) <= gap + 1e-12
            assert record.gap <= 1e-13

    def test_theta_star_maximises_chsh(self):
        for beta in self.BETAS:
            asm, theta = witness_candidate(beta)
            assert validate(asm).passed
            assert asm.max_marginal_deviation() <= 1e-15
            theta_max, beta_max = max_violation_over_theta(asm)
            assert theta_max == pytest.approx(theta, abs=1e-12)
            assert beta_max == pytest.approx(beta, abs=1e-12)

    def test_clamped_at_maximal_violation(self):
        # beta^2/4 - 1 rounds above 1 at 2 sqrt 2; the clamp keeps m = 1
        asm, theta = witness_candidate(BETA_QUANTUM)
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
        (xi1, _, gap1), (xi2, _, gap2) = extractability(block1), extractability(block2)
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

    def test_sharpness_has_one_copy(self, default_report):
        # m = min(1, sqrt(beta^2/4 - 1)) is written once, in
        # certificate._sharpness, which each record's m and xi_star read
        assert all(r.m == certificate._sharpness(r.beta) for r in default_report.records)
        package = Path(numsearch.__file__).parent
        copies = [p.name for p in sorted(package.glob("*.py")) if "beta * beta / 4 - 1" in p.read_text()]
        assert copies == ["certificate.py"]

    def test_stacked_solve_matches_single_targets(self, default_report):
        # one stacked solve for all targets gives each target's own record, bit for bit
        singles = tuple(single_record(beta) for beta in SearchConfig().beta_targets)
        assert default_report.records == singles

    def test_sweep_eigendecompositions(self, monkeypatch):
        # no solve and no eigenvalue call: every column is a closed form
        def unused(*args):
            raise AssertionError("the sandwich must not run the extractability solve or an eigenvalue call")

        for module, name in ((fidelity, "extractability"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, unused)
        assert sandwich_sweep(SearchConfig()).passed

    def test_witness_solve_eigendecompositions(self, monkeypatch):
        # the general solve on each default witness: the first stage ends at
        # NEWTON_FLOOR = 1e-7, the others at the decrement's rounding floor,
        # 36 to 39 calls a solve; a flat 1e-7 exit ran the late stages to
        # the step cap. A floor 1e3 times higher gives 37 and 36 calls for
        # the first two, and one 1e3 times lower 37 for the last three
        calls, counts = count_eigh(monkeypatch), []
        for beta in SearchConfig().beta_targets:
            witness = witness_candidate(beta)[0]
            calls.clear()
            extractability(witness)
            counts.append(len(calls))
        assert counts == [39, 38, 36, 36, 36]

    @pytest.mark.parametrize("kept", [None, 1, 0], ids=["every record", "one record", "no record"])
    @pytest.mark.parametrize(
        "cfg",
        [
            SearchConfig(beta_targets=(2.5,)),
            SearchConfig(beta_targets=(2.1, BETA_QUANTUM)),
            SearchConfig(),
            SearchConfig(beta_targets=(2.05, 2.1, 2.34, 2.5, 2.6, 2.7, BETA_QUANTUM)),
            SearchConfig(beta_targets=(2.34, 2.34, 2.7, 2.34)),
            SearchConfig(tolerance=0.25, rng_seed=7),
            SearchConfig(tolerance=1),
            SearchConfig(rng_seed=10**30),
            SearchConfig(beta_targets=tuple(map(np.float64, (2.2, 2.6, BETA_QUANTUM)))),
            SearchConfig(beta_targets=[2.3, 2.4], tolerance=1, rng_seed=10**30),
        ],
        ids=["1 target", "2 targets", "default", "7 targets", "repeated targets", "tolerance and seed",
             "int tolerance", "30-digit seed", "np.float64 targets", "list targets"],
    )
    def test_report_json_matches_round_trip_form(self, cfg, kept):
        """The compiled pieces and the leaves' texts join to the bytes
        json.dumps writes for the report's dict form, also for a report of
        fewer records than targets. Every record leaf is a finite float (the
        record refuses any other), and every config leaf a checked int or
        float, written as json.dumps writes it: an int tolerance as 1, not
        1.0."""
        report = SandwichReport(cfg, sandwich_sweep(cfg).records[:kept])
        text = report.to_json()
        assert text == json.dumps(json.loads(text), indent=2)
        assert text == json.dumps(report_form(report), indent=2)

    def test_a_compiled_shape_makes_no_dumps(self, monkeypatch):
        # the first report of a shape (number of targets and of records)
        # compiles its pieces; a later report of that shape, whatever its
        # leaves, is written with no json.dumps call at all
        targets = seeded_targets()
        sandwich_sweep(SearchConfig(beta_targets=targets)).to_json()
        report = sandwich_sweep(SearchConfig(beta_targets=targets[::-1], rng_seed=10**30, tolerance=1))
        dumps, calls = json.dumps, []

        def spy(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        text = report.to_json()
        assert calls == []
        monkeypatch.undo()
        assert text == json.dumps(report_form(report), indent=2)

    def test_compiled_record_is_one_record_long(self):
        # a report of 5,001 targets is joined from one record's 12 pieces,
        # not from pieces per target: they and one record's 11 leaves make
        # up exactly that record's text
        report = sandwich_sweep(SearchConfig(beta_targets=seeded_targets(5001)))
        text, record = report.to_json(), report.records[-1]
        one = json.dumps(report_form(SandwichReport(report.config, (record,)))["records"][0], indent=2)
        one = one.replace("\n", "\n    ")
        pieces = numsearch._record_pieces()
        assert numsearch._record_pieces.cache_info().currsize == 1 and len(pieces) == 12
        assert sum(map(len, pieces)) + sum(map(len, numsearch._record_leaves(record))) == len(one)
        assert text.endswith(f"{one}\n  ]\n}}")

    def test_an_unchecked_config_is_refused(self, default_report):
        # to_json writes a config's leaves without the encoder, so no config
        # that json.dumps might write otherwise (NaN, an int past the float
        # range, a bool) may reach it: each is refused when built, with
        # check's message, and a list of targets changed after the config
        # was built changes nothing, since the config holds a tuple
        cases = ((dict(tolerance=math.nan), "^tolerance must be finite"), (dict(rng_seed=True), "^rng_seed must be"),
                 (dict(beta_targets=[2.5, 3]), "^beta target 3 outside"), (dict(tolerance=10**400), "^tolerance must"))
        for kwargs, message in cases:
            with pytest.raises(ValidationError, match=message):
                SearchConfig(**kwargs)
        targets = [2.5]
        cfg = SearchConfig(beta_targets=targets)
        targets.append(3)
        assert cfg.beta_targets == (2.5,)
        report = sandwich_sweep(cfg)
        assert report.to_json() == json.dumps(report_form(report), indent=2)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda w: w["assemblage"].__setitem__("outcomes", 2.0),
            lambda w: w["assemblage"]["elements"][3].__setitem__("x", True),
            lambda w: w.update({"theta": w.pop("theta")}),
            lambda w: w["assemblage"]["elements"][0].update({"a": w["assemblage"]["elements"][0].pop("a")}),
        ],
        ids=["float outcomes", "bool x", "key order", "element key order"],
    )
    def test_witness_layout_is_fixed(self, default_report, edit):
        # a record holds no keys and no integers: an edit to a witness it
        # returned leaves its next witness and its JSON in the sweep's key
        # order and integer types
        record = default_report.records[1]
        witness, text = record.witness, SandwichReport(default_report.config, (record,)).to_json()
        edit(witness)
        assert json.dumps(record.witness) != json.dumps(witness)
        assert SandwichReport(default_report.config, (record,)).to_json() == text
        assert text == json.dumps(json.loads(text), indent=2)

    @pytest.mark.parametrize(
        "column, value",
        [("gap", math.nan), ("beta", 2), ("residual", math.inf), ("numeric_min", -math.inf), ("eq8_upper", True),
         ("analytic_lower", "0.9"), ("m", math.nan), ("m", -math.inf), ("m", 1), ("m", False), ("m", None)],
    )
    def test_other_columns_are_refused(self, default_report, column, value):
        with pytest.raises(ValidationError, match="sandwich record"):
            dataclasses.replace(default_report.records[0], **{column: value})

    def test_record_holds_seven_floats(self, default_report):
        # winner is a class constant, and the witness is built from m alone:
        # no record holds a copy of a constant
        record = default_report.records[0]
        assert [f.name for f in dataclasses.fields(record)] == [*_COLUMNS[:6], "m"]
        assert "winner" not in vars(record) and SandwichRecord.winner == "witness"
        with pytest.raises(TypeError):
            dataclasses.replace(record, winner="witness")

    def test_float_subclass_targets(self):
        # np.float64 is a float: its targets sweep, and every leaf is
        # written as json.dumps writes it
        report = sandwich_sweep(SearchConfig(beta_targets=(np.float64(2.5), 2.7)))
        assert type(report.records[0].beta) is np.float64
        text = report.to_json()
        assert text == json.dumps(json.loads(text), indent=2)
        assert json.loads(text)["records"][0]["beta"] == 2.5
        record = report.records[1]
        held = SandwichRecord(*map(np.float64, dataclasses.astuple(record)))
        assert SandwichReport(report.config, (held,)).to_json() == SandwichReport(report.config, (record,)).to_json()

    def test_seed_is_ignored(self, default_report):
        assert sandwich_sweep(SearchConfig(rng_seed=1)).records == default_report.records
        assert sandwich_sweep(SearchConfig(rng_seed=2)).records == default_report.records


def test_nothing_is_compiled_at_import():
    # the report's pieces are compiled on first use, so importing the
    # package, and a process that writes no report, compiles none
    code = "import steerbound.numsearch as n; print(*(f.cache_info().currsize for f in (n._head, n._record_pieces)))"
    env = {**os.environ, "PYTHONPATH": str(Path(numsearch.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.stdout == "0 0\n", result.stderr


def report_form(report):
    """The report as the dict json.dumps would write: a record is its
    columns and then its witness."""
    records = [{**{c: getattr(r, c) for c in _COLUMNS}, "witness": r.witness} for r in report.records]
    return {"config": report.config.to_dict(), "passed": report.passed, "records": records}


def seeded_targets(count=500):
    """count targets in (2, 2 sqrt 2]: the two ends, 2 sqrt 2 and the float
    just above 2, then uniform draws."""
    draws = 2 + (BETA_QUANTUM - 2) * (1 - np.random.default_rng(20240817).random(count - 2))
    return (BETA_QUANTUM, float(np.nextafter(2, 3)), *np.maximum(draws, np.nextafter(2, 3)).tolist())


def one_witness(beta):
    """The witness built one target at a time, from a nested list."""
    m = min(1.0, math.sqrt(beta * beta / 4 - 1))
    return Assemblage([[(I2 + sign * PAULI_Z) / 4, (I2 + sign * m * PAULI_X) / 4] for sign in (1, -1)])


def one_fidelity_operator(asm):
    """W by its definition, from the elements: p(a|x) by np.trace and one einsum."""
    reference = chsh_reference()
    p_ref, p = (np.trace(a.elements, axis1=2, axis2=3).real for a in (reference, asm))
    live = p >= PROB_FLOOR
    weights = np.where(live, np.sqrt(p_ref) / np.sqrt(np.where(live, p, 1.0)), 0.0)
    states = reference.elements / p_ref[..., None, None]
    return np.einsum("ax,axji,axcd->icjd", weights, asm.elements, states).reshape(4, 4) / reference.settings


class TestClosedFormSweep:
    """The closed-form records against matrix paths on each record's own
    witness: its W, W's eigenvalues and the CHSH functional."""

    @pytest.mark.parametrize("betas", [SearchConfig().beta_targets, seeded_targets()], ids=["default", "seeded"])
    def test_records_match_per_witness_path(self, betas):
        # numeric_min is the identity channel's tr(J_id W) within the
        # rounding allowance, LAPACK's H = 0 dual bound 2 lambda_max(W)
        # lies within the record's gap of it, and the residual is the CHSH
        # functional's bit for bit
        identity = dephasing_channel(0.0, 1.0).choi
        channel = {"re": identity.real.tolist(), "im": identity.imag.tolist()}
        records = _records(betas)
        assert [r.beta for r in records] == list(betas)
        for record in records:
            beta, witness = record.beta, record.witness
            asm = Assemblage.from_json(json.dumps(witness["assemblage"]))
            w = fidelity_operator(asm)
            assert abs(np.vdot(identity, w).real - record.numeric_min) <= _ROUNDING, beta
            assert 2 * np.linalg.eigvalsh(w)[-1] <= record.numeric_min + record.gap, beta
            assert json.dumps(asm.to_dict()) == json.dumps(witness["assemblage"]), beta
            assert witness["theta"] == math.atan(record.m) and witness["channel"] == channel
            assert record.residual == abs(chsh_functional(asm, witness["theta"]) - beta), beta
            assert record.m == min(1.0, math.sqrt(beta * beta / 4 - 1)), beta
            assert (record.analytic_lower, record.eq8_upper) == (analytic_bound(beta), upper_bound(beta))

    def test_witness_matches_one_target_formula(self):
        for beta in seeded_targets():
            asm, theta = witness_candidate(beta)
            assert asm.elements.tobytes() == one_witness(beta).elements.tobytes(), beta
            assert theta == math.atan(min(1.0, math.sqrt(beta * beta / 4 - 1)))

    def test_operator_matches_one_target_formula(self):
        # W from the Pauli rows and the reference map, against the einsum of
        # its definition within 1e-15; the last item is not Hermitian, with
        # every component of every row nonzero, so the map's i B_r half is read
        rng = np.random.default_rng(20240817)
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        asms = [Assemblage([[rho, rho / 2], [rho * 1e-13, rho / 2]])]  # one p(a|x) below PROB_FLOOR
        for kwargs in ({}, {"projective": False}, {"uniform_marginals": True}):
            asms += [realize(random_realization(rng, **kwargs)) for _ in range(100)]
        asms.append(Assemblage(np.tensordot(rng.uniform(0.1, 0.3, size=(2, 2, 8)), PAULI_BASIS, 1)))
        assert asms[0].probabilities()[1, 0] < PROB_FLOOR and len(asms) == 302
        assert all(c != 0 for row in asms[-1]._pauli for c in row)
        for asm in asms:
            w = fidelity_operator(asm)
            assert w.shape == (4, 4) and np.abs(w - one_fidelity_operator(asm)).max() <= 1e-15

    def test_sweep_builds_no_fidelity_operator(self, monkeypatch):
        # no module of the package reaches a W builder or an einsum
        betas = seeded_targets()
        builders = (fidelity.fidelity_operator, np.einsum)

        def unused(*args, **kwargs):
            raise AssertionError("the sweep must not build a fidelity operator")

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "steerbound"] + [np]
        for module in modules:
            for name, value in list(vars(module).items()):
                if any(value is b for b in builders):
                    monkeypatch.setattr(module, name, unused)
        assert sandwich_sweep(SearchConfig(beta_targets=betas)).passed

    def test_records_share_no_list(self, default_report):
        # every read of a record's witness builds its own dict, down to each row
        seen, witnesses = set(), []
        for record in default_report.records:
            for _ in range(2):
                witnesses.append(record.witness)  # kept alive, so no id is reused
                elements = witnesses[-1]["assemblage"]["elements"]
                lists = [entry[key] for entry in elements for key in ("re", "im")]
                lists += [row for matrix in lists for row in matrix]
                ids = {id(v) for v in lists}
                assert len(ids) == len(lists) and not seen & ids
                seen |= ids

    def test_residuals_match_chsh_functional(self):
        # each residual is abs(chsh_functional - beta) on the target's own
        # Assemblage, built from _witness, bit for bit
        betas = seeded_targets()
        for record, beta in zip(_records(betas), betas):
            asm, theta = witness_candidate(beta)
            assert theta == math.atan(record.m)
            assert record.residual == abs(chsh_functional(asm, theta) - beta), beta

    def test_written_witnesses_are_the_scored_stack(self):
        # each witness the report writes reads back as _witness's at the
        # target's own m, bit for bit, at theta = atan m
        betas = seeded_targets()
        report = sandwich_sweep(SearchConfig(beta_targets=betas))
        written = json.loads(report.to_json())["records"]
        assert len(written) == 500
        for entry, beta, record in zip(written, betas, report.records):
            asm, theta = witness_candidate(beta)
            read = Assemblage.from_json(json.dumps(entry["witness"]["assemblage"]))
            assert read.elements.tobytes() == asm.elements.tobytes(), beta
            assert entry["witness"]["theta"] == theta == math.atan(record.m)

    def test_records_construct_no_assemblage(self, monkeypatch):
        def unused(*args):
            raise AssertionError("_records must not build an Assemblage or its dict")

        monkeypatch.setattr(Assemblage, "__post_init__", unused)
        monkeypatch.setattr(Assemblage, "to_dict", unused)
        assert len(_records(seeded_targets())) == 500


class TestSandwich:
    def test_single_target_record(self):
        record = single_record(2.5)
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
        record = single_record(2.5)
        tolerance = SearchConfig().tolerance
        assert record.passes(tolerance)
        assert not dataclasses.replace(record, gap=1e-3).passes(tolerance)

    @pytest.mark.parametrize("shortfall, passes", [(0.5e-4, True), (2e-4, False)])
    def test_default_tolerance_edge(self, shortfall, passes):
        # a record this far below its analytic lower bound, against the
        # default tolerance 1e-4
        record = single_record(2.5)
        short = dataclasses.replace(record, numeric_min=record.analytic_lower - shortfall)
        assert short.passes(SearchConfig().tolerance) == passes

    def test_every_record_passes_at_least_tolerance(self):
        # the least tolerance SearchConfig.check allows is the rounding
        # allowance every gap carries: no record fails on rounding alone
        for betas in (seeded_targets(), (2.522268017964232, 2.72988755493037)):
            cfg = SearchConfig(beta_targets=betas, tolerance=_ROUNDING)
            cfg.check()
            report = sandwich_sweep(cfg)
            assert report.passed, [r.beta for r in report.records if not r.passes(_ROUNDING)]

    def test_max_violation_pins_fidelity_one(self):
        record = single_record(BETA_QUANTUM)
        assert record.numeric_min == pytest.approx(1.0, abs=1e-12)

    def test_beta_out_of_range(self):
        for beta in (1.9, 2.0, 2.9, math.nan, True):
            message = rf"^beta target {re.escape(repr(beta))} outside \(2, 2\*sqrt\(2\)\]$"
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
