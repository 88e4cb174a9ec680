"""The assemblage_stream workload: seeded assemblage documents certified one
at a time through the library API.

The documents come from this file's own numpy sampler, not from
``steerbound.numsearch.sample_assemblage``, so a change to the library cannot
change the inputs. About 80 % of the items have uniform outcome
probabilities p(a|x) = 1/2 and are certified; the rest are non-uniform and
must be refused with ``ValidationError``.

worker.py runs the timed loop; the items are cycled in order.
"""

from __future__ import annotations

import json
import math

import numpy as np

UNIFORM_SHARE = 0.8
POOL_SIZE = 4096
WARM_UP_ITEMS = 64
TOL = 1e-9
S_OPTIMAL = (1 + math.sqrt(2)) / 4

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)


def _bloch(v: np.ndarray) -> np.ndarray:
    return sum(c * p for c, p in zip(v, _PAULI))


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _uniform_elements(rng: np.random.Generator):
    """sigma_{a|x} = (rho_B + (-1)^a q_x . sigma / 2) / 2.

    Bob's marginal rho_B = (I + r . sigma)/2 is the same for both settings
    and every p(a|x) is 1/2. Both elements are PSD while |r +- q_x| <= 1; q_x
    is a visibility v in (0, 1] times the largest length along a random
    direction that keeps that true.
    """
    r = _unit(rng) * rng.uniform(0.0, 0.6)
    elements = {}
    for x in range(2):
        d = _unit(rng)
        rd = float(r @ d)
        reach = -abs(rd) + math.sqrt(rd * rd + 1.0 - float(r @ r))
        q = (1.0 - rng.random()) * reach * d
        rho = (_I2 + _bloch(r)) / 2
        elements[(0, x)] = (rho + _bloch(q) / 2) / 2
        elements[(1, x)] = (rho - _bloch(q) / 2) / 2
    return elements


def _expected_beta(elements) -> float:
    """max over theta in [0, pi/2] of u cos(theta) + w sin(theta)."""
    u = 2 * float(np.trace(_PAULI[2] @ (elements[(0, 0)] - elements[(1, 0)])).real)
    w = 2 * float(np.trace(_PAULI[0] @ (elements[(0, 1)] - elements[(1, 1)])).real)
    if u > 0 and w > 0:
        return math.hypot(u, w)
    return max(u, w)


def _document(elements) -> str:
    return json.dumps(
        {
            "outcomes": 2,
            "settings": 2,
            "elements": [
                {"a": a, "x": x, "re": m.real.tolist(), "im": m.imag.tolist()}
                for (a, x), m in sorted(elements.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            ],
        }
    )


def make_items(seed: int, count: int = POOL_SIZE) -> list:
    """(document, uniform, expected_beta) triples; the same seed gives the
    same list.

    A non-uniform item mixes a uniform one with the deterministic answer
    a = 0: sigma_{a|x} = w sigma_{a|x} + (1 - w) [a = 0] rho_B. It is still a
    valid assemblage, with p(0|x) = 1 - w/2 for w in [0.5, 0.9].
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    items = []
    for _ in range(count):
        elements = _uniform_elements(rng)
        uniform = rng.random() < UNIFORM_SHARE
        if not uniform:
            w = rng.uniform(0.5, 0.9)
            for x in range(2):
                rho = elements[(0, x)] + elements[(1, x)]
                elements[(0, x)] = w * elements[(0, x)] + (1 - w) * rho
                elements[(1, x)] = w * elements[(1, x)]
        items.append((_document(elements), uniform, _expected_beta(elements)))
    return items


def analytic_bound(beta: float) -> float:
    return (1 + math.sqrt(2)) / 8 * beta + (2 - math.sqrt(2)) / 4


def certify(sb, doc: str, uniform: bool, expected_beta: float):
    """Run one item through the library; return None when the outcome is
    correct, else a one-line reason.

    Every function is looked up on its module at call time, so wrappers
    installed by the tracer see the call. ``sb`` is the imported package.
    """
    asm = sb.assemblage.Assemblage.from_json(doc)
    if not sb.assemblage.validate(asm).passed:
        return "generated assemblage failed validate"
    theta, beta = sb.steering.max_violation_over_theta(asm)
    if abs(beta - expected_beta) > TOL:
        return f"beta {beta!r} != closed form {expected_beta!r}"
    try:
        lower = sb.selftest.certified_lower_bound(asm, theta)
    except sb.ValidationError:
        return None if not uniform else "uniform item refused"
    if not uniform:
        return "non-uniform item was certified"
    if abs(lower - analytic_bound(beta)) > TOL:
        return f"lower bound {lower!r} != analytic {analytic_bound(beta)!r}"
    channel = sb.selftest.dephasing_channel(
        theta, sb.selftest.dephasing_coefficient(theta, S_OPTIMAL)
    )
    witness = sb.selftest.extractability_with_channel(asm, channel)
    if witness < lower - TOL:
        return f"witness fidelity {witness!r} below certified bound {lower!r}"
    return None
