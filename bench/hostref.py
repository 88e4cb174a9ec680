"""The host's speed, sampled during a timed loop with a fixed reference
computation.

On a shared host the CPU speed one process gets changes by up to 2x, for
stretches from seconds to minutes, and CPU time changes with wall time, so
neither clock is steady. A ``Sampler`` runs a fixed computation, written
here and independent of steerbound, from a timer signal every
``PERIOD_S`` while the workload runs. ``normalized`` divides the
workload's time in each interval between two samples by the reference
time measured around it, which gives the work done in units of the
reference ("ref"), a figure that the host's speed changes much less. The
reference time is kept off the workload's clock (``work_clock``).
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
WINDOW = 5  # samples in the running median that sets the reference level
WARM_UP = 20

_RNG = np.random.default_rng(20240817)
_MATRICES = [m + m.conj().T for m in _RNG.normal(size=(10, 4, 4)) + 1j * _RNG.normal(size=(10, 4, 4))]
_XZ = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.array([[1, 0], [0, -1]], dtype=complex))
_DOC = {"rows": [{"key": f"k{i}", "values": [j / 3 for j in range(8)]} for i in range(12)]}
_KEY = re.compile(r"k(\d+)")


def reference() -> float:
    """About 1 ms of the kinds of work steerbound does: interpreted code on
    dicts, lists and strings, and numpy calls on 4x4 complex matrices. Of
    the candidates tried, this mix followed the host's speed changes most
    closely in proportion (see README.md)."""
    total = 0.0
    for _ in range(3):
        doc = json.loads(json.dumps(_DOC))
        rows = sorted(((row["key"], sum(row["values"])) for row in doc["rows"]), key=lambda kv: (-kv[1], kv[0]))
        for key, value in dict(rows).items():
            total += value * int(_KEY.match(key).group(1))
        total += len(f"{rows[0][0]}-{rows[0][1]:.3f}")
    for matrix in _MATRICES:
        commutator = matrix @ _XZ - np.einsum("ij,jk->ik", _XZ, matrix)
        total += float(np.linalg.eigvalsh(matrix)[0]) + float(np.trace(commutator).real)
        total += float(np.abs(commutator).max())
    return total


class Sampler:
    """Times ``reference`` on SIGALRM every ``period`` seconds while in use
    as a context manager. Not reentrant; one per process."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts: list = []
        self.durations: list = []
        self.total = 0.0  # seconds spent in reference, to keep off work_clock
        self._running = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._running:
            return
        self._running = True
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.total += duration
        self._running = False

    def work_clock(self) -> float:
        """perf_counter minus the time spent in reference samples."""
        while True:
            spent = self.total
            now = time.perf_counter()
            if self.total == spent:  # no sample ran between the two reads
                return now - spent

    def __enter__(self) -> "Sampler":
        for _ in range(WARM_UP):
            reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, start: float, end: float) -> float:
        """Work done between ``start`` and ``end`` (perf_counter seconds),
        in reference units: the time in each interval that follows a
        sample, less the sample itself, over the running median of the
        reference time around it."""
        pairs = [(s, d) for s, d in zip(self.starts, self.durations) if start <= s < end]
        if not pairs:
            raise ValueError("no reference sample in the interval")
        starts = [s for s, _ in pairs]
        durations = [d for _, d in pairs]
        half = WINDOW // 2
        levels = [
            statistics.median(durations[max(0, k - half): k + half + 1]) for k in range(len(durations))
        ]
        total = (starts[0] - start) / levels[0]
        for k, (sample_start, duration) in enumerate(pairs):
            interval_end = starts[k + 1] if k + 1 < len(starts) else end
            total += (interval_end - sample_start - duration) / levels[k]
        return total

    def level_s(self) -> float:
        """Median reference time of the samples taken."""
        return statistics.median(self.durations)
