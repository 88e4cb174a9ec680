"""The benchmark's worker process: one workload's operation in a closed loop,
one caller, for ``--seconds``, with the host's speed sampled alongside
(hostref.py).

    PYTHONPATH=src python3 bench/worker.py --workload certificates --seed 1 --seconds 20 --out-dir DIR

It needs ``steerbound`` importable. It prints a one-line JSON summary
(operations attempted and timed, failures, loop wall time, the loop's work
in reference units) and writes each timing's samples to
``DIR/<name>.f64`` as raw float64. Every operation's output is checked; a
wrong output and an unexpected exception each count as a failed operation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from array import array
from pathlib import Path

import certificates
import hostref
import sandwich
import stream

# Per-operation samples kept; past this the latest overwrite the oldest. The
# buffers are written in full before timing, so the resident size does not
# grow with throughput.
CAPACITY = 1 << 18


def build(workload: str, seed: int, work: Path, clock):
    """(timing names, warm-up operations, op) for ``workload``. ``op(sb)``
    does one operation and returns (None or the failure reason, one time
    per timing name, taken on ``clock``)."""
    if workload == "sandwich":
        run = sandwich.command(work, seed)

        def op(sb):
            start = clock()
            reason = run(sb)
            return reason, (clock() - start,)

        return ("sandwich_s",), 0, op
    if workload == "certificates":

        def op(sb):
            start = clock()
            first = certificates.verify(sb)
            middle = clock()
            second = certificates.coefficients(sb)
            return first or second, (middle - start, clock() - middle)

        return ("verify_s", "coefficient_s"), 1, op
    items = itertools.cycle(stream.make_items(seed))

    def op(sb):
        start = clock()
        reason = stream.certify(sb, *next(items))
        return reason, (clock() - start,)

    return ("certify_s",), stream.WARM_UP_ITEMS, op


def attempt(op, sb):
    try:
        return op(sb)
    except Exception as exc:  # any crash of the program is a failed operation
        return f"{type(exc).__name__}: {exc}", None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sandwich", "certificates", "assemblage_stream"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    import steerbound
    import steerbound.cli

    sampler = hostref.Sampler()
    names, warm_up, op = build(args.workload, args.seed, args.out_dir, sampler.work_clock)
    timings = {name: array("d", [0.0]) * CAPACITY for name in names}
    failures = []
    # untimed, checked operations first, so that lazy set-up is not timed
    for _ in range(warm_up):
        reason, _ = attempt(op, steerbound)
        if reason is not None:
            failures.append(reason)
    done = timed = 0
    with sampler:
        start = time.perf_counter()
        deadline = start + args.seconds
        while done == 0 or not sampler.durations or time.perf_counter() < deadline:
            reason, times = attempt(op, steerbound)
            done += 1
            if reason is not None:
                failures.append(reason)
            if times is not None:
                for name, value in zip(names, times):
                    timings[name][timed % CAPACITY] = value
                timed += 1
        end = time.perf_counter()
    for name, values in timings.items():
        with open(args.out_dir / f"{name}.f64", "wb") as handle:
            values[: min(timed, CAPACITY)].tofile(handle)
    print(
        json.dumps(
            {
                "attempted": warm_up + done,
                "failed": len(failures),
                "failures": failures[:20],
                "timed": done,
                "wall_s": end - start,
                "work_ref": sampler.normalized(start, end),
                "reference_s": sampler.level_s(),
                "reference_samples": len(sampler.durations),
                "timings": list(names),
                "steerbound_file": steerbound.__file__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
