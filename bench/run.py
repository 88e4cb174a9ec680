"""steerbound benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload sandwich --seed 20240817 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The program is imported from ``src/`` next to this directory.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(a fresh interpreter importing ``steerbound.cli``), then a closed loop of
the workload's operation, one caller, for ``--seconds`` in a worker process
(worker.py) that samples the host's speed alongside (hostref.py). --trace 1 runs a
fixed amount of the same work in this process, plain, then with every
public function of interest wrapped (see tracer.py), then plain again, and
reports the per-layer metrics. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable
lines, provenance included, come before it; the full result goes to
``bench/out/``. See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# before anything imports numpy, here or in a child
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("STEERBOUND_SEED", None)  # would override the config's rng_seed

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 20240817  # SearchConfig's default rng_seed
SETUP_SAMPLES = 8
STREAM_TRACE_ITEMS = 2000
WATCHDOG_S = 175

sys.path.insert(0, str(BENCH))
import certificates  # noqa: E402  (after the thread variables are pinned)
import sandwich  # noqa: E402
import stream  # noqa: E402
from tracer import Tracer  # noqa: E402


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes

@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, work: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit and the
    child's own peak RSS (from wait4). The child is killed and reaped if
    this process is interrupted."""
    with open(work / "stdout", "w+") as out, open(work / "stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss * 1024 / 1e6)


def measure_setup(work: Path, count: int, warm_up: bool) -> list:
    """Wall seconds for fresh interpreters to import steerbound.cli. The
    untimed warm-up import writes the bytecode cache, as an install would."""
    argv = [sys.executable, "-c", "import steerbound.cli"]
    samples = []
    for i in range(count + warm_up):
        child = run_child(argv, work)
        if child.returncode != 0:
            raise Abort(f"cannot import steerbound.cli from {SRC}: {child.stderr.strip()[-300:]}")
        if i or not warm_up:
            samples.append(child.wall_s)
    return samples


# ---------------------------------------------------------------------------
# Results

@dataclass
class Result:
    attempted: int = 0
    failures: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # name -> list of samples
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    detail: dict = field(default_factory=dict)

    def record(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentiles(n: int) -> list:
    """Percentiles with at least ten samples beyond them."""
    return [p for p in (90, 99, 99.9) if n * (100 - p) / 100 >= 10]


# ---------------------------------------------------------------------------
# Workloads, untraced

def run_worker(args, work: Path, result: Result) -> None:
    """The workload's closed loop, in a worker process (worker.py)."""
    child = run_child(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--out-dir", str(work)],
        work,
    )
    if child.returncode != 0:
        result.record(f"worker exited {child.returncode}: {child.stderr.strip()[-300:]}")
        return
    summary = json.loads(child.stdout.strip().splitlines()[-1])
    if not Path(summary["steerbound_file"]).resolve().is_relative_to(SRC):
        raise Abort(f"worker imported steerbound from {summary['steerbound_file']}, not {SRC}")
    result.attempted += summary["attempted"]
    result.failures += summary["failures"]
    result.failures += ["(more)"] * (summary["failed"] - len(summary["failures"]))
    for name in summary["timings"]:
        values = array("d")
        with open(work / f"{name}.f64", "rb") as handle:
            values.frombytes(handle.read())
        result.timings[name] = values
    result.metrics["op_cost_ref"] = (summary["work_ref"] / summary["timed"], "ref")
    result.metrics["peak_rss_mb"] = (child.rss_mb, "MB")
    result.detail.update(
        ops_per_s=summary["timed"] / summary["wall_s"],
        reference_ms=summary["reference_s"] * 1e3,
        reference_samples=summary["reference_samples"],
    )


# ---------------------------------------------------------------------------
# Workloads, traced

def import_package():
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("steerbound")
    for module in ("cli", "assemblage", "fidelity", "matkernel", "numsearch", "selftest", "steering"):
        importlib.import_module(f"steerbound.{module}")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise Abort(f"imported steerbound from {package.__file__}, not {SRC}")
    return package


def trace_ops(args, work: Path, sb):
    """The fixed work of a traced run: (span name or None, callable that
    does it and returns (attempted, failure reasons))."""
    if args.workload == "sandwich":
        run = sandwich.command(work, args.seed)

        def sandwich_once():
            reason = run(sb)
            return 1, [reason] if reason else []

        return [("cli.sandwich", sandwich_once)]
    if args.workload == "certificates":

        def verify():
            reason = certificates.verify(sb)
            return 1, [reason] if reason else []

        def coefficients():
            reason = certificates.coefficients(sb)
            return 1, [reason] if reason else []

        return [("cli.verify-inequality", verify), ("cli.coefficient-search", coefficients)]
    items = stream.make_items(args.seed, STREAM_TRACE_ITEMS)

    def certify_items():
        failures = []
        for item in items:
            try:
                reason = stream.certify(sb, *item)
            except Exception as exc:  # any crash of the program is a failed item
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append(reason)
        return len(items), failures

    return [(None, certify_items)]


def run_traced(args, work: Path, result: Result) -> None:
    sb = import_package()
    ops = trace_ops(args, work, sb)

    def run_all(tracer=None) -> float:
        start = time.perf_counter()
        for name, op in ops:
            with tracer.span(name) if tracer and name else contextlib.nullcontext():
                attempted, failures = op()
            result.attempted += attempted
            result.failures += failures
        return time.perf_counter() - start

    # untraced on both sides of the traced pass, so that a drift in host
    # speed during the run does not read as tracing overhead
    before = run_all()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_all(tracer)
    finally:
        tracer.uninstall()
    untraced = (before + run_all()) / 2
    summary = tracer.summary()
    result.metrics.update(layer_metrics(tracer, summary, traced - untraced))
    result.detail["functions"] = summary
    result.detail["absent"] = tracer.absent
    result.detail["untraced_s"] = untraced
    result.detail["traced_s"] = traced
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    tracer.write(spans_path)
    result.detail["spans_file"] = str(spans_path.relative_to(ROOT))


def layer_metrics(tracer: Tracer, summary: dict, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json. A function that is
    idle in this workload, or absent from the package, reads 0."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def calls_from(name, parent):
        return summary.get(name, {}).get("calls_by_parent", {}).get(parent, 0)

    busy = {name: (get(name, "busy_s"), "s") for name in (
        "numsearch.min_extractability_at_beta",
        "numsearch.best_channel",
        "numsearch.fidelity_after_kraus",
        "selftest.inequality_margin",
        "selftest.t_constraints",
        "selftest.coefficient_search",
        "selftest.certified_lower_bound",
        "selftest.extractability_with_channel",
        "matkernel.min_eigval",
        "steering.t_operators",
        "steering.max_violation_over_theta",
        "steering.chsh_functional",
        "assemblage.from_json",
        "assemblage.validate",
        "fidelity.assemblage_fidelity",
    )}
    calls = {name: (get(name, "calls"), "count") for name in (
        "numsearch.min_extractability_at_beta",
        "numsearch.best_channel",
        "selftest.inequality_margin",
        "selftest.t_constraints",
        "matkernel.min_eigval",
        "steering.t_operators",
        "steering.max_violation_over_theta",
        "fidelity.state_fidelity",
    )}
    metrics = {f"{name}.busy_s": value for name, value in busy.items()}
    metrics.update({f"{name}.calls": value for name, value in calls.items()})

    outer = "numsearch.min_extractability_at_beta"
    channel = "numsearch.best_channel"
    scored = calls_from(channel, outer)
    searches = get(outer, "calls")
    # each search scores the mixture candidate plus every admitted restart
    restarts = searches * sandwich.SAMPLES
    metrics["numsearch.outer_search.self_s"] = (get(outer, "busy_s") - tracer.child_time(outer, channel), "s")
    metrics["numsearch.best_channel.ms_per_call"] = (
        get(channel, "busy_s") / get(channel, "calls") * 1e3 if get(channel, "calls") else 0.0, "ms")
    metrics["numsearch.fidelity_after_kraus.calls.outer_search"] = (
        calls_from("numsearch.fidelity_after_kraus", outer), "count")
    metrics["numsearch.fidelity_after_kraus.calls.best_channel"] = (
        calls_from("numsearch.fidelity_after_kraus", channel), "count")
    metrics["numsearch.admitted_ratio"] = ((scored - searches) / restarts if restarts else 0.0, "ratio")
    for command in ("sandwich", "verify-inequality", "coefficient-search"):
        metrics[f"cli.{command}.self_s"] = (get(f"cli.{command}", "self_s"), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.spans"] = (len(tracer.name_id), "count")
    return metrics


# ---------------------------------------------------------------------------
# Provenance and output

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git
    repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "steerbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, result: Result) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "load_avg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "samples": {name: len(values) for name, values in result.timings.items()},
    }


def report_lines(result: Result) -> list:
    lines = []
    for name, values in result.timings.items():
        unit, scale = ("ms", 1e3) if name == "certify_s" else ("s", 1.0)
        label = name[: -len("_s")] + "_ms" if unit == "ms" else name
        line = f"{label}.p50 = {statistics.median(values) * scale:.6g} {unit}"
        for p in tail_percentiles(len(values)):
            line += f", p{p:g} = {percentile(values, p) * scale:.6g} {unit}"
        lines.append(f"{line} (n = {len(values)})")
    for name, (value, unit) in result.metrics.items():
        if name not in result.timings:
            lines.append(f"{name} = {value:.6g} {unit}")
    if "ops_per_s" in result.detail:
        name = "certify_per_s" if "certify_s" in result.timings else "ops_per_s"
        lines.append(f"{name} = {result.detail['ops_per_s']:.6g} 1/s (host speed as measured)")
        lines.append(
            f"reference = {result.detail['reference_ms']:.6g} ms (median of {result.detail['reference_samples']})"
        )
    lines.append(f"fail_ratio = {len(result.failures)}/{result.attempted}")
    lines += [f"FAILED: {reason}" for reason in result.failures[:5]]
    return lines


def run_workload(args) -> Result:
    result = Result()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            run_traced(args, work, result)
        else:
            # half the set-up samples before the workload and half after, so
            # that they see the same host as the workload does
            setup = measure_setup(work, SETUP_SAMPLES // 2, warm_up=True)
            run_worker(args, work, result)
            setup += measure_setup(work, SETUP_SAMPLES // 2, warm_up=False)
            result.timings = {"setup_s": setup, **result.timings}
            result.metrics["setup_s"] = (statistics.median(setup), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


WORKLOADS = ("sandwich", "certificates", "assemblage_stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "steerbound" / "__init__.py").is_file():
        print(f"error: no steerbound package under {SRC}", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise Abort(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run_args = argparse.Namespace(**{**vars(args), "workload": workload})
        signal.alarm(WATCHDOG_S)
        try:
            result = run_workload(run_args)
        except Abort as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            signal.alarm(0)
        prov = provenance(run_args, result)
        print(f"== {workload} (seed {args.seed}, trace {args.trace})")
        for line in report_lines(result):
            print(f"  {line}")
        print(f"  provenance: {json.dumps(prov)}")
        record = {
            "provenance": prov,
            "attempted": result.attempted,
            "failures": result.failures,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
            "timings": {name: list(values) for name, values in result.timings.items() if len(values) <= 100},
            "detail": result.detail,
        }
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        prefix = "" if len(workloads) == 1 else f"{workload}."
        combined["attempted"] += result.attempted
        combined["failed"] += len(result.failures)
        combined["metrics"].update(
            {prefix + name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()}
        )
    combined["correct"] = combined["failed"] == 0 and combined["attempted"] > 0
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
