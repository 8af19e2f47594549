#!/usr/bin/env python3
"""Run one benchmark workload through `kripkebench.cli.main` and print its metrics.

    python3 bench/run.py --workload kripke-exhaust --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload's calls run in this process,
one after another, with `--workers 1`: a closed loop of one client. Passes
over the workload's inputs repeat for `--seconds`: after a first whole pass,
the run stops at the first job boundary past the deadline. Every output of
the first pass is checked by the benchmark's own checker, and every later
output must be byte-identical to the first pass's output of the same call.

Every PROBE_EVERY_S seconds, within calls too, an untraced run times the
reference computation of `reference.py`; the end-to-end times are reported in
`ref` units, as multiples of its median time over the run, so that the host's
drift in speed cancels out. With `--trace 0` the last line of stdout is a
JSON object with the end-to-end metrics. With `--trace 1` passes alternate
between untraced and traced, and the metrics are the per-layer ones from the
traced passes. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
P90_MIN_CALLS = 100
PROBE_EVERY_S = 0.25

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    " import kripkebench.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the CLI module in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def invoke(cli, argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, stdout and latency in seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
        latency = perf_counter() - start
    return code, out.getvalue(), latency


class Run:
    """The calls of one measured run and what they returned."""

    def __init__(self, cli, workload, out_dir: str):
        import reference  # after the program's source is on sys.path, like workloads

        self.reference_seconds = reference.reference_seconds
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.first: dict[str, tuple[int, str]] = {}  # key -> (code, digest)
        self.mismatched = Counter()
        self.raised = Counter()
        self.errors: dict[str, str] = {}
        self.executions = Counter()
        self.latencies: dict[str, list[float]] = {}
        self.probes: list[float] = []  # seconds of each reference computation

    def _probe(self, signum, frame) -> None:
        self.probes.append(self.reference_seconds())

    @contextlib.contextmanager
    def sampling(self):
        """Time the reference computation every PROBE_EVERY_S seconds, within calls too.

        A timer signal interrupts whatever runs, so the probes sample the
        host evenly in time however long the calls are.
        """
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference_s(self) -> float:
        """Median reference time over the run; the median ignores a probe the
        host preempted."""
        return statistics.median(self.probes)

    def one_pass(self, deadline: Optional[float] = None) -> tuple[float, int]:
        """Run every job once, or until `deadline` between jobs; returns the
        summed call latency and output bytes."""
        wall, output_bytes = 0.0, 0
        for job in self.workload.jobs:
            if deadline is not None and perf_counter() >= deadline:
                break
            previous = None
            for call in job:
                if call.if_refuted and previous != 1:
                    continue
                gc.collect()  # each CLI call starts from a clean heap, as a fresh process would
                self.executions[call.key] += 1
                probed = len(self.probes)
                try:
                    code, out, latency = invoke(self.cli, call.argv)
                except Exception as exc:  # a crash is a failed call, not a failed benchmark
                    self.raised[call.key] += 1
                    self.errors[call.key] = f"raised {type(exc).__name__}: {exc}"
                    previous = None
                    continue
                previous = code
                # the reference computations that interrupted the call are not its latency
                latency -= sum(self.probes[probed:])
                wall += latency
                data = out.encode()
                output_bytes += len(data)
                self.latencies.setdefault(call.key, []).append(latency)
                if call.save_to:
                    with open(call.save_to, "w", encoding="utf-8") as handle:
                        handle.write(out)
                digest = hashlib.sha256(data).hexdigest()
                if call.key not in self.first:
                    self.first[call.key] = (code, digest)
                    with open(self._out_path(call.key), "w", encoding="utf-8") as handle:
                        handle.write(out)
                elif self.first[call.key] != (code, digest):
                    self.mismatched[call.key] += 1
        return wall, output_bytes

    def _out_path(self, key: str) -> str:
        return os.path.join(self.out_dir, key + ".out")

    def failures(self) -> tuple[int, int, dict[str, str]]:
        """(attempted, failed, messages), checking the first output of every call.

        An execution fails when it raised, when its output differs from the
        first one of its call, or when it repeats a first output that failed
        the check.
        """
        results = {}
        for key, (code, _) in self.first.items():
            with open(self._out_path(key), encoding="utf-8") as handle:
                results[key] = (code, handle.read())
        messages = self.workload.check(results)
        failed = 0
        for key, count in self.executions.items():
            bad = self.raised[key] + self.mismatched[key]
            failed += count if key in messages else bad
        for key, error in self.errors.items():
            messages.setdefault(key, error)
        for key in self.mismatched:
            messages.setdefault(key, "output differs between passes")
        return sum(self.executions.values()), failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kripkebench", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str, workloads) -> int:
    from kripkebench import cli

    # Set-up: importing the program in a fresh interpreter, then generating
    # and writing the inputs. Repeated; the last inputs are the ones used.
    setups = []
    for repeat in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        workload = workloads.build(args.workload, args.seed, os.path.join(work, f"in{repeat}"))
        setups.append(imported + perf_counter() - start)
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)

    tracer = None
    if args.trace:
        import spans as tracing

        tracer = tracing.Tracer()
    run = Run(cli, workload, out_dir)
    walls = {False: [], True: []}
    traced_passes = []
    deadline = perf_counter() + args.seconds
    pass_index = 0
    # an untraced run samples the host's speed; a traced one reports no times in ref units
    sampling = run.sampling() if tracer is None else contextlib.nullcontext()
    with sampling:
        while True:
            started = perf_counter()
            traced = tracer is not None and pass_index % 2 == 1
            if traced:
                tracer.pass_index = pass_index
                tracer.install()
            # after its first pass, an untraced run stops at the deadline between jobs
            stop_at = deadline if tracer is None and pass_index > 0 else None
            try:
                wall, output_bytes = run.one_pass(stop_at)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if traced:
                traced_passes.append(tracer.pass_metrics(pass_index, output_bytes))
            pass_index += 1
            ended = perf_counter()
            if tracer is None:
                if ended >= deadline:
                    break
            # a traced run measures whole passes: it stops when another pass
            # would end more than half a pass after the deadline
            elif ended + (ended - started) / 2 >= deadline and traced_passes:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, messages = run.failures()
    for key, message in sorted(messages.items()):
        print(f"failed: {key}: {message}")
    # a call's latency is its mean over the run; a pass takes their sum
    latencies = sorted(statistics.fmean(v) for v in run.latencies.values())
    print(f"workload: {args.workload} seed={args.seed} passes={pass_index} calls={attempted}")
    print(f"failed_share: {failed / attempted:.4f} ({failed} of {attempted} calls)")
    if tracer is None:
        reference_s = run.reference_s()
        print(f"reference_ms: {reference_s * 1000:.4f} ms, median of {len(run.probes)} probes")
        print(f"wall_s: {sum(latencies):.6g} s")
        print(f"call_p50_ms: {statistics.median(latencies) * 1000:.6g} ms")
        if len(latencies) >= P90_MIN_CALLS:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            print(f"call_p90_ms: {p90 * 1000:.4f} ms over {len(latencies)} distinct calls")
        metrics = {
            "wall_ref": (sum(latencies) / reference_s, "ref"),
            "call_p50_ref": (statistics.median(latencies) / reference_s, "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import spans as tracing

        layers = tracing.median_metrics(traced_passes)
        untraced = statistics.median(walls[False])
        layers["trace.overhead_share"] = statistics.median(walls[True]) / untraced - 1
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
        os.makedirs(WORK, exist_ok=True)
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s"):
        return "s"
    if ".us_per_" in layer_metric:
        return "us"
    if layer_metric.endswith("_share"):
        return "ratio"
    if layer_metric.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
