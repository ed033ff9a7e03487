#!/usr/bin/env python3
"""Closed-loop benchmark of the wpscoh command line.

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 38 --trace 0

One client in one process sends one operation at a time: an in-process
``wpscoh.cli.main(argv)`` call with stdout captured.  A run builds a
seeded corpus of operations and repeats it, pass after pass, until the
summed latency reaches ``--seconds``.  Each operation's latency is its
mean over the passes, so every figure averages over the whole run.
Every output is checked against facts recomputed from the weights.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
corpus untraced for half of ``--seconds``, replays one pass with spans
around each module's entry points, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  ``--workload all``
runs every workload in a fresh interpreter and prints each one's
metrics.  ``--smoke`` swaps in a tiny corpus that runs in seconds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's inputs and machine.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 7
MIN_OPS = 100  # so that at least 10 operations lie beyond the 90th percentile


def load_cli():
    """Import wpscoh.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "wpscoh" / "cli.py").is_file():
        sys.exit(f"perfbench: no wpscoh sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from wpscoh import cli

    return cli


def run_op(cli, op):
    """One timed call; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback: " + traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Run:
    """Latencies, failures and output digests of the calls of a run,
    kept per operation of the corpus."""

    def __init__(self, corpus):
        self.ops = [op for rnd in corpus for op in rnd.ops]
        self.round_sizes = [len(rnd.ops) for rnd in corpus]
        self.samples = [[] for _ in self.ops]
        self.outputs = [None] * len(self.ops)
        self.passes = 0
        self.calls = 0
        self.busy_s = 0.0
        self.failures = []
        self.stdout_bytes = 0

    def call(self, cli, i):
        op = self.ops[i]
        seconds, code, out, err = run_op(cli, op)
        self.samples[i].append(seconds)
        self.busy_s += seconds
        self.calls += 1
        self.stdout_bytes += len(out.encode())
        output = json.dumps([op.argv, str(code), out])
        problem = (f"exit code {code!r}, want {op.expect}" if code != op.expect
                   else _checked(op, out, err))
        if self.outputs[i] is None:
            self.outputs[i] = output
        elif not problem and output != self.outputs[i]:
            problem = "output differs from the first call of the same operation"
        if problem:
            self.failures.append((op.argv, problem))

    def latencies(self):
        """Each operation's mean latency over the passes."""
        return [statistics.fmean(s) for s in self.samples if s]

    def digests(self):
        """A stdout digest per round of the corpus."""
        out, start = [], 0
        for size in self.round_sizes:
            digest = hashlib.sha256()
            for output in self.outputs[start:start + size]:
                digest.update((output or "").encode())
            out.append(digest.hexdigest()[:16])
            start += size
        return out


def _checked(op, out, err):
    """The op's output check; output too malformed to check is a failure."""
    try:
        return op.check(out, err)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


def run_for(cli, corpus, seconds, between=None):
    """Repeat the corpus, pass after pass, while the summed latency is
    below ``seconds``; the first pass always completes.  ``between(busy_s)``
    runs before each call, outside the timing."""
    done = Run(corpus)
    while True:
        for i in range(len(done.ops)):
            if done.passes and done.busy_s >= seconds:
                return done
            if between is not None:
                between(done.busy_s)
            done.call(cli, i)
        done.passes += 1


class SetupProbe:
    """Fresh interpreters that import wpscoh.cli and build the corpus,
    started at even steps of the run's busy time, so that their median
    spans the whole run like the other figures."""

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.argv.append("--smoke")
        self.step = args.seconds / SETUP_STARTS
        self.times = []

    def __call__(self, busy_s):
        if len(self.times) < SETUP_STARTS and busy_s >= self.step * len(self.times):
            self.start()

    def start(self):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)

    def median(self):
        while len(self.times) < SETUP_STARTS:
            self.start()
        return statistics.median(self.times)


def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def record(args, done, corpus, extra):
    degrees = [Fraction(op.argv[op.argv.index("--max-degree") + 1])
               for op in done.ops if "--max-degree" in op.argv]
    vectors = [b for rnd in corpus for b in rnd.weights]
    digests = done.digests()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": len(corpus),
        "ops": len(done.ops),
        "passes": done.passes,
        "calls": done.calls,
        "ops_by_command": dict(sorted(Counter(op.argv[0] for op in done.ops).items())),
        "ell_histogram": _histogram(math.lcm(*b) for b in vectors),
        "n_histogram": _histogram(len(b) - 1 for b in vectors),
        "max_degree_range": [str(min(degrees)), str(max(degrees))] if degrees else None,
        "stdout_digest_per_round": digests,
        "stdout_digest": hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
        "failures": [{"argv": argv, "problem": problem} for argv, problem in done.failures[:20]],
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        **extra,
    }


def _histogram(values):
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def bench(args, cli, corpus):
    if not args.trace:
        setup = SetupProbe(args)
        done = run_for(cli, corpus, args.seconds, between=setup)
        lat = done.latencies()
        metrics = {
            "ops_per_s": _metric(len(lat) / math.fsum(lat), "1/s"),
            "latency_p50_ms": _metric(statistics.median(lat) * 1000, "ms"),
            "latency_p90_ms": _metric(_p90(lat) * 1000, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(setup.median(), "s"),
        }
        return [done], metrics, {}

    plain = run_for(cli, corpus, args.seconds / 2)
    tracer = Tracer()
    traced = Run(corpus)
    traced.outputs = list(plain.outputs)  # tracing must not change any output
    tracer.install()
    try:
        for i in range(len(traced.ops)):
            tracer.op += 1
            traced.call(cli, i)
    finally:
        tracer.uninstall()
    traced.passes = 1
    spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv"
    tracer.write_spans(spans_path)
    layer = tracer.metrics()
    layer["cli.stdout_bytes"] = (traced.stdout_bytes, "bytes")
    layer["trace.overhead_ratio"] = (traced.busy_s / math.fsum(plain.latencies()), "ratio")
    metrics = {name: _metric(value, unit) for name, (value, unit) in sorted(layer.items())}
    extra = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return [plain, traced], metrics, extra


def _p90(values):
    """90th percentile; statistics.quantiles needs two or more values."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def bench_all(args):
    """Each workload in its own interpreter; adds error_rate = failed / attempted."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["metrics"]["error_rate"] = _metric(result["failed"] / result["attempted"], "ratio")
        print(json.dumps({"workload": name, **result}))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        load_cli()
        workloads.make_corpus(args.workload, args.seed, args.smoke)
        return 0
    if args.workload == "all":
        bench_all(args)
        return 0
    cli = load_cli()
    corpus = workloads.make_corpus(args.workload, args.seed, args.smoke)
    if not args.smoke and sum(len(rnd.ops) for rnd in corpus) < MIN_OPS:
        sys.exit(f"perfbench: the {args.workload} corpus has fewer than {MIN_OPS} operations")
    # warm-up, untimed: lazy imports and caches of every code path on tiny inputs
    warm = run_for(cli, workloads.make_corpus(args.workload, args.seed, smoke=True), 0)
    runs, metrics, extra = bench(args, cli, corpus)
    runs.insert(0, warm)
    failures = [f for run in runs for f in run.failures]
    for argv_, problem in failures[:20]:
        print(f"FAILED {' '.join(argv_)}: {problem}", file=sys.stderr)
    print(json.dumps({"record": record(args, runs[-1], corpus, extra)}))
    print(json.dumps({"correct": not failures, "attempted": sum(run.calls for run in runs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
