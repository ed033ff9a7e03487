"""Time two ``wpscoh`` source trees side by side in one process.

Usage: python tools/ab_compare.py BASE CHANGE [--workload NAME ...]
           [--seed N] [--passes N] [--smoke]

BASE and CHANGE are checkouts of this repository (a directory holding
``src/wpscoh``).  Each tree's package is imported under its own name,
``wpscoh_base`` and ``wpscoh_change``, so both live in one interpreter.
The operation corpora come from ``perfbench/workloads.py`` of the
checkout that holds this script, and each call is timed by that
checkout's ``perfbench/run.py`` (its ``run_op``, which also turns an
unexpected exception into an exit code that names it); both modules are
imported without writing bytecode.

Every operation of a workload's corpus runs on both sides back to back,
and the side that goes first alternates from one operation to the next
and from one pass to the next.  The two calls of a pair must give the
same exit code and byte-identical stdout and stderr; otherwise the
script names the first operation that differs and exits 1.  The first
pass is untimed.

Per workload it prints, for each side, ``ops_per_s``, ``latency_p50_ms``
and ``latency_p90_ms`` as ``perfbench/run.py`` defines them (from each
operation's mean latency over the timed passes), then the change/base
ratio of each figure, the median and quartiles of the per-operation
latency ratios, and per subcommand (``eval`` split by its ``--ring``)
the median and quartiles of those ratios and the number of operations
they come from, so a gain shows where it lands and a subcommand's
median can be told from the spread of its few operations.  The host's
speed drifts more between two runs than between the two calls of a
pair, so these ratios are steadier than a comparison of two separate
runs.

It measures neither ``peak_rss_mb`` nor ``setup_s``: both trees share
one process, so neither figure belongs to one side.  A change still
needs two runs of ``perfbench/run.py``, one per tree, for those two
metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PER_COMMAND = "per-subcommand latency ratio: median, quartiles, ops"


def load_cli(tree: Path, name: str):
    """The ``cli`` module of tree's ``src/wpscoh``, imported as package name."""
    package = tree / "src" / "wpscoh"
    if not (package / "cli.py").is_file():
        sys.exit(f"ab_compare: no wpscoh sources at {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_bench():
    """``perfbench/run.py`` of this checkout, with the ``workloads``
    module it imports, without writing bytecode or keeping its
    directory on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("ab_compare_bench", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    path, written = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, written
    return module


def compare(bench, clis, ops, passes):
    """Per side, each op's latencies over the timed passes; None and the
    first argv whose results differ, if any."""
    samples = {side: [[] for _ in ops] for side in SIDES}
    for n in range(passes + 1):
        for i, op in enumerate(ops):
            order = SIDES if (i + n) % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                seconds, *results[side] = bench.run_op(clis[side], op)
                if n:  # the first pass is untimed
                    samples[side][i].append(seconds)
            if results["base"] != results["change"]:
                return None, op.argv
    return samples, None


def figures(bench, latencies):
    """ops_per_s, latency_p50_ms and latency_p90_ms of per-op mean
    latencies, as ``perfbench/run.py`` computes them."""
    return {
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": bench._p90(latencies) * 1000,
    }


def quartiles(values):
    """Lower quartile, median and upper quartile, interpolated within the
    range of the values, so a group of two or three stays inside it."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def subcommand(argv) -> str:
    """The subcommand of argv, with ``eval``'s ring: ``eval:orbifold``."""
    if argv[0] == "eval" and "--ring" in argv:
        return f"eval:{argv[argv.index('--ring') + 1]}"
    return argv[0]


def report(bench, workload, ops, samples) -> list[str]:
    means = {side: [statistics.fmean(s) for s in samples[side]] for side in SIDES}
    stats = {side: figures(bench, means[side]) for side in SIDES}
    lines = [f"{workload}: {len(means['base'])} ops, outputs byte-identical"]
    for side in SIDES:
        lines.append(f"  {side:7}" + "".join(
            f"  {name} {value:10.3f}" for name, value in stats[side].items()
        ))
    lines.append("  change/base" + "".join(
        f"  {name} {stats['change'][name] / stats['base'][name]:.3f}" for name in stats["base"]
    ))
    ratios = [c / b for b, c in zip(means["base"], means["change"])]
    low, median, high = quartiles(ratios)
    lines.append(f"  per-op latency ratio: median {median:.3f}, quartiles {low:.3f}-{high:.3f}")
    by_command = {}
    for op, ratio in zip(ops, ratios):
        by_command.setdefault(subcommand(op.argv), []).append(ratio)
    lines.append(f"  {PER_COMMAND}")
    for name, values in sorted(by_command.items()):
        low, median, high = quartiles(values)
        lines.append(f"    {name:14} {median:.3f}  {low:.3f}-{high:.3f}  {len(values)}")
    return lines


def main(argv=None) -> int:
    bench = load_bench()
    workloads = bench.workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=tuple(workloads.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--passes", type=int, default=7, help="timed passes over each corpus")
    parser.add_argument("--smoke", action="store_true", help="the tiny corpora")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    clis = {side: load_cli(tree.resolve(), f"wpscoh_{side}")
            for side, tree in zip(SIDES, (args.base, args.change))}
    for workload in args.workload or workloads.WORKLOADS:
        corpus = workloads.make_corpus(workload, args.seed, args.smoke)
        ops = [op for rnd in corpus for op in rnd.ops]
        samples, differs = compare(bench, clis, ops, args.passes)
        if differs is not None:
            print(f"{workload}: the two sides differ on {' '.join(differs)}")
            return 1
        print("\n".join(report(bench, workload, ops, samples)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
