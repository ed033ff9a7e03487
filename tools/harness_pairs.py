"""Run the benchmark on two source trees in alternating pairs.

Usage: python tools/harness_pairs.py BASE CHANGE --workload W --pairs N
           --seconds S [--seed K] [--smoke]

BASE and CHANGE are checkouts of this repository.  Each pair runs
``perfbench/run.py --trace 0`` once in each tree, as a fresh process
with that tree as its working directory, so each side is timed by its
own harness on its own sources.  Pair i uses seed K + i on both sides,
and the side that runs first alternates from pair to pair, base first
in the first pair.  The children write no bytecode, so no run leaves
files in either tree and both sides import from source alike.

It prints, per pair, every end-to-end metric that ``BENCHMARK.json``
declares (``peak_rss_mb`` and ``setup_s`` among them, which
``tools/ab_compare.py`` cannot measure) for each side, with the
change/base ratio, and each side's failed and attempted operations.
Then it prints the median ratio of each metric, and a verdict line per
metric: in how many pairs the change was better, in the direction
``BENCHMARK.json`` declares as ``better``; each side's median; and the
base's quartile spread over its median (inclusive quartiles).  A metric
whose base spread exceeds its ``bound``, or that ran in fewer than two
pairs, is marked ``unresolved``: its runs spread too widely to tell a
change within the bound.  It exits 1 when an operation failed on either
side.
"""

from __future__ import annotations

import argparse
import json
import os
from operator import truediv
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def end_to_end() -> list[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``: name, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def verdict(metric: dict, base: list, change: list) -> str:
    """One metric's verdict over the pairs: the change's wins in the
    metric's better direction, each side's median, and the base's
    quartile spread over its median, ``unresolved`` when that spread is
    above the metric's bound or cannot be measured."""
    higher = metric["better"] == "higher"
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    median = statistics.median(base)
    text = (f"{metric['name']} ({metric['better']} is better): change better in "
            f"{wins}/{len(base)} pairs, median {median:.4g} -> {statistics.median(change):.4g}")
    if len(base) < 2:
        return text + ", base spread unmeasured: unresolved"
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    spread = (q3 - q1) / median
    text += f", base spread {spread:.3f} of its median (bound {metric['bound']:g})"
    return text + (": unresolved" if spread > metric["bound"] else "")


def run_tree(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The result line of one ``perfbench/run.py`` run in tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"harness_pairs: the run in {tree} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=3, help="the seed of the first pair")
    parser.add_argument("--smoke", action="store_true", help="the tiny corpus")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {side: tree.resolve() for side, tree in zip(SIDES, (args.base, args.change))}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in {tree}")

    metrics = end_to_end()
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    failed = 0
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs", flush=True)
    for n in range(args.pairs):
        seed = args.seed + n
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        results = {side: run_tree(trees[side], args.workload, seed, args.seconds, args.smoke)
                   for side in order}
        cells = []
        for name in values["base"]:
            b, c = (results[side]["metrics"][name]["value"] for side in SIDES)
            values["base"][name].append(b)
            values["change"][name].append(c)
            cells.append(f"{name} {b:.4g} -> {c:.4g} x{c / b:.3f}")
        cells.append("failed " + " -> ".join(
            f"{results[side]['failed']}/{results[side]['attempted']}" for side in SIDES
        ))
        failed += sum(r["failed"] for r in results.values())
        print(f"  pair {n + 1} (seed {seed}; {order[0]} first): " + ", ".join(cells), flush=True)
    print("  median change/base: " + ", ".join(
        f"{name} x{statistics.median(map(truediv, values['change'][name], base)):.3f}"
        for name, base in values["base"].items()
    ))
    for metric in metrics:
        name = metric["name"]
        print("  verdict " + verdict(metric, values["base"][name], values["change"][name]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
