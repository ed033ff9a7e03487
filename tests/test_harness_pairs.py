"""``tools/harness_pairs.py`` on the smoke corpora."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "harness_pairs.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = [m["name"] for m in SPEC]

_spec = importlib.util.spec_from_file_location("harness_pairs", TOOL)
harness_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness_pairs)


def run_tool(base, change, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(base), str(change), "--smoke", "--seconds", "0.1", *args],
        capture_output=True, text=True, timeout=300,
    )


def tree_files(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


def test_repo_against_itself():
    before = tree_files(ROOT / "perfbench")
    proc = run_tool(ROOT, ROOT, "--workload", "cli_small", "--pairs", "2", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert tree_files(ROOT / "perfbench") == before  # reads perfbench/, writes nothing there
    head, first, second, medians, *verdicts = proc.stdout.splitlines()
    assert head == "cli_small: 2 pairs of 0.1 s runs"
    assert first.startswith("  pair 1 (seed 5; base first): ")
    assert second.startswith("  pair 2 (seed 6; change first): ")
    assert medians.startswith("  median change/base: ")
    for line in (first, second):
        *cells, failed = line.split(": ", 1)[1].split(", ")
        assert [cell.split()[0] for cell in cells] == METRICS
        for cell in cells:  # name base -> change xratio
            _, base, _, change, ratio = cell.split()
            assert float(base) > 0 and float(change) > 0
            assert abs(float(ratio[1:]) - float(change) / float(base)) < 0.01 * float(ratio[1:])
        assert failed.startswith("failed 0/") and " -> 0/" in failed
    cells = [cell.split() for cell in medians.split(": ", 1)[1].split(", ")]
    assert [name for name, _ in cells] == METRICS
    assert all(float(ratio[1:]) > 0 for _, ratio in cells)
    assert len(verdicts) == len(SPEC)
    for line, metric in zip(verdicts, SPEC):
        assert line.startswith(f"  verdict {metric['name']} ({metric['better']} is better): "
                               "change better in ")
        assert "/2 pairs, median " in line
        assert f"of its median (bound {metric['bound']:g})" in line


def _metric(better="higher", bound=0.1):
    return {"name": "m", "unit": "1/s", "better": better, "bound": bound}


def test_verdict_counts_wins_in_the_better_direction():
    base, change = [100, 100, 100, 100], [110, 90, 101, 100]
    text = harness_pairs.verdict(_metric("higher"), base, change)
    assert text == ("m (higher is better): change better in 2/4 pairs, median 100 -> 100.5, "
                    "base spread 0.000 of its median (bound 0.1)")
    text = harness_pairs.verdict(_metric("lower"), base, change)
    assert text.startswith("m (lower is better): change better in 1/4 pairs, ")


def test_verdict_marks_a_wide_base_spread_unresolved():
    # inclusive quartiles of 80, 100, 100, 130 are 95 and 107.5: a spread of 0.125
    base, change = [80, 100, 100, 130], [100, 100, 100, 100]
    text = harness_pairs.verdict(_metric(bound=0.2), base, change)
    assert text.endswith("base spread 0.125 of its median (bound 0.2)")
    text = harness_pairs.verdict(_metric(bound=0.1), base, change)
    assert text.endswith("base spread 0.125 of its median (bound 0.1): unresolved")


def test_verdict_of_one_pair_is_unresolved():
    text = harness_pairs.verdict(_metric(), [100], [120])
    assert text == ("m (higher is better): change better in 1/1 pairs, median 100 -> 120, "
                    "base spread unmeasured: unresolved")


def test_a_failed_operation_exits_1(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wpscoh" / "cli.py"
    source = cli.read_text()
    assert source.count('f"Z[u]/<{rel') == 1  # the orbifold ring line, which the harness checks
    cli.write_text(source.replace('f"Z[u]/<{rel', 'f"Z[u]/({rel'))
    proc = run_tool(ROOT, tmp_path, "--workload", "cli_small", "--pairs", "1")
    assert proc.returncode == 1, proc.stderr
    failed = proc.stdout.splitlines()[1].rsplit(", ", 1)[1]
    base, change = failed.removeprefix("failed ").split(" -> ")
    assert base.startswith("0/") and not change.startswith("0/")


def test_a_tree_without_the_harness_is_refused(tmp_path):
    proc = run_tool(ROOT, tmp_path, "--workload", "cli_small", "--pairs", "1")
    assert proc.returncode == 2
    assert f"no perfbench/run.py in {tmp_path}" in proc.stderr
