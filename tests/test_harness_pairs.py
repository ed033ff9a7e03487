"""``tools/harness_pairs.py`` on the smoke corpora."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "harness_pairs.py"
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


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
    head, first, second, medians = proc.stdout.splitlines()
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
