"""``tools/ab_compare.py`` on the smoke corpora."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_compare.py"
SUBCOMMANDS = {"kawasaki", "orbifold", "chenruan", "kunneth", "check",
               "eval:kawasaki", "eval:orbifold", "eval:chenruan"}

_spec = importlib.util.spec_from_file_location("ab_compare", TOOL)
ab_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_compare)


def run_tool(base, change, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(base), str(change), "--smoke", "--passes", "1", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_repo_against_itself():
    proc = run_tool(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    heads = [line for line in proc.stdout.splitlines() if not line.startswith(" ")]
    assert [line.split(":")[0] for line in heads] == ["cli_small", "sectors_wide", "groups_deep"]
    assert all(line.endswith("outputs byte-identical") for line in heads)
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "per-op latency ratio"):
        assert proc.stdout.count(name) >= 3, name
    # one row per subcommand of each workload, eval by ring: the median
    # ratio, its quartiles and the number of operations behind them
    tables = [[line.split() for line in block.splitlines() if line.startswith("    ")]
              for block in proc.stdout.split(f"  {ab_compare.PER_COMMAND}\n")[1:]]
    names = [{row[0] for row in table} for table in tables]
    assert len(tables) == 3 and {"kunneth", "chenruan"} <= names[2]
    assert all(name in SUBCOMMANDS for line in names for name in line), names
    assert any(name.startswith("eval:") for name in names[0])
    for head, table in zip(heads, tables):
        for name, median, spread, ops in table:
            low, high = map(float, spread.split("-"))
            assert 0 < low <= float(median) <= high, (name, median, spread)
            assert int(ops) >= 1
        # the subcommands' op counts add up to the workload's
        assert sum(int(row[3]) for row in table) == int(head.split()[1])


@pytest.mark.parametrize("argv, name", [
    (["eval", "--weights", "1,2", "--ring", "orbifold", "u"], "eval:orbifold"),
    (["eval", "--ring", "chenruan", "--weights", "1,2", "u"], "eval:chenruan"),
    (["kunneth", "--weights", "1", "--weights-b", "2"], "kunneth"),
])
def test_subcommand_names_eval_by_ring(argv, name):
    assert ab_compare.subcommand(argv) == name


def test_a_changed_output_fails(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wpscoh" / "cli.py"
    source = cli.read_text()
    assert source.count('f"{doc[\'value\']}\\ndegree: ') == 1
    cli.write_text(source.replace('f"{doc[\'value\']}\\ndegree: ', 'f"{doc[\'value\']}\\ndeg: '))
    proc = run_tool(ROOT, tmp_path, "--workload", "cli_small")
    assert proc.returncode == 1
    assert proc.stdout.startswith("cli_small: the two sides differ on eval ")


def test_a_crash_on_one_side_is_a_difference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "wpscoh" / "cli.py"
    cli.write_text(cli.read_text() + (
        "\n\n_main = main\n\n\ndef main(argv=None):\n"
        "    if argv and argv[0] == 'eval':\n        raise RuntimeError('broken')\n"
        "    return _main(argv)\n"
    ))
    proc = run_tool(ROOT, tmp_path, "--workload", "cli_small")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("cli_small: the two sides differ on eval ")


def test_quartiles_stay_within_the_ratios():
    assert ab_compare.quartiles([0.9]) == (0.9, 0.9, 0.9)
    assert ab_compare.quartiles([0.5, 3.0]) == (1.125, 1.75, 2.375)
    assert ab_compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
