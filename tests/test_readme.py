"""The README's examples, run as written, so they cannot drift from the code.

Each ``wpscoh ...`` line of the command block goes through ``cli.main``
and must exit 0.  The library example runs as a script, and each line
it prints must be the value that its trailing comment names.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from wpscoh.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of a language after a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("wpscoh ")
]


def test_the_command_block_is_found():
    assert len(COMMANDS) == 8
    assert {argv[1] for argv in COMMANDS} == {
        "chenruan", "kawasaki", "orbifold", "kunneth", "eval", "check",
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_example_runs(capsys, argv):
    assert main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_library_example_prints_its_comments():
    code = _block("Library example", "python")
    # the value a comment names is its text up to the first comma or blank
    expected = re.findall(r"^print\(.*\)\s*#\s*([^,\s]+)", code, re.M)
    assert expected == ["4u^2a4", "14/3", "6u"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
