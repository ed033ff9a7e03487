"""``tools/code_lines.py``, the count that the code-line figures quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a whole-line comment


def f(x):
    """A function docstring."""

    total = (
        x
        + len(os.sep)
    )
    return total


class C:
    """A class docstring,
    over two lines.
    """

    y = "a string that is no docstring"
'''


def test_counts_code_lines_only():
    # import, def, the four lines of the assignment, return, class, y
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines("") == 0


def test_main_prints_a_row_per_module_and_their_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\ny = [\n    x,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "4"], ["b", "9"], ["total", "13"]]


def test_main_totals_the_package(capsys):
    assert code_lines.main([]) == 0
    *rows, (name, total) = [line.split() for line in capsys.readouterr().out.splitlines()]
    package = TOOL.parent.parent / "src" / "wpscoh"
    assert [row[0] for row in rows] == sorted(path.stem for path in package.glob("*.py"))
    assert name == "total" and int(total) == sum(int(count) for _, count in rows)
