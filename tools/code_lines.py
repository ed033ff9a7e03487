"""Count the code lines of each ``wpscoh`` module.

A code line is a line that is not blank, not a comment and not part of a
module, class or function docstring.  Prints one ``module lines`` row per
module of ``src/wpscoh``, sorted by name, then the total.

Given two package directories, before and after a change, it prints one
``module before after delta`` row per module of either, a module absent
from one side counting 0 there, then the totals.

Usage: python tools/code_lines.py [package directory]
       python tools/code_lines.py BEFORE_PACKAGE AFTER_PACKAGE
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts(package: Path) -> dict:
    """The code lines of each module of package, by module name."""
    return {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        before, after = (counts(Path(arg)) for arg in argv)
        for name in sorted(before.keys() | after.keys()):
            old, new = before.get(name, 0), after.get(name, 0)
            print(f"{name:12} {old:5} {new:5} {new - old:+6}")
        old, new = sum(before.values()), sum(after.values())
        print(f"{'total':12} {old:5} {new:5} {new - old:+6}")
        return 0
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "wpscoh"
    lines = counts(package)
    for name, count in lines.items():
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(lines.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
