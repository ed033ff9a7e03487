"""The README's examples, run as written, so they cannot drift from the code.

Each ``wpscoh ...`` line of the command block goes through ``cli.main``
and must exit 0.  The library example runs as a script, and each line
it prints must be the value that its trailing comment names.  Every
dotted name ``wpscoh.<module>.<NAME>`` that the README quotes must
resolve, and every module-level limit (``MAX_*`` or ``*_LIMIT``) must be
quoted so.  Every quoted ``Class.attr`` or ``module.name`` of the
package, in the README or in a module docstring, must resolve too.
"""

import ast
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

import wpscoh
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


def test_every_dotted_name_resolves():
    names = re.findall(r"`wpscoh\.(\w+)\.(\w+)`", README)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"wpscoh.{module}"), name), (module, name)


PACKAGE = Path(wpscoh.__file__).parent
MODULES = {
    path.stem: importlib.import_module(f"wpscoh.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "__main__"
}
# the package's modules and every name defined or imported in one
NAMES = {name: x for module in MODULES.values() for name, x in vars(module).items()} | MODULES
DOCS = {"README.md": README} | {
    f"{stem}.py": ast.get_docstring(ast.parse((PACKAGE / f"{stem}.py").read_text())) or ""
    for stem in MODULES
}
# quoted dotted names that are not the package's: a standard module's
# name, or a key path of a chenruan document
FOREIGN = {"fractions", "relations"}


def _quoted_references():
    """(where, dotted name) for each dotted name quoted in backticks."""
    return [
        (where, ref)
        for where, text in DOCS.items()
        for ref in re.findall(r"`+([A-Za-z_]\w*(?:\.\w+)+)(?:\(\))?`+", text)
    ]


def test_every_quoted_class_attr_or_module_name_resolves():
    resolved = 0
    for where, ref in _quoted_references():
        head, *rest = ref.removeprefix("wpscoh.").split(".")
        if head in FOREIGN:
            continue
        assert head in NAMES, (where, ref)
        obj = NAMES[head]
        for attr in rest:
            assert hasattr(obj, attr), (where, ref)
            obj = getattr(obj, attr)
        resolved += 1
    assert resolved >= 40


def test_every_limit_is_named_by_its_module():
    package = Path(wpscoh.__file__).parent
    limits = [
        f"wpscoh.{path.stem}.{target.id}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"MAX_\w+|\w+_LIMIT", target.id)
    ]
    assert limits
    for name in limits:
        assert f"`{name}`" in README, name
