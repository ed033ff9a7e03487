import doctest
import importlib
from pathlib import Path

import pytest

import wpscoh
from wpscoh import abelian, arith, chenruan, expr, kawasaki, kunneth, orbifold


@pytest.mark.parametrize(
    "module", [arith, abelian, orbifold, kawasaki, chenruan, kunneth, expr]
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_every_module_with_doctests_is_listed():
    listed = test_module_doctests.pytestmark[0].args[1]
    with_examples = [
        importlib.import_module(f"wpscoh.{path.stem}")
        for path in sorted(Path(wpscoh.__file__).parent.glob("*.py"))
        if ">>>" in path.read_text()
    ]
    assert with_examples
    assert [m for m in with_examples if m not in listed] == []
