"""Which library functions the command line never reaches, pinned.

Every argv of the golden tables, the dispatch edge cases of
``test_cli.py`` and one argv per refusal message run in process under
``sys.setprofile``; a ``wpscoh`` function whose code starts is reached.
The functions that no call reaches must be exactly ``UNREACHED``, each
with the reason it stays in the library.  A new function that no call
reaches fails the test until it gets a caller, moves into ``tests/``
(``tests/oracles.py`` holds the oracles that moved), or is pinned with
a reason.  Class bodies, comprehensions, lambdas and the methods that
``dataclasses`` generates are left out.

``test_tracer_names_resolve`` checks that every name the benchmark's
tracer wraps or calls is still where the tracer looks for it.
"""

import importlib.util
import inspect
import os
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import wpscoh
from wpscoh import cli
from wpscoh.chenruan import CrRing

from test_cli import _DISPATCH_EDGES, _call
from test_golden import ALL_GOLDEN

# one argv per refusal message of test_cli.py; each must exit 2
REFUSALS = [
    ["orbifold", "--weights", "1,x"],  # bad weight
    ["kawasaki", "--weights", "1," + "9" * 5000],  # long weight
    ["eval", "--weights", "1,2", "--ring", "orbifold", "u^^2"],  # bad expression
    ["eval", "--weights", "1,2", "--ring", "kawasaki", "u"],  # foreign symbol
    ["chenruan", "--weights", "19,23,29,31,37"],  # ell above the dense limit
    ["eval", "--weights", "1,1000000000", "--ring", "chenruan", "u"],  # sector index bound
    ["orbifold", "--weights", "1,2", "--max-degree", "4001"],  # degree limit
    ["chenruan", "--weights", "1,99991", "--multtable"],  # product limit
    ["check", "--weights", "1,9973"],  # product limit of check
    ["check", "--weights", "1,3000001"],  # residue limit
]
ARGVS = [list(argv) for argv, _ in ALL_GOLDEN] + _DISPATCH_EDGES + REFUSALS

# why each function that no call reaches stays in the library
PINNED = {
    "perfbench/tracing.py patches or calls it": [
        "abelian.direct_sum_all", "chenruan.CrRing.mult_table", "chenruan._SectorView.__len__",
        "verify.star_associativity_scan", "verify.star_associativity_scan.<locals>.constants",
        "verify.star_associativity_scan.<locals>.one_side",
    ],
    "tests/test_acceptance.py reads it": [
        "algebra.Algebra.zero", "chenruan.CrPresentation.generators", "chenruan.CrRing._record",
        "chenruan.CrRing.equivalent", "chenruan.CrRing.star_generators",
        "chenruan.GeneratorUnits._item", "chenruan.KernelRelation.__str__",
        "chenruan.KernelRelation.render", "chenruan.KernelRelations._item",
        "chenruan.ProductRelation.product", "chenruan.SectorData.__post_init__",
        "chenruan._SectorView.__getitem__", "chenruan._Sectors._item", "cli._fixed_locus_label",
        "orbifold.iso_check",
    ],
    "the JSON oracles read it": ["abelian.FgAbGroup.to_json", "abelian.GradedGroups.to_json"],
    "value semantics or an operator of a public type": [
        "abelian.FgAbGroup.__repr__", "abelian.GradedGroups.__eq__", "abelian.GradedGroups.__repr__",
        "algebra.Algebra.__hash__", "algebra.Algebra.__repr__", "algebra.Element.__hash__",
        "algebra.Element.__repr__", "algebra.Element.__rmul__", "arith.WeightVector.__getitem__",
        "arith.WeightVector.__hash__", "arith.WeightVector.__iter__", "arith.WeightVector.__repr__",
        "chenruan.ProductRelation.__str__", "chenruan._SectorView.__eq__",
        "chenruan._SectorView.__hash__", "orbifold.OrbifoldRing.__str__",
    ],
    "keeps == and repr of the public AST free of recursion": [
        "expr._Inner.__eq__", "expr._Inner.__hash__", "expr._Inner.__repr__",
        "expr._Inner._preorder",
    ],
}
UNREACHED = {name: reason for reason, names in PINNED.items() for name in names}

_NOT_FUNCTIONS = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _defined() -> dict:
    """{(source path, code qualname): "module.qualname"} for every
    function of the package; a class body has no CO_NEWLOCALS flag, and
    dataclass methods are generated, not compiled from the source."""
    out = {}
    for path in sorted(Path(wpscoh.__file__).resolve().parent.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            for const in todo.pop().co_consts:
                if isinstance(const, types.CodeType):
                    todo.append(const)
                    if const.co_name not in _NOT_FUNCTIONS and const.co_flags & inspect.CO_NEWLOCALS:
                        out[(str(path), const.co_qualname)] = f"{path.stem}.{const.co_qualname}"
    return out


def _reached() -> set:
    """(source path, code qualname) of every code object that starts
    during the calls of ARGVS; a refusal that does not exit 2 fails."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cli._build_parser.cache_clear()  # an earlier call may have built it
    sys.setprofile(profile)
    try:
        for argv in ARGVS:
            assert _call(argv)[0] == 2 or argv not in REFUSALS, argv
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_qualname) for code in codes}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_unreached_functions_are_pinned():
    defined = _defined()
    unreached = {defined[key] for key in defined.keys() - _reached()}
    new = sorted(unreached - UNREACHED.keys())
    reached = sorted(UNREACHED.keys() - unreached)
    assert not new and not reached, (
        f"unreached and not pinned (give a caller, move into tests/ or pin): {new}; "
        f"pinned but reached or gone (unpin): {reached}"
    )


def test_tracer_names_resolve():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, cls, attr, *_ in tracing.SPANS + tracing.COUNTS:
        mod = importlib.import_module(f"wpscoh.{module}")
        if cls is None:
            assert hasattr(mod, attr), (module, attr)
        else:
            assert attr in vars(getattr(mod, cls)), (module, cls, attr)
    counts = Counter()  # the sector hook reads CrRing.sectors and twisted_generator_indices
    tracing._count_sectors(counts, (CrRing((1, 2, 2, 3, 3, 3)),), {}, None)
    assert counts == {"chenruan.sectors_built": 6, "chenruan.sectors_nonzero": 4}
