"""The one-pass JSON writer against the two-step path it replaced.

``cli.main`` used to copy each document into JSON types with a
recursive ``_json_value`` and then call ``json.dumps(indent=2,
sort_keys=True)``, which runs CPython's pure-Python encoder.  That path
is kept here as the oracle: ``cli._dump_json`` must write the same bytes
on every ``--format json`` argv of the golden tables, on arbitrary
nested JSON values, and must raise ``TypeError`` where it did.  The
oracle converts the column values of a presentation along their
definitional path: the generator column through the (name, units)
pair of each sector, the kernel column through one ``KernelRelation``
per sector, both built by the views' per-sector item reader from
``_shift_units`` and ``_annihilator`` (no column), and the
product-relation holder relation by relation.
The JSON and text views of a graded listing render each distinct group
once; counting tests pin that.  A Chen-Ruan listing, held in units of
1/ell, writes what the same listing built from its Fraction pairs writes.
"""

import argparse
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import ALL_GOLDEN

from wpscoh import cli
from wpscoh.abelian import FgAbGroup, GradedGroups
from wpscoh.algebra import Element
from wpscoh.arith import WeightVector
from wpscoh.chenruan import (
    CrRing,
    GeneratorUnits,
    KernelRelation,
    KernelRelations,
    ProductRelation,
    SectorData,
    _Sectors,
)
from wpscoh.cli import _Products
from wpscoh.verify import CheckResult


def _json_value(x):
    """A document, or any value in it, in JSON types: containers item by
    item, and each library value by its type."""
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, dict):
        return {key: _json_value(value) for key, value in x.items()}
    if isinstance(x, (list, tuple, _Sectors, KernelRelations)):
        # a ring's sector view as the list of its records, and the kernel
        # column as the list of its relations, one per sector
        return [_json_value(value) for value in x]
    if isinstance(x, GeneratorUnits):
        # the generator column as its per-sector (name, units) items
        return [{"name": name, "degree": str(Fraction(units, x.ring.ell))} for name, units in x]
    if isinstance(x, _Products):
        return [_json_value(rel) for rel in x.relations]
    if isinstance(x, (Fraction, Element, KernelRelation)):
        return str(x)
    if isinstance(x, GradedGroups):
        # an int degree as the int, a Fraction degree as p/q, integral ones too
        return [{"degree": str(d) if isinstance(d, Fraction) else d, "group": g.to_json()}
                for d, g in x.items()]
    if isinstance(x, WeightVector):
        return list(x.b)
    if isinstance(x, SectorData):
        return {
            "j": x.j,
            "a": [str(a) for a in x.a],
            "fixed": x.fixed,
            "euler": {"coefficient": x.c, "exponent": x.d},
            "degree_shift": str(x.degree_shift),
        }
    if isinstance(x, ProductRelation):
        return {"i": x.i, "j": x.j, "product": str(x.product)}
    if isinstance(x, CheckResult):
        return {"name": x.name, "passed": x.passed, "detail": x.detail}
    raise TypeError(f"no JSON form for {type(x).__name__}")


def oracle(doc) -> str:
    return json.dumps(_json_value(doc), indent=2, sort_keys=True)


def assert_same_text(got: str, want: str) -> None:
    """Fail with the first differing line; pytest's own diff of two long
    documents can take minutes."""
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        at = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                  min(len(got_lines), len(want_lines)))
        pytest.fail(f"writer differs from the oracle at line {at}: "
                    f"{got_lines[at:at + 1]} != {want_lines[at:at + 1]}")


def _format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


JSON_ARGVS = [argv for argv, _ in ALL_GOLDEN if _format(argv) == "json"]


def _document(argv):
    args = cli._build_parser().parse_args(list(argv))
    return args.func(args)


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=[" ".join(a) for a in JSON_ARGVS])
def test_writer_matches_oracle_on_golden_argv(argv):
    doc = _document(argv)
    assert_same_text(cli._dump_json(doc), oracle(doc))


def test_oracle_covers_every_json_document():
    """The comparison above runs every subcommand that has --format json,
    and chenruan with every non-empty set of section flags, as the parser
    declares them."""
    parser = cli._build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wanted, flag_sets = set(), set()
    for name, sub in subcommands.choices.items():
        (fmt,) = [a for a in sub._actions if a.dest == "format"]
        if "json" in fmt.choices:
            wanted.add(name)
        if name == "chenruan":
            flags = [a.option_strings[0] for a in sub._actions
                     if isinstance(a, argparse._StoreTrueAction)]
            flag_sets = {frozenset(s) for k in range(1, len(flags) + 1)
                         for s in combinations(flags, k)}
    covered = {argv[0] for argv in JSON_ARGVS}
    covered_flags = {frozenset(a for a in argv if a in flags)
                     for argv in JSON_ARGVS if argv[0] == "chenruan"}
    assert len(wanted) == 6 and wanted <= covered, sorted(wanted - covered)
    assert len(flag_sets) == 7 and flag_sets <= covered_flags, flag_sets - covered_flags


# text that json escapes: quotes, backslashes, control characters,
# non-ASCII letters, line separators and a lone surrogate
_AWKWARD = st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "\u2028", "\ud800", "𝔽", ""]
)
_TEXT = st.text() | _AWKWARD
_DIGITS_4000 = st.integers(10**3999, 10**4000 - 1)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | _DIGITS_4000 | _DIGITS_4000.map(lambda n: -n)
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_matches_oracle_on_json_values(value):
    assert_same_text(cli._dump_json(value), oracle(value))


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"": {}}, [(), {"a": []}], ([[{}]],),
    # library values whose arrays are empty: a listing with no degree, a
    # presentation with no product relation, a group with no torsion
    GradedGroups(3, [], []), {"groups": GradedGroups(3, [], [])},
    GradedGroups(Fraction(3), [], [], 3), {"graded": GradedGroups(Fraction(3), [], [], 3)},
    _Products(()), {"mult_table": _Products(())},
    GradedGroups(3, [0], [FgAbGroup(1)]),
    {"graded": GradedGroups(Fraction(3), [0], [FgAbGroup(1)], 3)},
])
def test_empty_containers(value):
    assert cli._dump_json(value) == oracle(value)


@pytest.mark.parametrize("leaf", [object(), 1.5, b"bytes", {1, 2}])
def test_unknown_leaf_raises_type_error(leaf):
    doc = {"ok": True, "value": [1, leaf]}
    with pytest.raises(TypeError):
        oracle(doc)
    with pytest.raises(TypeError):
        cli._dump_json(doc)


@pytest.mark.parametrize("units, ell", [(0, 1), (1, 1), (7, 1), (9, 2), (12, 2), (6, 1)])
def test_graded_groups_degree_forms(units, ell):
    """A listing with an int max_degree writes its degrees as ints; one
    with a Fraction max_degree writes each as p/q, the integral ones too."""
    group = FgAbGroup(1, [2, 4])
    docs = [GradedGroups(Fraction(9), [units], [group], ell)]
    if ell == 1:
        docs.append(GradedGroups(9, [units], [group]))
    for doc in docs:
        assert_same_text(cli._dump_json({"groups": doc}), oracle({"groups": doc}))
        written = json.loads(cli._dump_json(doc))[0]["degree"]
        assert written == (str(Fraction(units, ell)) if doc.rational else units)


def _json_degrees(capsys, argv, key):
    assert cli.main([*argv, "--format", "json"]) == 0
    return [entry["degree"] for entry in json.loads(capsys.readouterr().out)[key]]


@pytest.mark.parametrize("weights, degrees", [("1", ["0"]), ("1,1", ["0", "2"])])
def test_chenruan_degrees_are_strings_when_ell_is_one(capsys, weights, degrees):
    """ell = 1 puts every Chen-Ruan degree at an integer; the listing
    still writes each one as a string."""
    argv = ["chenruan", "--weights", weights, "--presentation"]
    assert _json_degrees(capsys, argv, "graded") == degrees


@pytest.mark.parametrize("argv", [
    ["kawasaki", "--weights", "1,1"],
    ["orbifold", "--weights", "1,2"],
    ["kunneth", "--weights", "1,2", "--weights-b", "1,2", "--max-degree", "9"],
])
def test_integral_listings_write_int_degrees(capsys, argv):
    degrees = _json_degrees(capsys, argv, "groups")
    assert degrees and all(type(d) is int for d in degrees)


@pytest.mark.parametrize("b", [(1,), (1, 1), (2, 2), (1, 2), (5, 7, 9)])
def test_units_listing_writes_as_its_pairs(b):
    """A listing held in units of 1/ell writes, as JSON and as text,
    what the oracle writes from its Fraction pairs, and what the same
    listing held in units of 1/(6 ell) writes."""
    ring = CrRing(b)
    listing = ring.graded_dimensions(40)
    assert listing.ell == ring.ell
    finer = GradedGroups(Fraction(40), [6 * x for x in listing.degrees], listing.groups, 6 * ring.ell)
    assert finer == listing
    assert_same_text(cli._dump_json(listing), cli._dump_json(finer))
    assert_same_text(cli._dump_json(listing), oracle(listing))
    assert cli._listing(listing, "h") == cli._listing(finer, "h")


def _count_group_renders(monkeypatch, capsys, max_degree):
    calls = []
    render = cli._group_json

    def counting(group, newline):
        calls.append(group)
        return render(group, newline)

    monkeypatch.setattr(cli, "_group_json", counting)
    argv = ["chenruan", "--weights", "5,7,9", "--format", "json", "--max-degree", str(max_degree)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return len(calls)


def test_graded_listing_renders_each_group_once(monkeypatch, capsys):
    counts = {}
    for max_degree in (400, 4000):
        counts[max_degree] = _count_group_renders(monkeypatch, capsys, max_degree)
        distinct = {g for _, g in CrRing((5, 7, 9)).graded_dimensions(max_degree).items()}
        assert 0 < counts[max_degree] <= len(distinct)
    assert counts[400] == counts[4000]


def test_text_listing_formats_each_group_once(monkeypatch, capsys):
    calls = []
    name = FgAbGroup.__str__
    monkeypatch.setattr(FgAbGroup, "__str__", lambda g: calls.append(g) or name(g))
    for max_degree in (400, 4000):
        calls.clear()
        argv = ["chenruan", "--weights", "5,7,9", "--max-degree", str(max_degree)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        distinct = {g for _, g in CrRing((5, 7, 9)).graded_dimensions(max_degree).items()}
        assert 0 < len(calls) <= len(distinct)
