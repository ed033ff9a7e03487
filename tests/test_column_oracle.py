"""The dense chenruan output against the per-sector readers.

The sector chart and the presentation read the two indices the maths
has: the numerators on the residues mod p = ell / b of each weight
class (``CrRing._numerators`` on ``range(p)``), repeated b times, and
the nonzero sectors (``CrRing.nonzero``, through ``_annihilator`` and
``cli._locus``); the one column of all ell sectors is the shift units
(``CrRing.shift_column``).  Sparse callers read one sector at a time
(``rotations``, ``_shift_units``, ``_annihilator``, ``_variable``).
The per-sector readers stay as the oracle: on every sector of the
corpus of ``test_verify`` and of random vectors with ell <= 2000, each
cell of the chart in text, LaTeX and JSON equals what its per-sector
reader gives.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_verify import CORPUS

from wpscoh import cli
from wpscoh.chenruan import CrRing, KernelRelation
from wpscoh.cli import main

FORMATS = ("text", "json", "latex")


def assert_chart_matches_per_sector_readers(weights):
    ring = CrRing(weights)
    ell = ring.ell
    doc = {"sectors": ring.sectors}
    for latex, tokens in ((False, cli._LOCUS_TEXT), (True, cli._LOCUS_LATEX)):
        (_, names), (_, loci), *rows = cli._sector_rows(doc, latex)
        assert len(names) == len(loci) == ell
        assert loci == [cli._locus_label(ring, j, tokens) for j in range(ell)]
        rotation_rows, (shifts, generators, euler) = rows[:-3], [cells for _, cells in rows[-3:]]
        for (b, _, coords), (_, cells) in zip(ring.classes, rotation_rows, strict=True):
            for k in coords:
                assert cells == [cli._ratio(ring.rotations(j)[k], ell, latex) for j in range(ell)]
        assert shifts == [cli._ratio(ring._shift_units(j), ell, latex) for j in range(ell)]
        assert generators == ring.generator_names(latex)
        assert euler == [cli._euler_label(*ring._annihilator(j), latex) for j in range(ell)]

    records = json.loads(cli._sectors_json(ring.sectors, "\n"))
    assert [r["j"] for r in records] == list(range(ell))
    for j, record in enumerate(records):
        assert record["a"] == [cli._ratio(t, ell) for t in ring.rotations(j)], (weights, j)
        assert record["degree_shift"] == cli._ratio(ring._shift_units(j), ell)
        c, d = ring._annihilator(j)
        assert record["euler"] == {"coefficient": c, "exponent": d}
        assert record["fixed"] == sorted(k for _, _, ks in cli._locus(ring, j) for k in ks)
    assert ring.shift_column() == tuple(map(ring._shift_units, range(ell))), weights

    pres = ring.presentation()
    for latex in (False, True):
        assert pres.kernel_relations.render(latex) == [
            KernelRelation(j, *ring._annihilator(j), ring).render(latex) for j in range(ell)
        ], weights
    names = ["u"] + [ring._variable(j, 0, True) for j in range(1, ell)]
    assert pres.generator_units.names(latex=True) == names
    assert list(pres.generator_units) == [("u", 2 * ell)] + [
        (f"a{j}", ring._shift_units(j)) for j in range(1, ell)
    ]


def test_chart_matches_per_sector_readers_on_the_corpus():
    for weights in CORPUS:
        assert_chart_matches_per_sector_readers(weights)


@given(st.lists(st.integers(1, 60), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_chart_matches_per_sector_readers(weights):
    ring = CrRing(weights)
    assume(ring.ell <= 2000 and len(ring.nonzero) <= 200)
    assert_chart_matches_per_sector_readers(weights)


def counting_numerators(monkeypatch, calls):
    """Record (bs, js) of each ``CrRing._numerators`` call in calls."""
    numerators = CrRing._numerators

    def counted(ring, bs, js):
        calls.append((bs, js))
        return numerators(ring, bs, js)

    monkeypatch.setattr(CrRing, "_numerators", counted)


def test_the_chart_reads_the_numerator_reader(monkeypatch):
    """The chart prints the numerators through ``CrRing._numerators``,
    the reader that the residue checks of ``check`` read."""

    def unreduced(ring, bs, js):
        return [b * j for b in bs for j in js]

    monkeypatch.setattr(CrRing, "_numerators", unreduced)
    ring = CrRing((2, 3, 5))
    assert cli._rotation_cells(ring)[2] == [cli._ratio(2 * x, 30) for x in range(15)] * 2
    assert ring.rotations(7) == (14, 21, 35)


def test_the_shift_column_is_built_once_per_ring(monkeypatch):
    calls = []
    counting_numerators(monkeypatch, calls)
    ring = CrRing((4, 9, 14))
    for _ in range(2):
        ring.shift_column()
    assert calls == [((b,), range(p)) for b, p, _ in ring.classes]


def test_the_chart_reads_residues_and_nonzero_sectors(capsys, monkeypatch):
    """``chenruan --weights 7,8,15`` (ell = 840) reads numerators only on
    the residues of a weight class, never on all ell sectors, and the
    fixed locus once per nonzero sector, in every format.  The graded
    groups of the presentation read the shift of each nonzero sector."""
    ring = CrRing((7, 8, 15))
    residues = {((b,), range(p)) for b, p, _ in ring.classes}
    singles = {(ring.weights.b, (j,)) for j in ring.nonzero}
    locus = cli._locus
    calls, loci = [], []
    counting_numerators(monkeypatch, calls)
    monkeypatch.setattr(cli, "_locus", lambda ring, j: loci.append(j) or locus(ring, j))
    for fmt in FORMATS:
        for sections, allowed in ((["--sectors"], residues), ([], residues | singles)):
            calls.clear(), loci.clear()
            assert main(["chenruan", "--weights", "7,8,15", "--format", fmt, *sections]) == 0
            assert calls and set(calls) <= allowed, (fmt, sections)
            assert residues <= set(calls), (fmt, sections)
            assert sorted(loci) == list(ring.nonzero), (fmt, sections)
    capsys.readouterr()


@pytest.mark.parametrize("fmt", FORMATS)
def test_euler_cells_and_kernel_relations_read_the_annihilator(capsys, monkeypatch, fmt):
    """The chart's Euler cells and the kernel relations read each nonzero
    sector's Euler class through ``CrRing._annihilator``; a sector that
    fixes nothing has (1, 0) whatever the reader says."""
    weights = (1, 2, 2, 3, 3, 3)
    argv = ["chenruan", "--weights", "1,2,2,3,3,3", "--sectors", "--presentation", "--format", fmt]
    assert main(argv) == 0
    before = capsys.readouterr().out
    original = CrRing._annihilator

    def annihilator(ring, j):
        c, d = original(ring, j)
        return (7 * c, d + 1) if j in ring.nonzero else (c, d)

    monkeypatch.setattr(CrRing, "_annihilator", annihilator)
    assert main(argv) == 0
    out = capsys.readouterr().out
    ring = CrRing(weights)
    ell = ring.ell
    latex = fmt == "latex"
    kernel = [KernelRelation(j, *annihilator(ring, j), ring).render(latex) for j in range(ell)]
    if fmt == "json":
        doc = json.loads(out)
        assert [tuple(s["euler"].values()) for s in doc["sectors"]] == [
            annihilator(ring, j) for j in range(ell)
        ]
        assert doc["relations"]["J"] == kernel
    else:
        lines = out.splitlines()
        if latex:
            row = next(line for line in lines if line.startswith("e(g) & "))
            cells = row.removesuffix(r" \\ \hline").split(" & ")[1:]
            relations = next(line for line in lines if r"\langle" in line)
            assert relations.endswith(r"\langle %s \rangle)" % ", ".join(kernel))
        else:
            cells = next(line for line in lines if line.startswith("euler class")).split()[2:]
            assert "  kernel relations: " + ", ".join(kernel) in lines
        assert cells == [cli._euler_label(*annihilator(ring, j), latex) for j in range(ell)]
    assert out != before


def test_the_shift_column_is_read_only():
    ring = CrRing((7, 8, 15))
    assert isinstance(ring.shift_column(), tuple)
    names = ring.presentation().generator_units.names()
    names[1] = "edited"
    assert ring.presentation().generator_units.names()[1] == "a1"


def test_views_index_like_sequences():
    pres = CrRing((1, 2, 2, 3, 3, 3)).presentation()
    gens, kernel = pres.generator_units, pres.kernel_relations
    assert len(gens) == len(kernel) == 6
    assert gens[0] == ("u", 12) and gens[-1] == ("a5", 44) and gens[1:3] == list(gens)[1:3]
    assert str(kernel[0]) == "108u^6" and [str(r) for r in kernel[-2:]] == ["27u^3a4", "a5"]
    assert list(kernel) == kernel[:]


def test_views_compare_and_hash_as_tuples():
    ring = CrRing((1, 2, 2, 3, 3, 3))
    for view in ("generator_units", "kernel_relations"):
        first, second = (getattr(ring.presentation(), view) for _ in range(2))
        items = tuple(first)
        assert first == second and first == items and items == first and hash(first) == hash(items)
        assert first != list(items) and first != items[:-1] and first != items[:-1] + items[:1]
    same, other = (CrRing(w).presentation() for w in ((1, 2, 2, 3, 3, 3), (1, 1, 2, 3, 3, 3)))
    assert ring.presentation().kernel_relations == same.kernel_relations != other.kernel_relations
    assert ring.sectors == tuple(ring.sectors) != CrRing((1, 2)).sectors


def test_indexing_the_views_builds_no_column(monkeypatch):
    """A presentation may have millions of sectors and few products; an
    item of its views is read off the per-sector readers."""
    ring = CrRing((19, 23, 29, 31, 37))
    pres = ring.presentation()
    monkeypatch.setattr(CrRing, "shift_column", lambda ring: 1 / 0)
    monkeypatch.setattr(CrRing, "generator_names", lambda ring, latex=False: 1 / 0)
    j = ring.ell // 19
    assert pres.generator_units[j] == (f"a{j}", ring._shift_units(j))
    assert ring._annihilator(j) == (19, 1) and str(pres.kernel_relations[j]) == f"19ua{j}"
    assert len(pres.generator_units) == len(pres.kernel_relations) == ring.ell
