"""The chenruan output written from integers against the Fraction path it
replaced.

``cli`` now writes the sector chart, the generator degrees, the kernel
relations and the product relations from integers: rotation numerators
over ell, degree shifts in units of 1/ell and the Euler data (c_j, d_j).
The path it replaced is kept here verbatim as the oracle: one
``SectorData`` record of ``Fraction`` fields per sector, ``Fraction``
generator degrees, an unreduced element per kernel relation, products
formed as element products, and the text, LaTeX and
``json.dumps(indent=2, sort_keys=True)`` renderings of that document.
``cli.main`` must print the same bytes in every format and every set of
section flags, on the golden argv, on three vectors with hundreds of
sectors, and on drawn weights.  A guard test counts what ``cli.main``
builds per sector, so the fast path cannot fall back unnoticed.
"""

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import ALL_GOLDEN

from wpscoh import cli
from wpscoh.algebra import Element, monomial, u_power
from wpscoh.arith import WeightVector
from wpscoh.chenruan import CrElement, CrRing

FORMATS = ("text", "json", "latex")
FLAGS = ("--sectors", "--presentation", "--multtable")
SECTION_SETS = [()] + [s for k in range(1, 4) for s in combinations(FLAGS, k)]


# -- the document, as the Fraction path built it -------------------------------


@dataclass(frozen=True)
class OldSector:
    j: int
    a: tuple
    fixed: tuple
    c: int
    d: int
    degree_shift: Fraction


@dataclass(frozen=True)
class OldKernelRelation:
    j: int
    coefficient: int
    exponent: int
    element: Element

    def __str__(self):
        variable = self.element.ring._variable(self.j, self.exponent, False)
        return monomial(self.coefficient, variable)


@dataclass(frozen=True)
class OldProductRelation:
    i: int
    j: int
    product: Element

    def __str__(self):
        return f"a{self.i}*a{self.j} = {self.product}"


@dataclass(frozen=True)
class OldGraded:
    max_degree: Fraction
    pairs: list

    def items(self):
        return self.pairs


def old_sector(weights, j):
    ell = weights.ell
    nums = [bk * j % ell for bk in weights.b]
    fixed = tuple(k for k, t in enumerate(nums) if t == 0)
    c = 1
    for k in fixed:
        c *= weights.b[k]
    return OldSector(
        j=j,
        a=tuple(Fraction(t, ell) for t in nums),
        fixed=fixed,
        c=c,
        d=len(fixed),
        degree_shift=Fraction(2 * sum(nums), ell),
    )


def old_document(argv):
    args = cli._build_parser().parse_args(list(argv))
    ring = CrRing(args.weights)
    w, ell = ring.weights, ring.ell
    sections = {s for s in ("sectors", "presentation", "multtable") if getattr(args, s)}
    sections = sections or {"sectors", "presentation"}
    max_degree = args.max_degree if args.max_degree is not None else Fraction(2 * (w.n + 2))
    sectors = [old_sector(w, j) for j in range(ell)]
    twisted = [s.j for s in sectors[1:] if s.d]
    products = tuple(
        OldProductRelation(i, j, ring.generator(i) * ring.generator(j))
        for x, i in enumerate(twisted)
        for j in twisted[x:]
    )
    doc = {"weights": w, "ell": ell}
    if "sectors" in sections:
        doc["sectors"] = sectors
    if "presentation" in sections:
        gens = [("u", Fraction(2))] + [(f"a{s.j}", s.degree_shift) for s in sectors[1:]]
        doc["generators"] = [{"name": name, "degree": deg} for name, deg in gens]
        kernel = tuple(
            OldKernelRelation(s.j, s.c, s.d, CrElement(ring, {s.j: {s.d: s.c}}))
            for s in sectors
        )
        doc["relations"] = {"J": kernel, "I": products}
        if args.format != "latex":
            doc["graded"] = OldGraded(max_degree, ring.graded_dimensions(max_degree).items())
    if "multtable" in sections:
        doc["mult_table"] = products
    return args.format, doc


# -- its three renderings ------------------------------------------------------------


def old_json_value(x):
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, dict):
        return {key: old_json_value(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [old_json_value(value) for value in x]
    if isinstance(x, (Fraction, Element, OldKernelRelation)):
        return str(x)
    if isinstance(x, OldGraded):
        return [{"degree": str(d), "group": g.to_json()} for d, g in x.pairs]
    if isinstance(x, WeightVector):
        return list(x.b)
    if isinstance(x, OldSector):
        return {
            "j": x.j,
            "a": [str(a) for a in x.a],
            "fixed": x.fixed,
            "euler": {"coefficient": x.c, "exponent": x.d},
            "degree_shift": str(x.degree_shift),
        }
    if isinstance(x, OldProductRelation):
        return {"i": x.i, "j": x.j, "product": str(x.product)}
    raise TypeError(type(x).__name__)


def _fr(x, latex=False):
    if latex and x.denominator != 1:
        return r"\frac{%d}{%d}" % (x.numerator, x.denominator)
    return str(x)


_LOCUS_TEXT = ("C^%d", "{0}", "C_(%d)")
_LOCUS_LATEX = (r"\mathbb{C}^{%d}", r"\{0\}", r"\mathbb{C}_{(%d)}")


def _locus(weights, fixed, tokens):
    whole, origin, line = tokens
    if len(fixed) == len(weights):
        return whole % len(weights)
    if not fixed:
        return origin
    counts = Counter(weights.b[k] for k in fixed)
    return "+".join(
        (str(m) if m > 1 else "") + line % w for w, m in sorted(counts.items())
    )


def _sector_rows(doc, latex=False):
    weights, sectors = doc["weights"], doc["sectors"]
    if latex:
        locus = _LOCUS_LATEX
        labels = ("g", r"(\mathbb{C}^{%d})^g" % len(weights),
                  r"2\cdot\mathrm{age}(g)", r"\text{generator}", "e(g)")
        sector, rotation, generator = r"\zeta_{%d}", r"a_{\mathbb{C}_{(%d)}}(g)", r"\alpha_{%d}"
    else:
        locus = _LOCUS_TEXT
        labels = ("sector", "fixed locus", "2*age", "generator", "euler class")
        sector, rotation, generator = "zeta_%d", "a_(%d)", "a%d"
    rows = [
        (labels[0], [sector % s.j for s in sectors]),
        (labels[1], [_locus(weights, s.fixed, locus) for s in sectors]),
    ]
    for w in sorted(set(weights.b)):
        k = weights.b.index(w)
        rows.append((rotation % w, [_fr(s.a[k], latex) for s in sectors]))
    rows.append((labels[2], [_fr(s.degree_shift, latex) for s in sectors]))
    rows.append((labels[3], [generator % s.j for s in sectors]))
    rows.append((labels[4], [monomial(s.c, u_power(s.d, latex)) for s in sectors]))
    return rows


def _table(rows):
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _join(blocks):
    return "\n\n".join(block for block in blocks if block)


def _listing(groups):
    lines = [f"groups by degree (up to {groups.max_degree}):"]
    lines.extend(f"  degree {degree}: {group}" for degree, group in groups.items())
    return lines


def old_text(doc):
    blocks = []
    if "sectors" in doc:
        blocks.append(f"sector data for weights {doc['weights']} (ell = {doc['ell']})")
        blocks.append(_table([[label] + cells for label, cells in _sector_rows(doc)]))
    if "generators" in doc:
        names = [g["name"] for g in doc["generators"]]
        variables = ", ".join(names) if len(names) <= 2 else f"u, a1..{names[-1]}"
        relations = doc["relations"]
        lines = [f"presentation: Z[{variables}] modulo"]
        lines.append("  kernel relations: " + ", ".join(map(str, relations["J"])))
        if relations["I"]:
            lines.append("  product relations:")
            lines.extend(f"    {rel}" for rel in relations["I"])
        lines.append("generator degrees:")
        lines.extend(f"  {g['name']}: degree {g['degree']}" for g in doc["generators"])
        blocks.append("\n".join(lines + _listing(doc["graded"])))
    if "mult_table" in doc:
        lines = ["multiplication table (nonzero twisted generators):"]
        blocks.append("\n".join(lines + [f"  {rel}" for rel in doc["mult_table"]]))
    return _join(blocks)


def _products_latex(relations, op):
    return "\n".join(
        r"\alpha_{%d}%s\alpha_{%d} = %s \\" % (rel.i, op, rel.j, rel.product.render(latex=True))
        for rel in relations
    )


def old_latex(doc):
    blocks = []
    if "sectors" in doc:
        (label, cells), *rows = _sector_rows(doc, latex=True)
        lines = [r"\begin{array}{c||%s}" % "|".join("c" * doc["ell"])]
        lines.append(" & ".join([label] + cells) + r" \\")
        lines.append(r"\hline\hline")
        lines.extend(" & ".join([label] + cells) + r" \\ \hline" for label, cells in rows)
        lines.append(r"\end{array}")
        blocks.append("\n".join(lines))
    if "generators" in doc:
        gens = ", ".join(
            "u" if g["name"] == "u" else r"\alpha_{%s}" % g["name"][1:] for g in doc["generators"]
        )
        rels = ", ".join(rel.element.render(latex=True) for rel in doc["relations"]["J"])
        blocks.append(r"\mathbb{Z}[%s]/(\mathcal{I} + \langle %s \rangle)" % (gens, rels))
        blocks.append(_products_latex(doc["relations"]["I"], ""))
    if "mult_table" in doc:
        blocks.append(_products_latex(doc["mult_table"], r" \star "))
    return _join(blocks)


def oracle_stdout(argv):
    fmt, doc = old_document(argv)
    if fmt == "json":
        out = json.dumps(old_json_value(doc), indent=2, sort_keys=True)
    else:
        out = (old_text if fmt == "text" else old_latex)(doc)
    return out + "\n"


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def assert_same_text(got, want):
    """Fail with the first differing line; pytest's own diff of two long
    documents can take minutes."""
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        at = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                  min(len(got_lines), len(want_lines)))
        pytest.fail(f"cli differs from the oracle at line {at}: "
                    f"{got_lines[at:at + 1]} != {want_lines[at:at + 1]}")


def argvs(weights):
    return [
        ("chenruan", "--weights", weights, "--format", fmt, *sections)
        for fmt in FORMATS
        for sections in SECTION_SETS
    ]


# -- the comparisons ---------------------------------------------------------------

GOLDEN_ARGVS = [argv for argv, _ in ALL_GOLDEN if argv[0] == "chenruan"]


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=[" ".join(a) for a in GOLDEN_ARGVS])
def test_matches_oracle_on_golden_argv(argv):
    assert_same_text(cli_stdout(argv), oracle_stdout(argv))


def test_golden_argv_cover_every_format_and_section_set():
    covered = {
        (argv[argv.index("--format") + 1], frozenset(a for a in argv if a in FLAGS))
        for argv in GOLDEN_ARGVS
    }
    assert covered >= {(fmt, frozenset(s)) for fmt in FORMATS for s in SECTION_SETS}


@pytest.mark.parametrize("weights", ["4,9,14", "7,8,15", "3,5,7,11"])
def test_matches_oracle_on_wide_vectors(weights):
    for argv in argvs(weights):
        assert_same_text(cli_stdout(argv), oracle_stdout(argv))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.sampled_from(FORMATS),
    st.sampled_from(SECTION_SETS),
    st.sampled_from([None, "0", "5/2", "13"]),
)
@example([1], "text", (), None)
@example([1, 1, 1], "json", FLAGS, None)
@example([1, 1], "latex", FLAGS, "3")
@example([3, 3, 6], "json", (), "7/3")
@example([2, 2, 9, 9], "text", ("--sectors",), None)
def test_matches_oracle_on_drawn_weights(weights, fmt, sections, max_degree):
    degree = () if max_degree is None else ("--max-degree", max_degree)
    argv = ("chenruan", "--weights", ",".join(map(str, weights)), "--format", fmt,
            *degree, *sections)
    assert_same_text(cli_stdout(argv), oracle_stdout(argv))


# -- the guard ------------------------------------------------------------------------


@pytest.mark.parametrize("weights", ["4,9,14", "1,1", "2,2,3"])
def test_chenruan_builds_nothing_per_zero_sector(monkeypatch, weights):
    """No format or section set reads a sector through ``CrRing.sector``,
    builds a sector record through ``CrRing._record``, or builds an
    element through ``_from_parts`` or ``_normal``: the product relations
    are written from their integers."""
    calls = Counter()
    for name in ("sector", "_record", "_from_parts", "_normal"):
        original = getattr(CrRing, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(CrRing, name, counting)
    for argv in argvs(weights):
        calls.clear()
        cli_stdout(argv)
        assert calls == Counter(), argv

