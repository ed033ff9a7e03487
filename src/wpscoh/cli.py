"""Command-line front end.

Subcommands: kawasaki, orbifold, chenruan, kunneth, eval, check.  All
take --weights (comma-separated positive integers) and --format
(text, json or latex); results go to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 failed invariant checks, 2 usage or parse
errors.

Each subcommand builds one document: a dict of JSON scalars, lists and
library values (elements, graded groups, a ring's sector view,
relations, check results, weight vectors).  ``--format json`` prints
that document in one walk: ``_json`` writes byte for byte what
``json.dumps(indent=2, sort_keys=True)`` writes for the document in
JSON types.  It writes scalars, dicts, lists and tuples itself, with no
special case for any list, and every library value through the writer
that ``_WRITERS`` holds for its type; a value of any other type raises
``TypeError``.  Every array, of a list or of a library value, is written
by ``_array`` from its item texts, which also writes the empty ``[]``.
Every graded listing, the Chen-Ruan one included, is a ``GradedGroups``
written by ``_write_listing``: each degree in the form that
``abelian.degree_json`` gives it (an int as a number, a Fraction as
its string ``str(d)``), and each distinct group rendered once through
``_rendered``, as the text listings (``_listing``) format it once.
The Chen-Ruan listing holds its degrees in units of 1/ell, and
``_degrees`` formats each from the integer (``_ratio``), with no
``Fraction``.  A group is written from its runs of equal orders
(``FgAbGroup.runs``), each order formatted once: a Kunneth group at
degree D holds about D/2 copies of Z/g.

The ell-sized parts of ``chenruan`` (the sector chart, the generator
degrees and the kernel relations) are written after ``_require_dense``
from what the maths indexes.  A weight class's rotation cells are its
numerators on the residues mod p = ell / b, formatted once and repeated
b times (``_rotation_cells``).  The Euler-class cells, the fixed
coordinates and loci and the kernel texts start from the zero-sector
value and are overwritten only at ``CrRing.nonzero``, read through
``CrRing._annihilator`` and ``_locus`` (``_nonzero_cells``).  The shifts
and generator degrees read ``CrRing.shift_column``, in units of 1/ell,
each distinct value formatted once.  The document holds the ring's
``sectors`` view and the presentation's ``GeneratorUnits`` and
``KernelRelations`` views, and no ``SectorData`` record, generator
dict, ``KernelRelation``, rotation tuple, ``Fraction`` or element is
built per sector.  The product relations sit in one ``_Products``
holder under both ``relations.I`` and ``mult_table``, and each relation
renders its integer monomial once per call, whatever sections are
shown.

Text and LaTeX are views of the document: one renderer per subcommand
and format, named beside its handler in the parser, each reading only
the document.  LaTeX leaves out the graded groups, the group listings
and the torsion witness, so a LaTeX document does not compute them.
``main`` is the only place that prints a result or picks the exit code.

``main`` builds its argument parser on its first call and reuses it for
every later call in the process, so an in-process caller builds it
once.  Each call is parsed by its subcommand's own parser (``_parse``),
with no pass of the top-level parser; an argv that does not start with
a subcommand's name goes through the top-level parser, so every usage
and help message, and every exit code, is argparse's own.

Inputs whose output or work would grow without bound exit 2 with a
one-line message.  ``cli`` holds the limits of its own input and
output: more than ``MAX_WEIGHTS`` weights in one vector, a
``--max-degree`` above ``MAX_DEGREE_LIMIT``, and a sector chart,
presentation or ``check`` for ell above ``chenruan.DENSE_SECTOR_LIMIT``.
The chart and the presentation list all ell sectors; ``check`` reads
only the residues mod ell / b and the nonzero pairs but keeps the same
rule on ell, and the message names that rule and ell.  The work it
calls refuses itself: a sector ring for ``chenruan`` or ``eval`` that would index more
than ``chenruan.DENSE_SECTOR_LIMIT`` nonzero sectors (``CrRing``), a
presentation, multiplication table or ``check`` with more than
``chenruan.PRODUCT_SECTOR_LIMIT`` nonzero twisted sectors
(``CrRing.presentation``, ``verify.run_checks``), and an ``eval``
product of more than ``algebra.MAX_PRODUCT_PAIRS`` monomial pairs.  So
each call builds its sector table once, and the refusals come in that
order: dense, index, products, then ``--max-degree``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import chenruan
from .abelian import GradedGroups, degree_json
from .algebra import monomial, u_power
from .arith import WeightVector
from .chenruan import CrElement, CrRing, GeneratorUnits, KernelRelations, _Sectors
from .expr import EvalError, ParseError, evaluate, parse
from .kawasaki import KawasakiElement, KawasakiRing
from .kunneth import product_groups
from .orbifold import OrbifoldElement, OrbifoldRing
from .verify import CheckResult, run_checks

# More weights than this in one vector are refused.  The coarse ring of
# n + 1 weights lists n(n+1)/2 products and check compares (n+1)^3
# triples of its structure constants; at this limit check takes about
# 0.3 s and every default --max-degree 2(n+2) stays at most 256.
MAX_WEIGHTS = 64

# --max-degree above this is refused: every subcommand that takes it
# lists each degree up to it, and kunneth's listing grows with its square.
MAX_DEGREE_LIMIT = 4000


def _require_dense(weights: WeightVector, what: str) -> None:
    """Refuse what (the sector chart or presentation, or check) for ell
    above ``chenruan.DENSE_SECTOR_LIMIT``: the rule is on ell, whatever
    the query reads.  The message names the sparse queries whose own
    limits the weights pass: eval needs the sector ring's index bound,
    chenruan --multtable its product limit too."""
    limit = chenruan.DENSE_SECTOR_LIMIT
    if weights.ell > limit:
        sparse = ""
        with contextlib.suppress(ValueError):
            ring = CrRing(weights)
            sparse = "; eval still works"
            ring._require_products("")
            sparse = "; chenruan --multtable and eval still work"
        raise ValueError(
            f"{what} needs ell within the limit of {limit}, got ell = {weights.ell}{sparse}"
        )


def _weights_arg(text: str) -> WeightVector:
    parts = text.split(",")
    if len(parts) > MAX_WEIGHTS:
        raise argparse.ArgumentTypeError(
            f"{len(parts)} weights, more than the limit of {MAX_WEIGHTS}"
        )
    values = []
    try:
        for part in parts:
            values.append(int(part))
        return WeightVector(values)
    except ValueError as exc:
        if len(values) == len(parts):  # every entry parsed, and one is below 1
            part = next(p for p, x in zip(parts, values) if x < 1)
        reason = f"bad weight {_shown(part, exc)}" if len(part) > 60 else exc
        raise argparse.ArgumentTypeError(
            f"weights must be comma-separated positive integers: {reason}"
        ) from None


def _shown(text: str, exc: Exception) -> str:
    """``'text': reason`` for an error message.  A text over 60
    characters is quoted by its first 20 characters and its length
    instead, and the reason is cut where it would repeat the text (at a
    colon or ``, got``) or give int()'s advice on a long digit run."""
    if len(text) <= 60:
        return f"{text!r}: {exc}"
    reason = str(exc).partition(":")[0].partition(", got")[0].partition(" for integer")[0]
    return f"{text[:20]!r}... of {len(text)} characters: {reason}"


def _degree_arg(text: str) -> Fraction:
    try:
        # Fraction computes 10**exp for an exponent form: refuse long ones first
        if sum(ch.isdecimal() for ch in text.lower().partition("e")[2]) > 3:
            raise ValueError("exponent has more than three digits")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad degree {_shown(text, exc)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("max degree must be >= 0")
    return value


def _ratio(p: int, q: int, latex: bool = False) -> str:
    """p/q in lowest terms as ``str(Fraction(p, q))`` writes it, or
    \\frac{p}{q} in LaTeX; integers plain."""
    g = math.gcd(p, q)
    if g == q:
        return str(p // g)
    return (r"\frac{%d}{%d}" if latex else "%d/%d") % (p // g, q // g)


def _max_degree(args, n: int) -> Fraction:
    """--max-degree if given (0 included), else 2(n+2) for dimension n."""
    if args.max_degree is None:
        return Fraction(2 * (n + 2))
    if args.max_degree > MAX_DEGREE_LIMIT:
        raise ValueError(
            f"--max-degree {args.max_degree} is above the limit of {MAX_DEGREE_LIMIT}"
        )
    return args.max_degree


def _integral_max_degree(args, n: int) -> int:
    """--max-degree for the subcommands whose groups sit in integral degrees."""
    value = _max_degree(args, n)
    if value.denominator != 1:
        raise ValueError(f"{args.command} needs an integral --max-degree, got {value}")
    return int(value)


# -- document values and their JSON form ------------------------------------------


class _Products:
    """The product relations of a presentation, held once under both
    relations.I and mult_table; each relation renders its monomial once
    per notation, however many sections show it."""

    __slots__ = ("relations", "_texts")

    def __init__(self, relations):
        self.relations = relations
        self._texts = {}

    def texts(self, latex: bool = False) -> list[str]:
        """Each relation's product, as ``ProductRelation.render`` writes it."""
        texts = self._texts.get(latex)
        if texts is None:
            texts = self._texts[latex] = [rel.render(latex) for rel in self.relations]
        return texts

    def lines(self) -> list[str]:
        """``a_i*a_j = product`` per relation, as ``str`` writes one."""
        return [f"a{rel.i}*a{rel.j} = {text}" for rel, text in zip(self.relations, self.texts())]


def _dump_json(doc) -> str:
    """What ``json.dumps(indent=2, sort_keys=True)`` writes for doc with
    each library value replaced by its JSON form, without building that
    copy."""
    return _json(doc, "\n")


def _json(x, newline: str) -> str:
    """The JSON text of x: a JSON scalar, a dict, list or tuple of such
    values, or a library value that ``_WRITERS`` has a writer for.
    newline is a line break followed by the indent of the line x starts
    on."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = newline + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [f"{_quote(key)}: {_json(x[key], inner)}" for key in sorted(x)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(x, (list, tuple)):
        return _array([_json(item, inner) for item in x], newline)
    writer = _WRITERS.get(type(x))
    if writer is None:
        raise TypeError(f"no JSON form for {type(x).__name__}")
    return writer(x, newline)


def _array(items, newline: str) -> str:
    """The JSON text of an array of the given item texts: ``[]`` when
    there are none, else one item per line, two spaces in from newline.
    An item text is never empty, so an empty join means no items."""
    inner = newline + "  "
    body = ("," + inner).join(items)
    return f"[{inner}{body}{newline}]" if body else "[]"


def _rendered(groups: GradedGroups, render) -> list:
    """render(group) for each listed group, computed once per group
    object: the change-point sweep and OrbifoldRing.groups share a few
    group objects across many degrees."""
    texts = {}  # by id: the listing holds each group for the call; no text is empty
    return [texts.get(id(group)) or texts.setdefault(id(group), render(group))
            for group in groups.columns()[1]]


def _degrees(groups: GradedGroups, json: bool = False) -> list[str]:
    """Each listed degree's text, or its JSON text.  A degree in units
    of 1/ell is formatted from the integer, x/ell in lowest terms (a
    JSON string); any other is ``str(d)``, which is also the JSON text
    of an int, or ``degree_json(d)`` in JSON when the listing holds a
    degree of another type."""
    degrees, _ = groups.columns()
    if groups.ell is not None:
        texts = [_ratio(x, groups.ell) for x in degrees]
        return [f'"{text}"' for text in texts] if json else texts
    if json and not set(map(type, degrees)) <= {int}:
        return [_json(degree_json(d), "") for d in degrees]
    return list(map(str, degrees))


def _write_listing(groups: GradedGroups, newline: str) -> str:
    """The JSON text of ``groups.to_json()``: each degree in the form
    ``degree_json`` gives it, each distinct group rendered once."""
    entry = newline + "  "
    field = entry + "  "
    head, middle, tail = "{" + field + '"degree": ', "," + field + '"group": ', entry + "}"
    texts = _rendered(groups, lambda group: _group_json(group, field))
    return _array([f"{head}{degree}{middle}{text}{tail}"
                   for degree, text in zip(_degrees(groups, json=True), texts)], newline)


def _ratios(column, ell: int, latex: bool = False) -> list[str]:
    """``_ratio(x, ell, latex)`` for each entry x of column, formatted
    once per distinct value."""
    texts = {x: _ratio(x, ell, latex) for x in set(column)}
    return list(map(texts.__getitem__, column))


def _rotation_cells(ring: CrRing, latex: bool = False) -> dict:
    """Per weight b of ``ring.classes``, the rotation cells of all ell
    sectors: the numerators on the residues mod p = ell / b, each
    formatted once, repeated b times."""
    return {
        b: [_ratio(t, ring.ell, latex) for t in ring._numerators((b,), range(p))] * b
        for b, p, _ in ring.classes
    }


def _nonzero_cells(ring: CrRing, zero: str, form) -> list[str]:
    """form(j) for each nonzero sector j, and the zero-sector cell zero
    for every other sector."""
    cells = [zero] * ring.ell
    for j in ring.nonzero:
        cells[j] = form(j)
    return cells


def _sectors_json(sectors: _Sectors, newline: str) -> str:
    """The JSON text of the sector records of a ring, written from the
    numerators on the residues, the shift column and the nonzero
    sectors."""
    ring = sectors.ring
    ell = ring.ell
    inner = newline + "  "
    field = inner + "  "
    item = field + "  "

    def euler(c, d):
        return f'{{{item}"coefficient": {c},{item}"exponent": {d}{field}}}'

    def fixed(j):
        # sorted across the weight classes, as the coordinates are numbered
        return _array(map(str, sorted(k for _, _, ks in _locus(ring, j) for k in ks)), field)

    cells = _rotation_cells(ring)
    # per sector, the cells of its coordinates, in coordinate order
    rotations = map(f'",{item}"'.join, zip(*[cells[b] for b in ring.weights.b]))
    columns = zip(rotations, _ratios(ring.shift_column(), ell),
                  _nonzero_cells(ring, euler(1, 0), lambda j: euler(*ring._annihilator(j))),
                  _nonzero_cells(ring, _array((), field), fixed))
    texts = [
        f'{{{field}"a": [{item}"{a}"{field}],{field}"degree_shift": "{shift}",{field}"euler": {e},'
        f'{field}"fixed": {f},{field}"j": {j}{inner}}}'
        for j, (a, shift, e, f) in enumerate(columns)
    ]
    return _array(texts, newline)


def _group_json(group, newline: str) -> str:
    """The JSON text of ``group.to_json()``, written from its fields:
    each run of equal orders is joined once, and ``_array`` joins the
    runs with the same separator."""
    inner = newline + "  "
    sep = "," + inner + "  "
    torsion = _array([sep.join([str(d)] * k) for d, k in group.runs()], inner)
    return f'{{{inner}"free_rank": {group.free_rank},{inner}"torsion": {torsion}{newline}}}'


def _products_json(products: "_Products", newline: str) -> str:
    """The JSON text of [{"i": ..., "j": ..., "product": ...}, ...]."""
    inner = newline + "  "
    field = inner + "  "
    return _array([
        f'{{{field}"i": {rel.i},{field}"j": {rel.j},{field}"product": {_quote(text)}{inner}}}'
        for rel, text in zip(products.relations, products.texts())
    ], newline)


def _generators_json(generators: GeneratorUnits, newline: str) -> str:
    """The JSON text of [{"degree": ..., "name": ...}, ...]."""
    inner = newline + "  "
    field = inner + "  "
    degrees = _ratios(generators.units(), generators.ring.ell)
    return _array([
        f'{{{field}"degree": "{degree}",{field}"name": "{name}"{inner}}}'
        for name, degree in zip(generators.names(), degrees)
    ], newline)


def _quoted(x, newline: str) -> str:
    return _quote(str(x))


# The JSON form of each library value a document holds, by exact type.
_WRITERS = {
    CrElement: _quoted,
    KawasakiElement: _quoted,
    OrbifoldElement: _quoted,
    GeneratorUnits: _generators_json,
    KernelRelations: lambda rels, newline: _array(map(_quote, rels.render()), newline),
    _Products: _products_json,
    _Sectors: _sectors_json,
    WeightVector: lambda w, newline: _json(w.b, newline),
    CheckResult: lambda r, newline: _json(
        {"name": r.name, "passed": r.passed, "detail": r.detail}, newline
    ),
    GradedGroups: _write_listing,
}


# -- shared pieces of the views -------------------------------------------------


def _join(blocks) -> str:
    """Blocks separated by a blank line; empty blocks are left out."""
    return "\n\n".join(block for block in blocks if block)


def _listing(groups: GradedGroups, header: str) -> list:
    """header, then a "degree d: group" line per entry of a GradedGroups,
    each distinct group formatted once."""
    names = _rendered(groups, str)
    return [header] + [f"  degree {degree}: {name}" for degree, name in zip(_degrees(groups), names)]


def _table(rows) -> str:
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows)


# -- sector table -----------------------------------------------------------


# the whole space, the origin and one weight's line, in each notation
_LOCUS_TEXT = ("C^%d", "{0}", "C_(%d)")
_LOCUS_LATEX = (r"\mathbb{C}^{%d}", r"\{0\}", r"\mathbb{C}_{(%d)}")


def _locus(ring: CrRing, j: int) -> list:
    """The fixed locus of sector j, as the rows (b, p, coordinates) of
    ``ring.classes`` whose p divides j."""
    return [row for row in ring.classes if not j % row[1]]


def _locus_label(ring: CrRing, j: int, tokens) -> str:
    """The fixed locus of sector j in a notation's tokens: the whole
    space, the origin, or a sum of weight lines."""
    whole, origin, line = tokens
    rows = _locus(ring, j)
    d = sum(len(coords) for _, _, coords in rows)
    if d == len(ring.weights):
        return whole % d
    if not d:
        return origin
    return "+".join((str(len(ks)) if len(ks) > 1 else "") + line % b for b, _, ks in rows)


def _fixed_locus_label(ring: CrRing, j: int) -> str:
    """The fixed locus of sector j, e.g. ``C^3``, ``{0}`` or ``2C_(2)+C_(3)``."""
    return _locus_label(ring, j, _LOCUS_TEXT)


def _euler_label(c: int, d: int, latex: bool = False) -> str:
    """The Euler class c u^d, e.g. ``108u^6``, printed as an element's monomial."""
    return monomial(c, u_power(d, latex))


def _sector_rows(doc, latex: bool = False):
    """(label, per-sector cells) rows of the sector chart: the rotation
    cells from the numerators on the residues, the shifts from the
    shift column, and the loci and Euler classes of the nonzero
    sectors over those of a zero sector."""
    ring = doc["sectors"].ring
    ell = ring.ell
    if latex:
        locus = _LOCUS_LATEX
        labels = ("g", r"(\mathbb{C}^{%d})^g" % len(ring.weights),
                  r"2\cdot\mathrm{age}(g)", r"\text{generator}", "e(g)")
        sector, rotation = r"\zeta_{%d}", r"a_{\mathbb{C}_{(%d)}}(g)"
    else:
        locus = _LOCUS_TEXT
        labels = ("sector", "fixed locus", "2*age", "generator", "euler class")
        sector, rotation = "zeta_%d", "a_(%d)"
    loci = _nonzero_cells(ring, locus[1], lambda j: _locus_label(ring, j, locus))
    rows = [(labels[0], [sector % j for j in range(ell)]), (labels[1], loci)]
    rows += [(rotation % b, cells) for b, cells in _rotation_cells(ring, latex).items()]
    rows.append((labels[2], _ratios(ring.shift_column(), ell, latex)))
    rows.append((labels[3], ring.generator_names(latex)))
    euler = _nonzero_cells(ring, "1", lambda j: _euler_label(*ring._annihilator(j), latex))
    return rows + [(labels[4], euler)]


def _sector_table_latex(doc) -> str:
    (label, cells), *rows = _sector_rows(doc, latex=True)
    lines = [r"\begin{array}{c||%s}" % "|".join("c" * doc["ell"])]
    lines.append(" & ".join([label] + cells) + r" \\")
    lines.append(r"\hline\hline")
    lines.extend(" & ".join([label] + cells) + r" \\ \hline" for label, cells in rows)
    lines.append(r"\end{array}")
    return "\n".join(lines)


# -- chenruan ----------------------------------------------------------------


def _cmd_chenruan(args) -> dict:
    sections = {s for s in ("sectors", "presentation", "multtable") if getattr(args, s)}
    sections = sections or {"sectors", "presentation"}
    if sections & {"sectors", "presentation"}:
        _require_dense(args.weights, "the sector chart or presentation")
    ring = CrRing(args.weights)
    # the product relations are the multiplication table; the presentation
    # refuses too many products before --max-degree is read
    pres = ring.presentation() if sections & {"presentation", "multtable"} else None
    products = pres and _Products(pres.product_relations)
    max_degree = _max_degree(args, ring.weights.n)

    doc = {"weights": ring.weights, "ell": ring.ell}
    if "sectors" in sections:
        doc["sectors"] = ring.sectors
    if "presentation" in sections:
        doc["generators"] = pres.generator_units
        doc["relations"] = {"J": pres.kernel_relations, "I": products}
        if args.format != "latex":
            doc["graded"] = ring.graded_dimensions(max_degree)
    if "multtable" in sections:
        doc["mult_table"] = products
    return doc


def _chenruan_text(doc) -> str:
    blocks = []
    if "sectors" in doc:
        blocks.append(f"sector data for weights {doc['weights']} (ell = {doc['ell']})")
        blocks.append(_table([[label] + cells for label, cells in _sector_rows(doc)]))
    if "generators" in doc:
        generators = doc["generators"]
        names = generators.names()
        variables = ", ".join(names) if len(names) <= 2 else f"u, a1..{names[-1]}"
        relations = doc["relations"]
        lines = [f"presentation: Z[{variables}] modulo"]
        lines.append("  kernel relations: " + ", ".join(relations["J"].render()))
        if relations["I"].relations:
            lines.append("  product relations:")
            lines.extend(f"    {line}" for line in relations["I"].lines())
        lines.append("generator degrees:")
        degrees = _ratios(generators.units(), doc["ell"])
        lines.extend(f"  {name}: degree {degree}" for name, degree in zip(names, degrees))
        lines += _listing(doc["graded"], f"groups by degree (up to {doc['graded'].max_degree}):")
        blocks.append("\n".join(lines))
    if "mult_table" in doc:
        lines = ["multiplication table (nonzero twisted generators):"]
        blocks.append("\n".join(lines + [f"  {line}" for line in doc["mult_table"].lines()]))
    return _join(blocks)


def _products_latex(products: _Products, op: str) -> str:
    return "\n".join(
        r"\alpha_{%d}%s\alpha_{%d} = %s \\" % (rel.i, op, rel.j, text)
        for rel, text in zip(products.relations, products.texts(latex=True))
    )


def _chenruan_latex(doc) -> str:
    blocks = []
    if "sectors" in doc:
        blocks.append(_sector_table_latex(doc))
    if "generators" in doc:
        gens = ", ".join(doc["generators"].names(latex=True))
        rels = ", ".join(doc["relations"]["J"].render(latex=True))
        blocks.append(r"\mathbb{Z}[%s]/(\mathcal{I} + \langle %s \rangle)" % (gens, rels))
        blocks.append(_products_latex(doc["relations"]["I"], ""))
    if "mult_table" in doc:
        blocks.append(_products_latex(doc["mult_table"], r" \star "))
    return _join(blocks)


# -- kawasaki -------------------------------------------------------------------


def _cmd_kawasaki(args) -> dict:
    ring = KawasakiRing(args.weights)
    max_degree = _integral_max_degree(args, ring.weights.n)
    pres = ring.presentation()
    doc = {
        "weights": ring.weights,
        "ell": ring.ell_table,
        "generators": [{"name": name, "degree": deg} for name, deg in pres.generators],
        "relations": [{"i": k, "j": m, "product": prod} for k, m, prod in pres.relations],
        "g1_power_spans": pres.g1_power_spans,
    }
    if args.format != "latex":
        doc["groups"] = ring.groups(max_degree)
    return doc


def _kawasaki_text(doc) -> str:
    lines = [f"coarse-space cohomology ring for weights {doc['weights']}"]
    lines.append("ell table: " + ", ".join(f"l_{k} = {v}" for k, v in enumerate(doc["ell"])))
    if doc["generators"]:
        lines.append("generators: " + ", ".join(
            f"{g['name']} (degree {g['degree']})" for g in doc["generators"]
        ))
        lines.append("product relations:")
        lines.extend(f"  g{r['i']}*g{r['j']} = {r['product']}" for r in doc["relations"])
        spans = ", ".join(
            f"degree {2 * k}: {'yes' if ok else 'no'}"
            for k, ok in enumerate(doc["g1_power_spans"])
        )
        lines.append(f"powers of g1 span ({spans})")
    lines += _listing(doc["groups"], f"groups by degree (up to {doc['groups'].max_degree}):")
    return "\n".join(lines)


def _kawasaki_latex(doc) -> str:
    lines = [
        r"\ell\text{-table}: (%s)" % ", ".join(map(str, doc["ell"])),
        r"\text{generators: } " + ", ".join(
            r"\gamma_{%s} \ (\deg %d)" % (g["name"][1:], g["degree"]) for g in doc["generators"]
        ),
    ]
    lines.extend(
        r"\gamma_{%d}\gamma_{%d} = %s \\" % (r["i"], r["j"], r["product"].render(latex=True))
        for r in doc["relations"]
    )
    return "\n".join(lines)


# -- orbifold --------------------------------------------------------------------


def _cmd_orbifold(args) -> dict:
    ring = OrbifoldRing(args.weights)
    kaw = KawasakiRing(args.weights)
    max_degree = _integral_max_degree(args, ring.weights.n)
    doc = {
        "weights": ring.weights,
        "relation": {"coefficient": ring.N, "exponent": ring.top},
        "qstar": [
            {"generator": f"g{k}", "image": kaw.qstar(kaw.gamma(k), ring)}
            for k in range(1, ring.weights.n + 1)
        ],
    }
    if args.format != "latex":
        doc["groups"] = ring.groups(max_degree)
    return doc


def _orbifold_text(doc) -> str:
    rel = doc["relation"]
    lines = [
        f"orbifold cohomology ring for weights {doc['weights']}: "
        f"Z[u]/<{rel['coefficient']}u^{rel['exponent']}>"
    ]
    lines += _listing(doc["groups"], f"groups by degree (up to {doc['groups'].max_degree}):")
    if doc["qstar"]:
        lines.append("comparison map from the coarse-space ring:")
        lines.extend(f"  q*({q['generator']}) = {q['image']}" for q in doc["qstar"])
    return "\n".join(lines)


def _orbifold_latex(doc) -> str:
    rel = doc["relation"]
    lines = [r"\mathbb{Z}[u]/\langle %du^{%d} \rangle" % (rel["coefficient"], rel["exponent"])]
    lines.extend(
        r"q^*(\gamma_{%s}) = %s \\" % (q["generator"][1:], q["image"].render(latex=True))
        for q in doc["qstar"]
    )
    return "\n".join(lines)


# -- kunneth ----------------------------------------------------------------------


def _cmd_kunneth(args) -> dict:
    wa, wb = args.weights, args.weights_b
    max_degree = _integral_max_degree(args, wa.n + wb.n)
    pg = product_groups(wa, wb, max_degree)
    doc = {"weights_a": wa, "weights_b": wb, "max_degree": max_degree, "groups": pg.groups}
    if args.format != "latex":
        doc["odd_torsion_witness"] = pg.odd_torsion_witness()
    return doc


def _kunneth_text(doc) -> str:
    groups, top, witness = doc["groups"], doc["max_degree"], doc["odd_torsion_witness"]
    header = f"product cohomology for {doc['weights_a']} x {doc['weights_b']} up to degree {top}:"
    lines = _listing(groups, header)
    if witness is None:
        lines.append(f"no odd-degree torsion up to degree {top}")
    else:
        lines.append(f"first odd degree with nonzero group: {witness} ({groups.group(witness)})")
    return "\n".join(lines)


def _kunneth_latex(doc) -> str:
    return "\n".join(
        r"H^{%d} = %s \\" % (d, str(g).replace("Z", r"\mathbb{Z}"))
        for d, g in doc["groups"].items()
    )


# -- eval -----------------------------------------------------------------------------


_RINGS = {"kawasaki": KawasakiRing, "orbifold": OrbifoldRing, "chenruan": CrRing}


def _cmd_eval(args) -> dict:
    ring = _RINGS[args.ring](args.weights)
    value = evaluate(parse(args.expression), ring)
    if value.is_zero:
        degree = "undefined (zero element)"
    else:
        deg = value.degree()
        degree = "inhomogeneous" if deg is None else str(deg)
    return {"ring": args.ring, "weights": args.weights, "expression": args.expression,
            "value": value, "degree": degree}


def _eval_text(doc) -> str:
    return f"{doc['value']}\ndegree: {doc['degree']}"


def _eval_latex(doc) -> str:
    if doc["ring"] == "chenruan":
        return doc["value"].render(latex=True)
    return _eval_text(doc)


# -- check ------------------------------------------------------------------------------


def _cmd_check(args) -> dict:
    _require_dense(args.weights, "check")
    results = run_checks(args.weights)
    return {"weights": args.weights, "ok": all(r.passed for r in results), "results": results}


def _check_text(doc) -> str:
    results = doc["results"]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" -- {r.detail}" if r.detail else "")
        for r in results
    ]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return "\n".join(lines)


# -- argument plumbing ---------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Reuse is safe: every default is immutable, each parse fills a fresh
    namespace, and argparse looks up sys.stdout and sys.stderr when it
    writes, not when it is built.
    """
    top = _ArgumentParser(
        prog="wpscoh",
        description="Exact cohomology rings of weighted projective quotients.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_degree=True):
        p.add_argument(
            "--weights", type=_weights_arg, required=True,
            help="comma-separated positive integer weights, e.g. 1,2,2,3,3,3",
        )
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text",
        )
        if with_degree:
            p.add_argument(
                "--max-degree", type=_degree_arg, default=None,
                help="degree bound for group listings (integer or p/q; default 2(n+2))",
            )

    p = sub.add_parser("kawasaki", help="singular cohomology ring of the coarse space")
    common(p)
    p.set_defaults(func=_cmd_kawasaki, text=_kawasaki_text, latex=_kawasaki_latex)

    p = sub.add_parser("orbifold", help="cohomology ring of the orbifold")
    common(p)
    p.set_defaults(func=_cmd_orbifold, text=_orbifold_text, latex=_orbifold_latex)

    p = sub.add_parser("chenruan", help="sector-graded orbifold cohomology ring")
    common(p)
    p.add_argument("--sectors", action="store_true", help="print the sector chart")
    p.add_argument("--presentation", action="store_true", help="print the presentation")
    p.add_argument("--multtable", action="store_true", help="print the twisted multiplication table")
    p.set_defaults(func=_cmd_chenruan, text=_chenruan_text, latex=_chenruan_latex)

    p = sub.add_parser("kunneth", help="degree-wise groups of a product of two quotients")
    common(p)
    p.add_argument(
        "--weights-b", type=_weights_arg, required=True,
        help="weights of the second factor",
    )
    p.set_defaults(func=_cmd_kunneth, text=_kunneth_text, latex=_kunneth_latex)

    p = sub.add_parser("eval", help="evaluate an expression in one of the rings")
    common(p, with_degree=False)
    p.add_argument("--ring", choices=tuple(_RINGS), required=True)
    p.add_argument("expression", help="e.g. 'a2*a2 + u^3'")
    p.set_defaults(func=_cmd_eval, text=_eval_text, latex=_eval_latex)

    p = sub.add_parser("check", help="run the invariant suite for the given weights")
    common(p, with_degree=False)
    p.set_defaults(func=_cmd_check, text=_check_text, latex=_check_text)

    top.commands = sub.choices  # each subcommand's parser, by name
    return top


def _parse(argv) -> argparse.Namespace:
    """The namespace that ``_build_parser().parse_args(argv)`` gives.

    An argv that starts with a subcommand's name is parsed by that
    subcommand's parser, as argparse's subparsers action would hand it
    on, and its extras are reported by the top parser, as ``parse_args``
    reports them.  Any other argv (none, help, an unknown name, an
    option first) goes through the top parser.
    """
    top = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = top.commands.get(argv[0]) if argv else None
    if sub is None:
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        doc = args.func(args)
        ok = doc.get("ok", True)
        if args.format == "json":
            out = _dump_json(doc)
        else:
            # each subparser names its handler's text and latex views
            out = getattr(args, args.format)(doc)
    except (ParseError, EvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
