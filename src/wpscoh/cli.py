"""Command-line front end.

Subcommands: kawasaki, orbifold, chenruan, kunneth, eval, check.  All
take --weights (comma-separated positive integers) and --format
(text, json or latex); results go to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 failed invariant checks, 2 usage or parse
errors.

``main`` builds its argument parser on its first call and reuses it for
every later call in the process, so an in-process caller pays for
argparse once.

Inputs whose output or work would grow without bound exit 2 with a
one-line message: more than ``MAX_WEIGHTS`` weights in one vector, a
``--max-degree`` above ``MAX_DEGREE_LIMIT``, a sector chart,
presentation or ``check`` with more than ``DENSE_SECTOR_LIMIT`` sectors,
and a presentation, multiplication table or ``check`` with more than
``PRODUCT_SECTOR_LIMIT`` nonzero twisted sectors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction

from .algebra import monomial, u_power
from .arith import WeightVector
from .chenruan import CrRing
from .expr import EvalError, ParseError, evaluate, parse
from .kawasaki import KawasakiRing
from .kunneth import product_groups
from .orbifold import OrbifoldRing
from .verify import run_checks

# Output with one column or generator per sector (the sector chart, the
# presentation) and check, whose residue walks cost ell / b per distinct
# weight b, refuse rings with more sectors than this.  The multiplication
# table and eval see only the nonzero sectors.
DENSE_SECTOR_LIMIT = 100_000

# More weights than this in one vector are refused.  The coarse ring of
# n + 1 weights lists n(n+1)/2 products and check compares (n+1)^3
# triples of its structure constants; at this limit check takes about
# 0.3 s and every default --max-degree 2(n+2) stays at most 256.
MAX_WEIGHTS = 64

# --max-degree above this is refused: every subcommand that takes it
# lists each degree up to it, and kunneth's listing grows with its square.
MAX_DEGREE_LIMIT = 4000

# The presentation and the multiplication table list one product per
# pair of nonzero twisted sectors, and check walks those pairs; more
# sectors than this are refused.
PRODUCT_SECTOR_LIMIT = 1000


def _require_dense(ell: int, what: str) -> None:
    if ell > DENSE_SECTOR_LIMIT:
        raise ValueError(
            f"{what} walks all ell = {ell} sectors, more than the limit of "
            f"{DENSE_SECTOR_LIMIT}; chenruan --multtable and eval still work"
        )


def _require_products(ring: CrRing, what: str) -> None:
    twisted = len(ring.twisted_generator_indices())
    if twisted > PRODUCT_SECTOR_LIMIT:
        raise ValueError(
            f"{what} products of {twisted} nonzero twisted sectors, "
            f"more than the limit of {PRODUCT_SECTOR_LIMIT}"
        )


def _weights_arg(text: str) -> WeightVector:
    parts = text.split(",")
    if len(parts) > MAX_WEIGHTS:
        raise argparse.ArgumentTypeError(
            f"{len(parts)} weights, more than the limit of {MAX_WEIGHTS}"
        )
    try:
        return WeightVector(int(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"weights must be comma-separated positive integers: {exc}"
        ) from None


def _degree_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}: {exc}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("max degree must be >= 0")
    return value


def _fr(x, latex: bool = False) -> str:
    """Fractions as reduced p/q, or \\frac{p}{q} in LaTeX; integers plain."""
    if latex and x.denominator != 1:
        return r"\frac{%d}{%d}" % (x.numerator, x.denominator)
    return str(x)


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


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _table(rows) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


# -- sector table -----------------------------------------------------------


# the whole space, the origin and one weight's line, in each notation
_LOCUS_TEXT = ("C^%d", "{0}", "C_(%d)")
_LOCUS_LATEX = (r"\mathbb{C}^{%d}", r"\{0\}", r"\mathbb{C}_{(%d)}")


def _fixed_locus_label(ring: CrRing, j: int, tokens=_LOCUS_TEXT) -> str:
    """The fixed locus of sector j, e.g. ``C^3``, ``{0}`` or ``2C_(2)+C_(3)``."""
    whole, origin, line = tokens
    s = ring.sectors[j]
    n = ring.weights.n
    if len(s.fixed) == n + 1:
        return whole % (n + 1)
    if not s.fixed:
        return origin
    counts = Counter(ring.weights.b[k] for k in s.fixed)
    return "+".join(
        (str(m) if m > 1 else "") + line % w for w, m in sorted(counts.items())
    )


def _euler_label(c: int, d: int, latex: bool = False) -> str:
    """The Euler class c u^d, e.g. ``108u^6``, printed as an element's monomial."""
    return monomial(c, u_power(d, latex))


def _sector_rows(ring: CrRing, latex: bool = False):
    """(label, per-sector cells) rows of the sector chart."""
    ell, b = ring.ell, ring.weights.b
    if latex:
        locus = _LOCUS_LATEX
        labels = ("g", r"(\mathbb{C}^{%d})^g" % (ring.weights.n + 1),
                  r"2\cdot\mathrm{age}(g)", r"\text{generator}", "e(g)")
        sector, rotation, generator = r"\zeta_{%d}", r"a_{\mathbb{C}_{(%d)}}(g)", r"\alpha_{%d}"
    else:
        locus = _LOCUS_TEXT
        labels = ("sector", "fixed locus", "2*age", "generator", "euler class")
        sector, rotation, generator = "zeta_%d", "a_(%d)", "a%d"
    rows = [
        (labels[0], [sector % j for j in range(ell)]),
        (labels[1], [_fixed_locus_label(ring, j, locus) for j in range(ell)]),
    ]
    for w in sorted(set(b)):
        k = b.index(w)
        rows.append((rotation % w, [_fr(s.a[k], latex) for s in ring.sectors]))
    rows.append((labels[2], [_fr(s.degree_shift, latex) for s in ring.sectors]))
    rows.append((labels[3], [generator % j for j in range(ell)]))
    rows.append((labels[4], [_euler_label(s.c, s.d, latex) for s in ring.sectors]))
    return rows


def _sector_table_text(ring: CrRing) -> str:
    return _table([[label] + cells for label, cells in _sector_rows(ring)])


def _sector_table_latex(ring: CrRing) -> str:
    (label, cells), *rows = _sector_rows(ring, latex=True)
    lines = [r"\begin{array}{c||%s}" % "|".join("c" * ring.ell)]
    lines.append(" & ".join([label] + cells) + r" \\")
    lines.append(r"\hline\hline")
    lines.extend(" & ".join([label] + cells) + r" \\ \hline" for label, cells in rows)
    lines.append(r"\end{array}")
    return "\n".join(lines)


# -- chenruan ----------------------------------------------------------------


def _chenruan_sections(args):
    chosen = [
        name
        for name, flag in (
            ("sectors", args.sectors),
            ("presentation", args.presentation),
            ("multtable", args.multtable),
        )
        if flag
    ]
    return chosen or ["sectors", "presentation"]


def _cmd_chenruan(args) -> int:
    ring = CrRing(args.weights)
    sections = _chenruan_sections(args)
    if "sectors" in sections or "presentation" in sections:
        _require_dense(ring.ell, "the sector chart or presentation")
    if "presentation" in sections or "multtable" in sections:
        _require_products(ring, "the presentation and multiplication table list")
    max_degree = _max_degree(args, ring.weights.n)

    if args.format == "json":
        doc: dict = {"weights": list(ring.weights.b), "ell": ring.ell}
        if "sectors" in sections:
            doc["sectors"] = [
                {
                    "j": s.j,
                    "a": [_fr(a) for a in s.a],
                    "fixed": list(s.fixed),
                    "euler": {"coefficient": s.c, "exponent": s.d},
                    "degree_shift": _fr(s.degree_shift),
                }
                for s in ring.sectors
            ]
        if "presentation" in sections:
            pres = ring.presentation()
            doc["generators"] = [
                {"name": name, "degree": _fr(deg)} for name, deg in pres.generators
            ]
            doc["relations"] = {
                "J": [str(rel) for rel in pres.kernel_relations],
                "I": [
                    {"i": rel.i, "j": rel.j, "product": str(rel.product)}
                    for rel in pres.product_relations
                ],
            }
            doc["graded"] = [
                {"degree": _fr(deg), "group": grp.to_json()}
                for deg, grp in ring.graded_dimensions(max_degree)
            ]
        if "multtable" in sections:
            doc["mult_table"] = [
                {"i": i, "j": j, "product": str(prod)}
                for (i, j), prod in sorted(ring.mult_table().items())
            ]
        print(_dump_json(doc))
        return 0

    if args.format == "latex":
        blocks = []
        if "sectors" in sections:
            blocks.append(_sector_table_latex(ring))
        if "presentation" in sections:
            pres = ring.presentation()
            gens = ", ".join(
                "u" if name == "u" else r"\alpha_{%s}" % name[1:]
                for name, _ in pres.generators
            )
            rels = ", ".join(
                rel.element.render(latex=True) for rel in pres.kernel_relations
            )
            blocks.append(
                r"\mathbb{Z}[%s]/(\mathcal{I} + \langle %s \rangle)" % (gens, rels)
            )
            blocks.append(
                "\n".join(
                    r"\alpha_{%d}\alpha_{%d} = %s \\" % (rel.i, rel.j, rel.product.render(latex=True))
                    for rel in pres.product_relations
                )
            )
        if "multtable" in sections:
            blocks.append(
                "\n".join(
                    r"\alpha_{%d} \star \alpha_{%d} = %s \\" % (i, j, prod.render(latex=True))
                    for (i, j), prod in sorted(ring.mult_table().items())
                )
            )
        print("\n\n".join(blocks))
        return 0

    blocks = []
    if "sectors" in sections:
        blocks.append(f"sector data for weights {ring.weights} (ell = {ring.ell})")
        blocks.append(_sector_table_text(ring))
    if "presentation" in sections:
        pres = ring.presentation()
        if ring.ell == 1:
            header = "presentation: Z[u] modulo"
        elif ring.ell == 2:
            header = "presentation: Z[u, a1] modulo"
        else:
            header = "presentation: Z[u, a1..a%d] modulo" % (ring.ell - 1)
        lines = [header]
        lines.append("  kernel relations: " + ", ".join(str(r) for r in pres.kernel_relations))
        if pres.product_relations:
            lines.append("  product relations:")
            lines.extend(f"    {rel}" for rel in pres.product_relations)
        lines.append("generator degrees:")
        lines.extend(f"  {name}: degree {_fr(deg)}" for name, deg in pres.generators)
        lines.append(f"groups by degree (up to {_fr(max_degree)}):")
        lines.extend(
            f"  degree {_fr(deg)}: {grp}" for deg, grp in ring.graded_dimensions(max_degree)
        )
        blocks.append("\n".join(lines))
    if "multtable" in sections:
        lines = ["multiplication table (nonzero twisted generators):"]
        lines.extend(
            f"  a{i}*a{j} = {prod}" for (i, j), prod in sorted(ring.mult_table().items())
        )
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


# -- kawasaki -------------------------------------------------------------------


def _cmd_kawasaki(args) -> int:
    ring = KawasakiRing(args.weights)
    n = ring.weights.n
    max_degree = _integral_max_degree(args, n)
    pres = ring.presentation()

    if args.format == "json":
        doc = {
            "weights": list(ring.weights.b),
            "ell": list(ring.ell_table),
            "generators": [{"name": name, "degree": deg} for name, deg in pres.generators],
            "relations": [
                {"i": k, "j": m, "product": str(prod)} for k, m, prod in pres.relations
            ],
            "g1_power_spans": list(pres.g1_power_spans),
            "groups": ring.groups(max_degree).to_json(),
        }
        print(_dump_json(doc))
        return 0

    if args.format == "latex":
        lines = [
            r"\ell\text{-table}: (%s)" % ", ".join(map(str, ring.ell_table)),
            r"\text{generators: } "
            + ", ".join(r"\gamma_{%d} \ (\deg %d)" % (k, 2 * k) for k in range(1, n + 1)),
        ]
        lines.extend(
            r"\gamma_{%d}\gamma_{%d} = %s \\" % (k, m, prod.render(latex=True))
            for k, m, prod in pres.relations
        )
        print("\n".join(lines))
        return 0

    lines = [f"coarse-space cohomology ring for weights {ring.weights}"]
    lines.append("ell table: " + ", ".join(f"l_{k} = {v}" for k, v in enumerate(ring.ell_table)))
    if n:
        lines.append("generators: " + ", ".join(f"g{k} (degree {2 * k})" for k in range(1, n + 1)))
        lines.append("product relations:")
        lines.extend(f"  g{k}*g{m} = {prod}" for k, m, prod in pres.relations)
        spans = ", ".join(
            f"degree {2 * k}: {'yes' if ok else 'no'}"
            for k, ok in enumerate(pres.g1_power_spans)
        )
        lines.append(f"powers of g1 span ({spans})")
    lines.append(f"groups by degree (up to {max_degree}):")
    lines.extend(f"  degree {d}: {grp}" for d, grp in ring.groups(max_degree).items())
    print("\n".join(lines))
    return 0


# -- orbifold --------------------------------------------------------------------


def _cmd_orbifold(args) -> int:
    ring = OrbifoldRing(args.weights)
    kaw = KawasakiRing(args.weights)
    n = ring.weights.n
    max_degree = _integral_max_degree(args, n)
    images = [(f"g{k}", kaw.qstar(kaw.gamma(k), ring)) for k in range(1, n + 1)]

    if args.format == "json":
        doc = ring.to_json(max_degree)
        doc["qstar"] = [{"generator": name, "image": str(img)} for name, img in images]
        print(_dump_json(doc))
        return 0

    if args.format == "latex":
        lines = [r"\mathbb{Z}[u]/\langle %du^{%d} \rangle" % (ring.N, ring.top)]
        lines.extend(
            r"q^*(\gamma_{%s}) = %s \\" % (name[1:], img.render(latex=True))
            for name, img in images
        )
        print("\n".join(lines))
        return 0

    lines = [f"orbifold cohomology ring for weights {ring.weights}: {ring}"]
    lines.append(f"groups by degree (up to {max_degree}):")
    lines.extend(f"  degree {d}: {grp}" for d, grp in ring.groups(max_degree).items())
    if images:
        lines.append("comparison map from the coarse-space ring:")
        lines.extend(f"  q*({name}) = {img}" for name, img in images)
    print("\n".join(lines))
    return 0


# -- kunneth ----------------------------------------------------------------------


def _cmd_kunneth(args) -> int:
    wa, wb = args.weights, args.weights_b
    max_degree = _integral_max_degree(args, wa.n + wb.n)
    pg = product_groups(wa, wb, max_degree)
    witness = pg.odd_torsion_witness()

    if args.format == "json":
        doc = {
            "weights_a": list(wa.b),
            "weights_b": list(wb.b),
            "max_degree": max_degree,
            "groups": pg.groups.to_json(),
            "odd_torsion_witness": witness,
        }
        print(_dump_json(doc))
        return 0

    if args.format == "latex":
        lines = [
            r"H^{%d} = %s \\" % (d, str(grp).replace("Z", r"\mathbb{Z}"))
            for d, grp in pg.groups.items()
        ]
        print("\n".join(lines))
        return 0

    lines = [f"product cohomology for {wa} x {wb} up to degree {max_degree}:"]
    lines.extend(f"  degree {d}: {grp}" for d, grp in pg.groups.items())
    if witness is None:
        lines.append(f"no odd-degree torsion up to degree {max_degree}")
    else:
        lines.append(
            f"first odd degree with nonzero group: {witness} ({pg.groups.group(witness)})"
        )
    print("\n".join(lines))
    return 0


# -- eval -----------------------------------------------------------------------------


_RINGS = {
    "kawasaki": KawasakiRing,
    "orbifold": OrbifoldRing,
    "chenruan": CrRing,
}


def _cmd_eval(args) -> int:
    ring = _RINGS[args.ring](args.weights)
    tree = parse(args.expression)
    value = evaluate(tree, ring)
    if value.is_zero:
        degree = "undefined (zero element)"
    else:
        deg = value.degree()
        degree = "inhomogeneous" if deg is None else _fr(deg)

    if args.format == "json":
        print(
            _dump_json(
                {
                    "ring": args.ring,
                    "weights": list(args.weights.b),
                    "expression": args.expression,
                    "value": str(value),
                    "degree": degree,
                }
            )
        )
        return 0
    if args.format == "latex" and args.ring == "chenruan":
        print(value.render(latex=True))
        return 0
    print(str(value))
    print(f"degree: {degree}")
    return 0


# -- check ------------------------------------------------------------------------------


def _cmd_check(args) -> int:
    _require_dense(args.weights.ell, "check")
    _require_products(CrRing(args.weights), "check forms")
    results = run_checks(args.weights)
    ok = all(r.passed for r in results)
    if args.format == "json":
        print(
            _dump_json(
                {
                    "weights": list(args.weights.b),
                    "ok": ok,
                    "results": [
                        {"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results
                    ],
                }
            )
        )
        return 0 if ok else 1
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f" -- {r.detail}" if r.detail else ""
        print(f"{status} {r.name}{suffix}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


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
    p.set_defaults(func=_cmd_kawasaki)

    p = sub.add_parser("orbifold", help="cohomology ring of the orbifold")
    common(p)
    p.set_defaults(func=_cmd_orbifold)

    p = sub.add_parser("chenruan", help="sector-graded orbifold cohomology ring")
    common(p)
    p.add_argument("--sectors", action="store_true", help="print the sector chart")
    p.add_argument("--presentation", action="store_true", help="print the presentation")
    p.add_argument("--multtable", action="store_true", help="print the twisted multiplication table")
    p.set_defaults(func=_cmd_chenruan)

    p = sub.add_parser("kunneth", help="degree-wise groups of a product of two quotients")
    common(p)
    p.add_argument(
        "--weights-b", type=_weights_arg, required=True,
        help="weights of the second factor",
    )
    p.set_defaults(func=_cmd_kunneth)

    p = sub.add_parser("eval", help="evaluate an expression in one of the rings")
    common(p, with_degree=False)
    p.add_argument("--ring", choices=tuple(_RINGS), required=True)
    p.add_argument("expression", help="e.g. 'a2*a2 + u^3'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run the invariant suite for the given weights")
    common(p, with_degree=False)
    p.set_defaults(func=_cmd_check)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, EvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
