"""Seeded operation corpora for the benchmark workloads, and the checks
each operation's output must pass.

A workload's corpus is a fixed number of rounds.  Round ``r`` of
workload ``w`` under seed ``s`` is built from
``random.Random(f"{w}/{s}/{r}")``, so the same seed always gives the
same operations.  Every operation is one argv for ``wpscoh.cli.main``.

The parameters that set an operation's cost (``ell`` and the number of
weights, ``--max-degree``, exponents) follow fixed schedules indexed by
the round number; the seed picks everything else (the weights that
realise a given ``ell``, their order, formats, sections, expressions).
Runs on different seeds therefore do the same amount of work, so their
timings are comparable, while no two seeds send the same inputs.

The expected facts are recomputed here from the weights alone, never
by calling the library.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

FORMATS = ("text", "json", "latex")

# Cost schedules.  A ``(ell, k)`` entry asks for k weights whose lcm is ell.
# ``corpus_rounds`` is the number of rounds in a corpus: enough for 100
# distinct operations, few enough that a run repeats the corpus at
# least three times.
CLI_SMALL = {
    "vectors": [
        (6, 2), (60, 3), (4, 3), (30, 4), (12, 2), (5, 5), (20, 3), (2, 4),
        (15, 2), (60, 5), (10, 3), (3, 2), (12, 4), (1, 2), (30, 3), (6, 5),
        (20, 4), (60, 4), (4, 2), (10, 5),
    ],
    "max_entry": 6,
    "corpus_rounds": 60,
}
# One round: a large and a mid-sized sector count.  Both vectors have
# fixed weights and the seed only orders them, because the count of
# nonzero sectors sets the cost of a presentation and of check.  The
# large vector gets the products and one presentation; the mid vector
# gets twelve presentations and the check.  So the median falls inside
# the large vector's products and the 90th percentile inside the mid
# vector's presentations, each a class of calls of equal cost.
SECTORS_WIDE = {
    "large": (7, 8, 15),
    "mid": (4, 9, 14),
    "eval_pairs": (40, 4),
    "corpus_rounds": 1,
}
# Two kunneth calls per round at DEEP_DEGREE make up the slowest seventh
# of the calls, so the 90th percentile falls inside that class.  Every
# kunneth pair has gcd(N_a, N_b) > 1; without it the torsion vanishes
# and a call costs a quarter as much.
GROUPS_DEEP = {
    "deep_degree": 80,
    # (shallow kunneth degree, kawasaki n pair, chenruan (ell, k) and max
    #  degree, orbifold u exponent, kawasaki exponent, chenruan exponent)
    "rounds": [
        (40, (10, 16), (12, 3), 1000, 20000, 2000, 400),
        (70, (11, 15), (60, 3), 200, 5000, 500, 100),
        (50, (12, 14), (20, 3), 600, 10000, 1000, 200),
        (60, (13, 13), (30, 3), 400, 15000, 1500, 300),
        (45, (14, 12), (15, 2), 800, 12000, 1200, 250),
    ],
    "corpus_rounds": 8,
}
SMOKE = {
    "cli_small": {"vectors": [(6, 2), (12, 3)], "max_entry": 6, "corpus_rounds": 2},
    "sectors_wide": {"large": (3, 4, 5), "mid": (2, 3, 4), "eval_pairs": (2, 1), "corpus_rounds": 1},
    "groups_deep": {"deep_degree": 10, "rounds": [(6, (4, 5), (6, 2), 30, 200, 20, 10)],
                    "corpus_rounds": 1},
}


@dataclass
class Op:
    """One CLI call: its argv, expected exit code, and output check.

    ``check(stdout, stderr)`` returns a description of what is wrong,
    or None when the output is right.
    """

    argv: list
    expect: int
    check: Callable


@dataclass
class Round:
    """The operations of one round and the weight vectors they query."""

    ops: list = field(default_factory=list)
    weights: list = field(default_factory=list)


# -- facts recomputed from the weights ----------------------------------------


def _csv(b) -> str:
    return ",".join(map(str, b))


def _fixed_weights(b, j, ell):
    return [x for x in b if x * j % ell == 0]


def _nonzero_twisted(b) -> int:
    """Number of sectors j in 1..ell-1 that fix some coordinate."""
    ell = math.lcm(*b)
    return sum(1 for j in range(1, ell) if _fixed_weights(b, j, ell))


def _ell_table_ends(b):
    """(ell_0, ell_1, ell_n): 1, the lcm, and N / gcd."""
    return 1, math.lcm(*b), math.prod(b) // math.gcd(*b)


def _odd_torsion_witness(a, b, max_degree):
    """First odd degree with a nonzero product group.

    Odd degrees only get Tor(Z/N_a, Z/N_b) = Z/gcd terms, which first
    meet at i = 2n_a + 2, j = 2n_b + 2, i.e. degree i + j - 1.
    """
    d = 2 * (len(a) - 1) + 2 * (len(b) - 1) + 3
    if math.gcd(math.prod(a), math.prod(b)) > 1 and d <= max_degree:
        return d
    return None


# -- output checks ----------------------------------------------------------------


def _json_doc(out):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first(*problems):
    return next((p for p in problems if p), None)


def _check_chenruan(b, fmt, sections):
    ell = math.lcm(*b)
    pairs = _nonzero_twisted(b)
    pairs = pairs * (pairs + 1) // 2

    def check(out, err):
        if fmt == "json":
            doc, bad = _json_doc(out)
            if bad:
                return bad
            problems = [_mismatch("ell", doc.get("ell"), ell),
                        _mismatch("weights", doc.get("weights"), list(b))]
            if "sectors" in sections:
                sectors = doc.get("sectors", [])
                problems.append(_mismatch("sector count", len(sectors), ell))
                for s in sectors:
                    fixed = _fixed_weights(b, s["j"], ell)
                    want = {"coefficient": math.prod(fixed), "exponent": len(fixed)}
                    problems.append(_mismatch(f"euler class of sector {s['j']}", s["euler"], want))
            if "presentation" in sections:
                problems.append(_mismatch("generator count", len(doc.get("generators", [])), ell))
                problems.append(_mismatch("kernel relation count", len(doc["relations"]["J"]), ell))
            if "multtable" in sections:
                problems.append(_mismatch("mult table size", len(doc.get("mult_table", [])), pairs))
            return _first(*problems)
        lines = out.splitlines()
        problems = []
        if fmt == "text":
            if "sectors" in sections:
                want = f"sector data for weights ({_csv(b)}) (ell = {ell})"
                problems.append(_mismatch("chart header", lines[0] if lines else "", want))
            if "presentation" in sections:
                gens = {1: "Z[u]", 2: "Z[u, a1]"}.get(ell, f"Z[u, a1..a{ell - 1}]")
                want = f"presentation: {gens} modulo"
                if want not in lines:
                    problems.append(f"missing presentation header {want!r}")
            if "multtable" in sections:
                rows = sum(1 for line in lines if re.match(r"  a\d+\*a\d+ = ", line))
                problems.append(_mismatch("mult table rows", rows, pairs))
        else:
            if "sectors" in sections:
                want = r"\begin{array}{c||%s}" % "|".join("c" * ell)
                if want not in lines:
                    problems.append("sector chart does not have ell columns")
            if "presentation" in sections:
                head = next((line for line in lines if line.startswith(r"\mathbb{Z}[")), "")
                gens = head[len(r"\mathbb{Z}["):].split("]/(")[0]
                problems.append(_mismatch("generator count", len(gens.split(", ")), ell))
            if "multtable" in sections:
                rows = sum(1 for line in lines if re.match(r"\\alpha_\{\d+\} \\star", line))
                problems.append(_mismatch("mult table rows", rows, pairs))
        return _first(*problems)

    return check


def _check_kawasaki(b, fmt):
    ends = _ell_table_ends(b)

    def check(out, err):
        if fmt == "json":
            doc, bad = _json_doc(out)
            if bad:
                return bad
            table = doc.get("ell", [])
        elif fmt == "text":
            table = [int(v) for v in re.findall(r"l_\d+ = (\d+)", out)]
        else:
            head = out.splitlines()[0] if out else ""
            table = [int(v) for v in re.findall(r"\d+", head.split(":", 1)[-1])]
        return _first(
            _mismatch("ell table length", len(table), len(b)),
            _mismatch("ell table ends", (table[0], table[1], table[-1]) if len(table) > 1 else table, ends),
        )

    return check


def _check_orbifold(b, fmt):
    big_n, top, ell = math.prod(b), len(b), math.lcm(*b)

    def check(out, err):
        head = out.splitlines()[0] if out else ""
        if fmt == "json":
            doc, bad = _json_doc(out)
            if bad:
                return bad
            images = doc.get("qstar", [])
            return _first(
                _mismatch("relation", doc.get("relation"), {"coefficient": big_n, "exponent": top}),
                _mismatch("q* images", len(images), top - 1),
                _mismatch("q*(g1)", images[0]["image"] if images else None, f"{ell if ell > 1 else ''}u"),
            )
        if fmt == "text":
            return None if head.endswith(f": Z[u]/<{big_n}u^{top}>") else f"bad ring line {head!r}"
        return _mismatch("ring line", head, r"\mathbb{Z}[u]/\langle %du^{%d} \rangle" % (big_n, top))

    return check


def _check_kunneth(a, b, fmt, max_degree):
    witness = _odd_torsion_witness(a, b, max_degree)

    def check(out, err):
        if fmt == "json":
            doc, bad = _json_doc(out)
            if bad:
                return bad
            degrees = [g["degree"] for g in doc.get("groups", [])]
            problems = [_mismatch("witness", doc.get("odd_torsion_witness"), witness),
                        _mismatch("max degree", doc.get("max_degree"), max_degree)]
        else:
            pattern = r"H\^\{(\d+)\}" if fmt == "latex" else r"  degree (\d+): "
            degrees = [int(d) for d in re.findall(pattern, out)]
            problems = []
        odd = [d for d in degrees if d % 2]
        problems.append(_mismatch("first odd degree", min(odd, default=None), witness))
        problems.append(_mismatch("lowest degree", degrees[:1], [0]))
        return _first(*problems)

    return check


def _eval_value(out, fmt):
    if fmt == "json":
        doc, bad = _json_doc(out)
        return (None, bad) if bad else (doc.get("value"), None)
    if fmt == "latex":
        return out.strip(), None
    return (out.splitlines() or [""])[0], None


def _check_value(fmt, want):
    def check(out, err):
        value, bad = _eval_value(out, fmt)
        return bad or _mismatch("value", value, want)

    return check


def _eval_pair(b, ring, x, y, fmt):
    """x*y and y*x: the second must print the same value as the first."""
    seen = {}

    def first(out, err):
        value, bad = _eval_value(out, fmt)
        seen["value"] = value
        return bad

    def second(out, err):
        value, bad = _eval_value(out, fmt)
        return bad or _mismatch(f"{y}*{x} against {x}*{y}", value, seen.get("value"))

    base = ["eval", "--weights", _csv(b), "--ring", ring, "--format", fmt]
    return [Op(base + [f"{x}*{y}"], 0, first), Op(base + [f"{y}*{x}"], 0, second)]


def _check_check(fmt):
    def check(out, err):
        if fmt == "json":
            doc, bad = _json_doc(out)
            return bad or _mismatch("ok", doc.get("ok"), True)
        last = (out.splitlines() or [""])[-1]
        return None if re.fullmatch(r"(\d+)/\1 checks passed", last) else f"summary {last!r}"

    return check


def _check_usage_error(needle):
    def check(out, err):
        if out:
            return "usage error printed to stdout"
        return None if needle in err else f"stderr lacks {needle!r}: {err!r}"

    return check


# -- operation builders ---------------------------------------------------------------


def _weights(rng, ell, k, max_entry):
    """k weights, each at most max_entry, whose lcm is exactly ell."""
    divisors = [d for d in range(1, max_entry + 1) if ell % d == 0]
    for _ in range(200_000):
        b = tuple(rng.choice(divisors) for _ in range(k))
        if math.lcm(*b) == ell:
            return b
    raise ValueError(f"no {k} weights <= {max_entry} have lcm {ell}")


def _small_weights(rng, k, max_entry):
    return tuple(rng.randint(1, max_entry) for _ in range(k))


def _chenruan(b, fmt, sections, max_degree=None):
    argv = ["chenruan", "--weights", _csv(b), "--format", fmt]
    argv += [f"--{s}" for s in sections if s != "default"]
    sections = ("sectors", "presentation") if sections == ("default",) else sections
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    return Op(argv, 0, _check_chenruan(b, fmt, sections))


def _kawasaki(b, fmt, max_degree=None):
    argv = ["kawasaki", "--weights", _csv(b), "--format", fmt]
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    return Op(argv, 0, _check_kawasaki(b, fmt))


def _orbifold(b, fmt, max_degree=None):
    argv = ["orbifold", "--weights", _csv(b), "--format", fmt]
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    return Op(argv, 0, _check_orbifold(b, fmt))


def _kunneth(a, b, fmt, max_degree=None):
    argv = ["kunneth", "--weights", _csv(a), "--weights-b", _csv(b), "--format", fmt]
    if max_degree is None:
        max_degree = 2 * (len(a) + len(b))
    else:
        argv += ["--max-degree", str(max_degree)]
    return Op(argv, 0, _check_kunneth(a, b, fmt, max_degree))


def _check(b, fmt):
    return Op(["check", "--weights", _csv(b), "--format", fmt], 0, _check_check(fmt))


def _sector_term(rng, ell, nonzero):
    j = rng.choice(nonzero) if nonzero and rng.random() < 0.5 else rng.randrange(ell)
    kind = rng.randrange(3)
    if kind == 0:
        return f"a{j}"
    if kind == 1:
        return f"u^{rng.randint(1, 3)}*a{j}"
    return f"(a{j} + {rng.randint(1, 5)}*a{rng.randrange(ell)})"


def _invalid(rng, b, kind):
    ell = math.lcm(*b)
    if kind == 0:
        argv = ["eval", "--weights", _csv(b), "--ring", "chenruan", f"a{ell}*u"]
        return Op(argv, 2, _check_usage_error("out of range"))
    if kind == 1:
        bad = rng.choice(["0," + _csv(b), _csv(b) + ",x", _csv(b) + ",,2", "-1"])
        argv = [rng.choice(["kawasaki", "orbifold", "check"]), "--weights", bad]
        return Op(argv, 2, _check_usage_error("weights must be comma-separated positive integers"))
    argv = ["eval", "--weights", _csv(b), "--ring", "orbifold", rng.choice(["u*+2", "(u+1", "u^^2", "2u"])]
    return Op(argv, 2, _check_usage_error("error: "))


def _degree(rng, low, high):
    return rng.choice([None, rng.randint(low, high)])


def cli_small_round(rng, r, params):
    """Every subcommand in every format it has, on one small vector."""
    ell, k = params["vectors"][r % len(params["vectors"])]
    b = _weights(rng, ell, k, params["max_entry"])
    b2 = _small_weights(rng, rng.randint(2, 3), params["max_entry"])
    n, big_n = len(b) - 1, math.prod(b)
    rnd = Round(weights=[b, b2])
    sections = [("default",), ("sectors",), ("presentation",), ("multtable",)]
    for fmt in FORMATS:
        degree = rng.choice([None, rng.randint(1, 14), f"{rng.randint(1, 29)}/2"])
        rnd.ops.append(_chenruan(b, fmt, rng.choice(sections), degree))
        rnd.ops.append(_kawasaki(b, fmt, _degree(rng, 1, 14)))
        rnd.ops.append(_orbifold(b, fmt, _degree(rng, 1, 14)))
        rnd.ops.append(_kunneth(b, b2, fmt, _degree(rng, 1, 14)))
    nonzero = [j for j in range(ell) if _fixed_weights(b, j, ell)]
    symbols = {
        "chenruan": lambda: _sector_term(rng, ell, nonzero),
        "kawasaki": lambda: f"{rng.randint(1, 4)}*g{rng.randint(1, n)}^{rng.randint(1, 3)}",
        "orbifold": lambda: f"(u^{rng.randint(0, n + 1)} + {rng.randint(1, 9)})",
    }
    for ring, term in symbols.items():
        fmt = rng.choice(FORMATS)
        rnd.ops += _eval_pair(b, ring, term(), term(), fmt)
    # kernel relations: N u^(n+1) = 0, and c_j u^(d_j) a_j = 0 in sector j
    fmt = rng.choice(("text", "json"))
    rnd.ops.append(Op(["eval", "--weights", _csv(b), "--ring", "orbifold", "--format", fmt,
                       f"{big_n}*u^{n + 1}"], 0, _check_value(fmt, "0")))
    j = rng.randrange(ell)
    fixed = _fixed_weights(b, j, ell)
    fmt = rng.choice(("text", "json"))
    rnd.ops.append(Op(["eval", "--weights", _csv(b), "--ring", "chenruan", "--format", fmt,
                       f"{math.prod(fixed)}*u^{len(fixed)}*a{j}"], 0, _check_value(fmt, "0")))
    rnd.ops += [_check(b, "text"), _check(b, "json")]
    rnd.ops.append(_invalid(rng, b, r % 3))
    return rnd


def sectors_wide_round(rng, r, params):
    """Dense sector tables: chart, presentation, multtable, products, check."""
    large, mid = (tuple(rng.sample(b, len(b))) for b in (params["large"], params["mid"]))
    rnd = Round(weights=[large, mid])
    rnd.ops.append(_chenruan(large, rng.choice(FORMATS), ("default",)))
    mid_sections = [("default",), ("presentation",), ("presentation", "multtable"),
                    ("sectors", "presentation", "multtable")]
    for fmt in FORMATS:
        rnd.ops.append(_chenruan(large, fmt, ("sectors",)))
        rnd.ops.append(_chenruan(large, fmt, ("multtable",)))
        for sections in mid_sections:
            degree = rng.choice([None, rng.randint(8, 24), f"{rng.randint(17, 49)}/2"])
            rnd.ops.append(_chenruan(mid, fmt, sections, degree))
    for b, eval_pairs in zip((large, mid), params["eval_pairs"]):
        ell = math.lcm(*b)
        nonzero = [j for j in range(ell) if _fixed_weights(b, j, ell)]
        for _ in range(eval_pairs):
            x, y = _sector_term(rng, ell, nonzero), _sector_term(rng, ell, nonzero)
            rnd.ops += _eval_pair(b, "chenruan", x, y, rng.choice(FORMATS))
        # one query each for the layers this workload otherwise leaves idle
        rnd.ops.append(_kunneth(b, _small_weights(rng, 2, 4), rng.choice(FORMATS)))
        rnd.ops += _eval_pair(b, "kawasaki", f"(g1 + {rng.randint(1, 5)})^3", "g2", rng.choice(FORMATS))
    rnd.ops.append(_check(mid, rng.choice(("text", "json"))))
    return rnd


def groups_deep_round(rng, r, params):
    """Deep degrees and dimensions over small sector counts.

    The weights, degrees and constants that set a call's cost come from
    a generator fixed by the round number, because here they move the
    cost far more than the schedule does; the seed orders the weights
    and picks the rest.  Formats follow the round number too: a JSON
    listing of a thousand degrees sets the peak memory of the whole run.
    """
    fixed = random.Random(f"groups_deep/fixed/{r}")

    def fmt(i):
        return FORMATS[(r + i) % len(FORMATS)]

    def ordered(b):
        return tuple(rng.sample(b, len(b)))

    shallow, kaw, (ell, k), cr_degree, u_exp, g_exp, a_exp = params["rounds"][r % len(params["rounds"])]
    rnd = Round()
    for i, degree in enumerate((params["deep_degree"], params["deep_degree"], shallow)):
        a, b = (1,), (1,)
        while math.gcd(math.prod(a), math.prod(b)) == 1:
            a, b = _small_weights(fixed, 3, 6), _small_weights(fixed, 3, 6)
        a, b = ordered(a), ordered(b)
        rnd.weights += [a, b]
        rnd.ops.append(_kunneth(a, b, fmt(i), degree))
    for i, n in enumerate(kaw):
        b = ordered(_small_weights(fixed, n + 1, 12))
        rnd.weights.append(b)
        rnd.ops.append(_kawasaki(b, fmt(i), _degree(fixed, 2, 4 * n)))
    b = ordered(_weights(fixed, ell, k, 6))
    rnd.weights.append(b)
    rnd.ops.append(_chenruan(b, fmt(0), ("presentation", "multtable"), cr_degree))
    rnd.ops += _eval_pair(b, "orbifold", f"u^{u_exp}", f"(u + {rng.randint(1, 9)})", fmt(1))
    b3 = ordered(_small_weights(fixed, 3, 6))
    rnd.weights.append(b3)
    x = f"(g1 + g2 + {fixed.randint(1, 5)})^{g_exp}"
    rnd.ops += _eval_pair(b3, "kawasaki", x, f"g{rng.randint(1, 2)}", fmt(2))
    twisted = [j for j in range(1, ell) if _fixed_weights(b, j, ell)]
    x = f"(a{fixed.choice(twisted)} + u)^{a_exp}"
    rnd.ops += _eval_pair(b, "chenruan", x, f"a{rng.randrange(ell)}", fmt(0))
    rnd.ops.append(_orbifold(b, fmt(1), 2 * cr_degree))
    rnd.ops.append(_check(b, ("text", "json")[r % 2]))
    return rnd


WORKLOADS = {
    "cli_small": (cli_small_round, CLI_SMALL),
    "sectors_wide": (sectors_wide_round, SECTORS_WIDE),
    "groups_deep": (groups_deep_round, GROUPS_DEEP),
}


def make_corpus(workload, seed, smoke=False):
    """The rounds of a run's corpus, in order."""
    build, params = WORKLOADS[workload]
    params = SMOKE[workload] if smoke else params
    return [build(random.Random(f"{workload}/{seed}/{r}"), r, params)
            for r in range(params["corpus_rounds"])]
